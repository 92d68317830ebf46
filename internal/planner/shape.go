// Package planner chooses the expected-fastest evaluation strategy for
// each compiled query, per request. It closes the loop the repository
// has been building toward: the paper gives a lattice of XPath
// fragments with engines of very different complexity (linear Core
// XPath and XPatterns algebras, the polynomial context-value-table
// family, the exponential naive baseline), and the observability layer
// records evaluation latency per (fragment, strategy) cell precisely so
// a planner can route on measurements instead of guesses.
//
// The design follows the "cheap structural planning first" thesis:
// a handful of shape-derived rules pick a strategy in O(|query|) with
// no statistics at all, and adaptive mode then refines the choice
// online — per-shape-class latency EWMAs, per-cache-entry EWMAs, and
// the xpath_query_seconds histogram matrix, in that order of
// specificity — with a small deterministic epsilon-explore so a
// mispredicted shape class corrects itself instead of being wrong
// forever. A strategy that fails structurally (bottomup tripping its
// context-value-table row limit) is banned for that shape class on the
// spot.
package planner

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/axes"
	"repro/internal/core"
	"repro/internal/xpath"
)

// Shape is the structural feature vector the planner extracts from a
// compiled query: everything the routing rules and the class key look
// at, in one O(|query|) AST walk.
type Shape struct {
	// Fragment is the smallest lattice fragment containing the query —
	// the dominant routing feature, since it decides which linear
	// fragment algebras are even applicable.
	Fragment core.Fragment
	// Steps counts location steps across the whole expression,
	// including steps inside predicates.
	Steps int
	// ReverseSteps counts steps on reverse axes (parent, ancestor,
	// ancestor-or-self, preceding, preceding-sibling).
	ReverseSteps int
	// SpineSteps counts steps on the document-sized axes (descendant,
	// descendant-or-self, following, preceding) whose node sets grow
	// with the document rather than the fanout.
	SpineSteps int
	// MaxPredDepth is the deepest predicate nesting ([..[..]..] = 2).
	MaxPredDepth int
	// Positionals counts position()/last() occurrences; normalization
	// rewrites numeric predicates like [3] into [position() = 3], so
	// this also counts those.
	Positionals int
	// Unions counts union operators; a top-level union of w branches
	// contributes w-1.
	Unions int
	// Calls counts core-library calls other than position()/last().
	Calls int
	// Arith counts arithmetic and comparison operators.
	Arith int
	// DocNodes is the size of the document the query is being planned
	// against (0 when unknown).
	DocNodes int
}

// Extract computes the query's shape against a document of docNodes
// nodes.
func Extract(q *core.Query, docNodes int) Shape {
	return ExtractQuery(q).WithDoc(docNodes)
}

// ExtractQuery computes the document-independent part of the shape —
// everything but DocNodes. The AST walk is deterministic per query, so
// the engine memoizes this on the shared cache entry and completes it
// per request with WithDoc, keeping shape extraction off the serving
// hot path.
func ExtractQuery(q *core.Query) Shape {
	sh := Shape{Fragment: q.Fragment()}
	shapeWalk(q.Expr(), 0, &sh)
	return sh
}

// WithDoc completes a memoized shape against a concrete document size.
func (sh Shape) WithDoc(docNodes int) Shape {
	sh.DocNodes = docNodes
	return sh
}

// shapeWalk accumulates features over the tree the strategies evaluate
// (core.Query.Expr: normalized, then optimized — a fused //t counts as
// the one descendant::t step it runs as). predDepth is the number of
// enclosing predicates at e.
func shapeWalk(e xpath.Expr, predDepth int, sh *Shape) {
	switch x := e.(type) {
	case *xpath.Number, *xpath.Literal, *xpath.VarRef, nil:
	case *xpath.Negate:
		shapeWalk(x.X, predDepth, sh)
	case *xpath.Binary:
		switch {
		case x.Op == xpath.OpUnion:
			sh.Unions++
		case x.Op.IsArith() || x.Op.IsRelOp():
			sh.Arith++
		}
		shapeWalk(x.Left, predDepth, sh)
		shapeWalk(x.Right, predDepth, sh)
	case *xpath.Call:
		switch x.Name {
		case "position", "last":
			sh.Positionals++
		default:
			sh.Calls++
		}
		for _, a := range x.Args {
			shapeWalk(a, predDepth, sh)
		}
	case *xpath.FilterExpr:
		shapeWalk(x.Primary, predDepth, sh)
		shapePreds(x.Preds, predDepth, sh)
	case *xpath.Path:
		if x.Filter != nil {
			shapeWalk(x.Filter, predDepth, sh)
		}
		for _, st := range x.Steps {
			sh.Steps++
			if st.Axis.IsReverse() {
				sh.ReverseSteps++
			}
			switch st.Axis {
			case axes.Descendant, axes.DescendantOrSelf, axes.Following, axes.Preceding:
				sh.SpineSteps++
			}
			shapePreds(st.Preds, predDepth, sh)
		}
	}
}

func shapePreds(preds []xpath.Expr, predDepth int, sh *Shape) {
	if len(preds) == 0 {
		return
	}
	depth := predDepth + 1
	if depth > sh.MaxPredDepth {
		sh.MaxPredDepth = depth
	}
	for _, p := range preds {
		shapeWalk(p, depth, sh)
	}
}

// String renders the feature vector for explain output and span
// attributes.
func (sh Shape) String() string {
	return fmt.Sprintf("fragment=%s steps=%d reverse=%d spine=%d pred_depth=%d positionals=%d unions=%d calls=%d arith=%d doc_nodes=%d",
		FragmentLabel(sh.Fragment), sh.Steps, sh.ReverseSteps, sh.SpineSteps,
		sh.MaxPredDepth, sh.Positionals, sh.Unions, sh.Calls, sh.Arith, sh.DocNodes)
}

// Class is a coarse bucketing of Shape: the key under which the
// adaptive planner accumulates latency observations and failure bans.
// Buckets are deliberately wide — a class needs enough traffic to
// learn from, and two queries in one class should genuinely prefer the
// same engine.
type Class struct {
	Fragment core.Fragment
	// Steps and PredDepth are log-ish buckets (see bucketSteps), Doc a
	// log16 bucket of the document size.
	Steps, PredDepth, Doc uint8
	// Feature bits that change which engine wins independently of
	// size: positional predicates, unions, reverse axes, document-
	// sized axes.
	Positional, Union, Reverse, Spine bool
}

// Class buckets the shape.
func (sh Shape) Class() Class {
	return Class{
		Fragment:   sh.Fragment,
		Steps:      bucketSteps(sh.Steps),
		PredDepth:  bucketDepth(sh.MaxPredDepth),
		Doc:        bucketDoc(sh.DocNodes),
		Positional: sh.Positionals > 0,
		Union:      sh.Unions > 0,
		Reverse:    sh.ReverseSteps > 0,
		Spine:      sh.SpineSteps > 0,
	}
}

func bucketSteps(n int) uint8 {
	switch {
	case n <= 2:
		return 0
	case n <= 6:
		return 1
	case n <= 14:
		return 2
	default:
		return 3
	}
}

func bucketDepth(n int) uint8 {
	if n > 3 {
		return 3
	}
	return uint8(n)
}

// bucketDoc is a log16 size bucket: documents within a 16× size band
// share planner state.
func bucketDoc(n int) uint8 {
	if n <= 0 {
		return 0
	}
	b := (bits.Len(uint(n)) - 1) / 4
	if b > 7 {
		b = 7
	}
	return uint8(b)
}

// String renders the class key, e.g. "core_xpath/s2/p1/d3+pos+rev".
func (c Class) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/s%d/p%d/d%d", FragmentLabel(c.Fragment), c.Steps, c.PredDepth, c.Doc)
	if c.Positional {
		b.WriteString("+pos")
	}
	if c.Union {
		b.WriteString("+union")
	}
	if c.Reverse {
		b.WriteString("+rev")
	}
	if c.Spine {
		b.WriteString("+spine")
	}
	return b.String()
}

// FragmentLabel maps a fragment class to its snake_case metric label —
// the label vocabulary of xpath_query_seconds{fragment=...}. The
// display strings in internal/core ("Core XPath", "Extended Wadler
// Fragment") are not valid label material.
func FragmentLabel(f core.Fragment) string {
	switch f {
	case core.FragmentCoreXPath:
		return "core_xpath"
	case core.FragmentXPatterns:
		return "xpatterns"
	case core.FragmentWadler:
		return "wadler"
	default:
		return "full_xpath"
	}
}
