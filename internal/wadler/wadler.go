// Package wadler implements Section 11: the Extended Wadler Fragment
// and the OptMinContext algorithm (Algorithm 11.1).
//
// The Extended Wadler Fragment restricts XPath so that every node-set
// subexpression can be evaluated by *backward* propagation of node sets
// (never materializing dom×2^dom relations):
//
//	Restriction 1 — no data-selecting functions (local-name,
//	    namespace-uri, name, string, number, string-length,
//	    normalize-space);
//	Restriction 2 — no nset RelOp nset with both sides context
//	    dependent, no count or sum; in nset RelOp scalar the scalar must
//	    not depend on any context;
//	Restriction 3 — in id(id(…(c)…)) the innermost c must not depend on
//	    any context.
//
// Queries in the fragment run in O(|D|·|Q|²) space and O(|D|²·|Q|²)
// time (Theorem 11.3).
//
// OptMinContext evaluates every "bottom-up location path" of the query
// — subexpressions boolean(π) and π RelOp c with context-independent c
// — by eval_bottomup_path/propagate_path_backwards (Appendix A; the walk
// itself is evalutil.Backward) into a dom → bool table, and runs
// MinContext for the rest. Section 10's E1 algebra is the same idea:
// and, or and not of such tables, true(), false() and the XSLT'98 unary
// predicates are whole tables too, which the test names as well.
// Subexpressions outside the fragment fall back to MinContext's own
// machinery, so OptMinContext supports all of XPath at MinContext's
// bounds while meeting the better fragment bounds where they apply
// (Corollaries 11.4 and 11.5): every served query runs on it, behind
// the Core XPath and XPatterns gates too. This package holds the
// fragment and the test of which nodes are bottom-up (bottomUp); the
// MinContext run is handed the test when it begins and computes the
// tables.
//
// # The order differs from Algorithm 11.1
//
// Algorithm 11.1 evaluates all bottom-up paths, innermost first, before
// MinContext starts. Here a path's table is computed when
// eval_by_cnode_only or eval_single_context first needs it, and the
// predicates of the path's own steps are tabulated as the backward walk
// judges them, which computes any bottom-up path inside them then. A
// path behind a step that selects nothing — //p[@i] on a document
// without p — is never computed. The answers are the same, since a
// table is the same whole table whenever it is made, and Theorem 11.3's
// bound still holds: each bottom-up node is computed at most once (the
// run asks its test once per node, and not again for an operand of a
// composition it named), and only where MinContext would otherwise
// tabulate it, so the work is at most that of step 1 of Algorithm 11.1.
//
// # Where the node sets come from
//
// A bottom-up path is evaluated on node sets throughout, and the sets
// start as small as the query allows. eval_bottomup_path's initial Y is
// not "every y ∈ dom whose string-value compares with c" but the same
// restricted to T(t) of the path's last step — the first thing
// propagate_step_backwards would intersect Y with anyway — which for
// child::name is the label's posting list; so [current > 60] reads 500
// string-values, not those of all |D| nodes with the root's (the whole
// document's text) among them. A step whose predicates depend on cp/cs
// loops over the previous context nodes in χ⁻¹(Y) only, the kernel's
// own pair loop. The MinContext run is the kernel's judge (its
// JudgeStep, RankStep and Head), so whatever part of a predicate is not
// a bottom-up path is tabulated set-at-a-time. Everything else runs on
// MinContext, whose package comment states which of its paths are node
// sets and why that is the paper's Relev rule.
package wadler

import (
	"context"
	"repro/internal/evalutil"
	"repro/internal/mincontext"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Evaluator is the OptMinContext query processor. It holds nothing but
// its document: any number of goroutines may share one.
type Evaluator struct{ doc *xmltree.Document }

// New returns an OptMinContext evaluator for the document.
func New(d *xmltree.Document) *Evaluator { return &Evaluator{doc: d} }

// Evaluate implements Algorithm 11.1: a MinContext run in which every
// bottom-up location path is computed whole, set-at-a-time, when the run
// first needs its table.
func (ev *Evaluator) Evaluate(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	return ev.EvaluateContext(context.Background(), e, c)
}

// EvaluateContext is Evaluate with cancellation: the backward
// propagation of the bottom-up paths and the rest of the MinContext run
// check ctx at throttled checkpoints and abandon the evaluation with
// ctx's error once it is done.
func (ev *Evaluator) EvaluateContext(ctx context.Context, e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	return evalutil.Evaluate(ctx, ev.doc, func(ar *xmltree.Arena, cancel *evalutil.Canceller) (semantics.Value, error) {
		run, err := ev.Begin(ar, cancel, e)
		if err != nil {
			return semantics.Value{}, err
		}
		return run.Evaluate(c)
	})
}

// Begin starts an OptMinContext evaluation of e in the arena ar, with the
// checkpoint cancel: a MinContext run handed the bottom-up test.
func (ev *Evaluator) Begin(ar *xmltree.Arena, cancel *evalutil.Canceller, e xpath.Expr) (*mincontext.Run, error) {
	return mincontext.New(ev.doc).Begin(ar, cancel, e, bottomUp)
}

// ------------------------------------------------------------------
// Fragment membership
// ------------------------------------------------------------------

// prohibited are the data-selecting functions of Restriction 1.
var prohibited = map[string]bool{
	"local-name": true, "namespace-uri": true, "name": true,
	"string": true, "number": true, "string-length": true,
	"normalize-space": true,
}

// InFragment reports whether a normalized query lies in the Extended
// Wadler Fragment. The query as a whole must be a location path, or a
// scalar expression whose node-set parts all occur as bottom-up
// location paths.
func InFragment(e xpath.Expr) bool {
	return pathInFragment(e) || scalarInFragment(e)
}

// pathInFragment checks a location path of the fragment, which backward
// propagation evaluates: any axes, any node tests, fragment predicates,
// and an id-chain head at most; or a bare id chain, or a union of such
// paths. The context-independent node-set operand of a comparison (an
// absolute fragment path or an id chain over a constant) is held to the
// same.
func pathInFragment(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Binary:
		return x.Op == xpath.OpUnion && pathInFragment(x.Left) && pathInFragment(x.Right)
	case *xpath.Call:
		return idHeadOK(x)
	case *xpath.Path:
		if x.Filter != nil && !idHeadOK(x.Filter) {
			return false
		}
		for _, s := range x.Steps {
			for _, p := range s.Preds {
				if !scalarInFragment(p) {
					return false
				}
			}
		}
		return true
	default:
		return false
	}
}

// idHeadOK checks Restriction 3 for id(id(…(x)…)) heads: the innermost
// argument is either context independent or a fragment path.
func idHeadOK(e xpath.Expr) bool {
	c, ok := e.(*xpath.Call)
	if !ok || c.Name != "id" {
		return false
	}
	switch a := c.Args[0].(type) {
	case *xpath.Call:
		if a.Name == "id" {
			return idHeadOK(a)
		}
		return xpath.RelevantContext(a) == 0 && scalarInFragment(a)
	case *xpath.Path:
		return pathInFragment(a)
	default:
		return xpath.RelevantContext(a) == 0
	}
}

// scalarInFragment checks a scalar (non-node-set) expression: node sets
// may occur only under boolean(π) or as π RelOp c / c RelOp π with a
// context-independent c.
func scalarInFragment(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Number, *xpath.Literal:
		return true
	case *xpath.Negate:
		return scalarInFragment(x.X)
	case *xpath.Binary:
		if x.Op == xpath.OpUnion {
			return false // node set in scalar position
		}
		if x.Op.IsRelOp() {
			ln, rn := x.Left.Type() == xpath.TypeNodeSet, x.Right.Type() == xpath.TypeNodeSet
			switch {
			case ln && rn:
				// nset RelOp nset: only with one side context free
				// (the appendix handles that case; Restriction 2
				// forbids both sides context dependent).
				return (xpath.RelevantContext(x.Left) == 0 || xpath.RelevantContext(x.Right) == 0) &&
					pathInFragment(x.Left) && pathInFragment(x.Right)
			case ln:
				return pathInFragment(x.Left) && xpath.RelevantContext(x.Right) == 0 && scalarInFragment(x.Right)
			case rn:
				return pathInFragment(x.Right) && xpath.RelevantContext(x.Left) == 0 && scalarInFragment(x.Left)
			}
		}
		return scalarInFragment(x.Left) && scalarInFragment(x.Right)
	case *xpath.Call:
		if prohibited[x.Name] {
			return false
		}
		switch x.Name {
		case "count", "sum":
			return false // Restriction 2
		case "boolean":
			if x.Args[0].Type() == xpath.TypeNodeSet {
				return pathInFragment(x.Args[0])
			}
			return scalarInFragment(x.Args[0])
		case "id":
			return false // node set in scalar position
		case "lang":
			return false // reads document data from the context node
		}
		for _, a := range x.Args {
			if a.Type() == xpath.TypeNodeSet {
				return false
			}
			if !scalarInFragment(a) {
				return false
			}
		}
		return true
	case *xpath.Path, *xpath.FilterExpr:
		return false // node set in scalar position
	default:
		return false
	}
}

// ------------------------------------------------------------------
// Bottom-up location paths (Algorithm 11.1, step 1)
// ------------------------------------------------------------------

// bottomUp is the test the MinContext run puts to a node of the query,
// once, when it first needs the node's table: whether the run computes
// the node's whole dom → bool table at once (fillBottomUp). Those nodes
// are the bottom-up location paths — boolean(π) with π a fragment path
// or a union of them, and π RelOp c with π context dependent and c
// context free — and Section 10's E1 compositions of them: and, or, not
// and boolean of operands that are bottom-up themselves or context
// free, true(), false() and the four XSLT'98 unary predicates.
func bottomUp(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Call:
		switch x.Name {
		case "boolean":
			if x.Args[0].Type() == xpath.TypeNodeSet {
				return pathInFragment(x.Args[0])
			}
			return composable(x.Args[0])
		case "not":
			return composable(x.Args[0])
		case "true", "false", "first-of-any", "last-of-any", "first-of-type", "last-of-type":
			return true
		}
	case *xpath.Binary:
		if x.Op == xpath.OpAnd || x.Op == xpath.OpOr {
			return composable(x.Left) && composable(x.Right)
		}
		if !x.Op.IsRelOp() {
			return false
		}
		ln := x.Left.Type() == xpath.TypeNodeSet && xpath.RelevantContext(x.Left) != 0
		rn := x.Right.Type() == xpath.TypeNodeSet && xpath.RelevantContext(x.Right) != 0
		switch {
		case ln && !rn && xpath.RelevantContext(x.Right) == 0:
			return pathInFragment(x.Left)
		case rn && !ln && xpath.RelevantContext(x.Left) == 0:
			return pathInFragment(x.Right)
		}
	}
	return false
}

// composable reports whether e can be an operand of a bottom-up and,
// or, not or boolean: bottom-up itself, or context free, one value the
// run computes once.
func composable(e xpath.Expr) bool {
	return xpath.RelevantContext(e) == 0 || bottomUp(e)
}
