// Package xpatterns holds the two languages of Section 10: Core XPath
// (Section 10.1, the "clean logical core" of XPath — location paths,
// existential path predicates, and/or/not) and XPatterns (Section 10.2,
// Core XPath plus the id axis, the "=s" predicates and the unary
// predicates of Table VI), whose queries run in O(|D|·|Q|) time
// (Theorems 10.5 and 10.8). XPatterns is Core XPath plus constructs, so
// the two languages are two admission checks over one classification
// pass (Classify, InCoreXPath, InFragment).
//
// The algebra of Section 10 is not written here:
//
//	E1[[e1 and e2]]    = E1[[e1]] ∩ E1[[e2]]
//	E1[[e1 or e2]]     = E1[[e1]] ∪ E1[[e2]]
//	E1[[not(e)]]       = dom − E1[[e]]
//	E1[[π]]            = S←[[π]] = {x | S→[[π]]({x}) ≠ ∅}            (Theorem 10.4)
//	E1[[π = s]]        = {x | S→[[π]]({x}) ∩ {y | strval(y) = s} ≠ ∅}
//	E1[[first-of-any()]] … one scan of the sibling lists (Theorem 10.8)
//
// is what the OptMinContext run (internal/wadler) computes, a whole
// table at a time, for every node Section 11's bottom-up test names —
// every predicate of a Core XPath or XPatterns query among them — with
// S→ and S← the kernels of internal/evalutil, id heads included (Lemma
// 10.6). The evaluator here is that run behind the fragment check, and
// Corollaries 11.4 and 11.5 are why it costs what Section 10 says.
//
// As a slight extension over Definition 10.2 (tag and * node tests) the
// kind tests node(), text(), comment() and processing-instruction() are
// accepted; they are unary predicates in the sense of Table VI.
package xpatterns

import (
	"context"
	"fmt"

	"repro/internal/axes"
	"repro/internal/evalutil"
	"repro/internal/semantics"
	"repro/internal/wadler"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Class is the smallest language of Section 10 a query lies in.
type Class uint8

const (
	CoreXPath Class = iota // Definition 10.2
	XPatterns              // Section 10.2
	Neither
)

// InCoreXPath reports whether a normalized query is a Core XPath query.
func InCoreXPath(e xpath.Expr) bool { return Classify(e) == CoreXPath }

// InFragment reports whether a normalized query is an XPatterns query;
// every Core XPath query is.
func InFragment(e xpath.Expr) bool { return Classify(e) <= XPatterns }

// Classify places a normalized query: a location path whose predicates
// are boolean combinations of existential paths (Core XPath), with id
// heads, path = constant comparisons and the XSLT'98 unary predicates
// besides (XPatterns), or a union of such paths.
func Classify(e xpath.Expr) Class {
	switch x := e.(type) {
	case *xpath.Path:
		c := CoreXPath
		if x.Filter != nil {
			c = idHead(x.Filter)
		}
		for _, s := range x.Steps {
			if s.Axis == axes.IDAxis {
				c = max(c, XPatterns)
			}
			for _, p := range s.Preds {
				c = max(c, classifyPred(p))
			}
		}
		return c
	case *xpath.Binary:
		if x.Op == xpath.OpUnion {
			return max(Classify(x.Left), Classify(x.Right))
		}
	case *xpath.Call:
		return idHead(x) // a bare id('c') or id(π) query
	}
	return Neither
}

// idHead recognizes id(c), id(π) and id(id(…)) heads.
func idHead(e xpath.Expr) Class {
	c, ok := e.(*xpath.Call)
	if !ok || c.Name != "id" || len(c.Args) != 1 {
		return Neither
	}
	if _, ok := c.Args[0].(*xpath.Literal); ok {
		return XPatterns
	}
	return max(XPatterns, Classify(c.Args[0]))
}

// classifyPred is the pred grammar of Definition 10.2 on the normalized
// AST, where a bare path predicate appears as boolean(π).
func classifyPred(e xpath.Expr) Class {
	switch x := e.(type) {
	case *xpath.Binary:
		switch x.Op {
		case xpath.OpAnd, xpath.OpOr:
			return max(classifyPred(x.Left), classifyPred(x.Right))
		case xpath.OpEq:
			if p, _ := eqS(x); p != nil {
				return max(XPatterns, Classify(p))
			}
			return Neither
		}
	case *xpath.Call:
		switch x.Name {
		case "not", "boolean":
			return classifyPred(x.Args[0])
		case "true", "false":
			return CoreXPath
		case "first-of-any", "last-of-any", "first-of-type", "last-of-type":
			return XPatterns
		}
	}
	return Classify(e)
}

// eqS splits the "=s" predicate π = constant (either side). The string
// search runs over the nodes one path can end in: a union or a bare
// id(…) on the path side puts the query outside XPatterns.
func eqS(b *xpath.Binary) (p *xpath.Path, c xpath.Expr) {
	for _, side := range [2][2]xpath.Expr{{b.Left, b.Right}, {b.Right, b.Left}} {
		switch side[1].(type) {
		case *xpath.Literal, *xpath.Number:
			if p, ok := side[0].(*xpath.Path); ok {
				return p, side[1]
			}
		}
	}
	return nil, nil
}

// Evaluator evaluates Core XPath and XPatterns queries over one
// document, on the OptMinContext run (internal/wadler). It holds nothing
// else: any number of goroutines may share one.
type Evaluator struct{ doc *xmltree.Document }

// New returns an evaluator for the document.
func New(d *xmltree.Document) *Evaluator { return &Evaluator{doc: d} }

// Evaluate computes the query for a single context node. A query outside
// the fragment is refused.
func (ev *Evaluator) Evaluate(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	return ev.EvaluateContext(context.Background(), e, c)
}

// EvaluateContext is Evaluate with cancellation: the run bills every
// O(|D|) set operation and document scan to a throttled checkpoint, so
// even a maliciously long query over a large document is abandoned with
// ctx's error promptly once ctx is done.
func (ev *Evaluator) EvaluateContext(ctx context.Context, e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	if !InFragment(e) {
		return semantics.Value{}, fmt.Errorf("xpatterns: query %s not in the XPatterns fragment", e)
	}
	return wadler.New(ev.doc).EvaluateContext(ctx, e, c)
}

// MatchSet computes the nodes matching a pattern in the XSLT-template
// sense — the original home of the XSLT Patterns language: n matches π
// iff some context node selects n via π (for an absolute pattern, the
// root does). One forward pass over all of dom, O(|D|·|Q|).
func (ev *Evaluator) MatchSet(e xpath.Expr) (xmltree.NodeSet, error) {
	return ev.MatchSetContext(context.Background(), e)
}

// MatchSetContext is MatchSet with cancellation.
func (ev *Evaluator) MatchSetContext(ctx context.Context, e xpath.Expr) (xmltree.NodeSet, error) {
	if !InFragment(e) {
		return nil, fmt.Errorf("xpatterns: pattern %s not in the XPatterns fragment", e)
	}
	v, err := evalutil.Evaluate(ctx, ev.doc, func(ar *xmltree.Arena, cancel *evalutil.Canceller) (semantics.Value, error) {
		run, err := wadler.New(ev.doc).Begin(ar, cancel, e)
		if err == nil {
			err = cancel.CheckN(ev.doc.Len())
		}
		if err != nil {
			return semantics.Value{}, err
		}
		dom := ar.Nodes(ev.doc.Len())
		for i := 0; i < ev.doc.Len(); i++ {
			dom = append(dom, xmltree.NodeID(i))
		}
		s, err := run.Image(dom)
		return semantics.NodeSet(s), err
	})
	return v.Set, err
}

// firstOfType is the query FirstOfType answers: every element with no
// preceding sibling of its name.
var firstOfType = xpath.Optimize(xpath.MustParse("//*[first-of-type()]"))

// FirstOfType returns the first-of-type() predicate of Theorem 10.8:
// elements with no preceding sibling of the same name. Computable in
// O(|D|·|Σ|); the run computes it in O(|D|) by scanning sibling lists.
// The four predicates are query functions too (first-of-any() and the
// rest).
func (ev *Evaluator) FirstOfType() (xmltree.NodeSet, error) {
	v, err := ev.Evaluate(firstOfType, semantics.Context{Node: ev.doc.RootID(), Pos: 1, Size: 1})
	return v.Set, err
}
