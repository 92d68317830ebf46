// Package xpatterns implements the XPatterns language of Section 10.2:
// the smallest language subsuming Core XPath and the XSLT Patterns of
// the December 1998 draft (minus first-of-type/last-of-type, which XPath
// cannot express) that is syntactically contained in XPath. XPatterns
// extends Core XPath with:
//
//   - the "id" axis (Theorem 10.7), realized through the document's
//     precomputed ref relation, in both directions;
//   - the "=s" unary predicates of Table VI: comparisons of a path's
//     target with a constant string or number, propagated backwards from
//     the precomputed extension {y | strval(y) = s};
//   - the remaining Table VI unary predicates (@n, @*, text(),
//     comment(), pi(n), first-of-any, last-of-any) — the attribute and
//     kind tests arrive naturally through the step grammar, and
//     first-of-any/last-of-any (plus the XSLT'98-only first-of-type and
//     last-of-type) are exposed as precomputed node sets.
//
// Everything remains O(|D|·|Q|) (Theorem 10.8).
package xpatterns

import (
	"context"
	"fmt"

	"repro/internal/axes"
	"repro/internal/evalutil"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Evaluator evaluates XPatterns queries over one document.
type Evaluator struct {
	doc *xmltree.Document

	// cancel is the throttled cancellation checkpoint billed once per
	// O(|D|) set operation or document scan; nil (the Evaluate path)
	// never fires.
	cancel *evalutil.Canceller
}

// New returns an XPatterns evaluator for the document.
func New(d *xmltree.Document) *Evaluator {
	return &Evaluator{doc: d}
}

// InFragment reports whether a normalized query is an XPatterns query.
func InFragment(e xpath.Expr) bool { return isPattern(e) }

func isPattern(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Path:
		if x.Filter != nil && !isIDHead(x.Filter) {
			return false
		}
		for _, s := range x.Steps {
			for _, p := range s.Preds {
				if !isPatternPred(p) {
					return false
				}
			}
		}
		return true
	case *xpath.Binary:
		return x.Op == xpath.OpUnion && isPattern(x.Left) && isPattern(x.Right)
	case *xpath.Call:
		// A bare id('c') or id(π) query.
		return isIDHead(e)
	default:
		return false
	}
}

// isIDHead recognizes id(c) and id(π) heads, possibly nested
// (id(id(…))), where the innermost argument is a constant string or an
// XPatterns path.
func isIDHead(e xpath.Expr) bool {
	c, ok := e.(*xpath.Call)
	if !ok || c.Name != "id" || len(c.Args) != 1 {
		return false
	}
	switch a := c.Args[0].(type) {
	case *xpath.Literal:
		return true
	case *xpath.Call:
		return isIDHead(a)
	default:
		return isPattern(a)
	}
}

func isPatternPred(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Binary:
		switch x.Op {
		case xpath.OpAnd, xpath.OpOr:
			return isPatternPred(x.Left) && isPatternPred(x.Right)
		case xpath.OpEq:
			// The "=s" unary predicate: path = constant (either side).
			return isEqS(x.Left, x.Right) || isEqS(x.Right, x.Left)
		default:
			return false
		}
	case *xpath.Call:
		switch x.Name {
		case "not", "boolean":
			if isPatternPred(x.Args[0]) {
				return true
			}
			return isPattern(x.Args[0])
		case "true", "false",
			"first-of-any", "last-of-any", "first-of-type", "last-of-type":
			return true
		}
		return false
	case *xpath.Path:
		return isPattern(e)
	default:
		return false
	}
}

func isEqS(pathSide, constSide xpath.Expr) bool {
	switch constSide.(type) {
	case *xpath.Literal, *xpath.Number:
	default:
		return false
	}
	// eqS searches the nodes one path can end in: a union or a bare
	// id(…) on this side is left to the general engines.
	_, isPath := pathSide.(*xpath.Path)
	return isPath && isPattern(pathSide)
}

// Evaluate computes the query for a single context node.
func (ev *Evaluator) Evaluate(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	return ev.EvaluateContext(context.Background(), e, c)
}

// EvaluateContext is Evaluate with cancellation: every O(|D|) set
// operation and document scan bills a throttled checkpoint, so the
// evaluation is abandoned with ctx's error promptly once ctx is done.
func (ev *Evaluator) EvaluateContext(ctx context.Context, e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	ev.cancel = evalutil.NewCanceller(ctx)
	s, err := ev.EvaluateSet(e, xmltree.NodeSet{c.Node})
	if err != nil {
		return semantics.Value{}, err
	}
	return semantics.NodeSet(s), nil
}

// checkpoint bills one whole-document operation against the
// cancellation checkpoint.
func (ev *Evaluator) checkpoint() error {
	return ev.cancel.CheckN(ev.doc.Len())
}

// EvaluateSet computes the forward semantics S→ extended with the id
// axis for a set of context nodes.
func (ev *Evaluator) EvaluateSet(e xpath.Expr, n0 xmltree.NodeSet) (xmltree.NodeSet, error) {
	switch x := e.(type) {
	case *xpath.Binary:
		if x.Op != xpath.OpUnion {
			return nil, fmt.Errorf("xpatterns: not an XPatterns query: %s", e)
		}
		l, err := ev.EvaluateSet(x.Left, n0)
		if err != nil {
			return nil, err
		}
		r, err := ev.EvaluateSet(x.Right, n0)
		if err != nil {
			return nil, err
		}
		return l.Union(r), nil
	case *xpath.Call:
		return ev.evalIDHead(x, n0)
	case *xpath.Path:
		cur := n0
		if x.Filter != nil {
			head, err := ev.evalIDHead(x.Filter, n0)
			if err != nil {
				return nil, err
			}
			cur = head
		} else if x.Absolute {
			cur = xmltree.NodeSet{ev.doc.RootID()}
		}
		for _, step := range x.Steps {
			if err := ev.checkpoint(); err != nil {
				return nil, err
			}
			cur = evalutil.StepCandidatesSet(ev.doc, step.Axis, step.Test, cur)
			for _, p := range step.Preds {
				e1, err := ev.e1(p)
				if err != nil {
					return nil, err
				}
				cur = cur.Intersect(e1)
			}
		}
		return cur, nil
	default:
		return nil, fmt.Errorf("xpatterns: not an XPatterns query: %s", e)
	}
}

// evalIDHead evaluates an id(…) head: π1/id(π2)/π3 is treated as
// π1/π2/id/π3 (Lemma 10.6), and id('c') starts from the constant's
// extension.
func (ev *Evaluator) evalIDHead(e xpath.Expr, n0 xmltree.NodeSet) (xmltree.NodeSet, error) {
	c, ok := e.(*xpath.Call)
	if !ok || c.Name != "id" {
		return nil, fmt.Errorf("xpatterns: unsupported path head %s", e)
	}
	switch a := c.Args[0].(type) {
	case *xpath.Literal:
		return ev.doc.DerefIDs(a.Val), nil
	case *xpath.Call:
		inner, err := ev.evalIDHead(a, n0)
		if err != nil {
			return nil, err
		}
		return axes.EvalID(ev.doc, inner), nil
	default:
		inner, err := ev.EvaluateSet(a, n0)
		if err != nil {
			return nil, err
		}
		return axes.EvalID(ev.doc, inner), nil
	}
}

// dom materializes the full node set — an O(|D|) fill billed against
// the cancellation checkpoint like every other whole-document
// operation.
func (ev *Evaluator) dom() (xmltree.NodeSet, error) {
	if err := ev.checkpoint(); err != nil {
		return nil, err
	}
	s := make(xmltree.NodeSet, ev.doc.Len())
	for i := range s {
		s[i] = xmltree.NodeID(i)
	}
	return s, nil
}

// e1 computes the extension of an XPatterns predicate.
func (ev *Evaluator) e1(e xpath.Expr) (xmltree.NodeSet, error) {
	if err := ev.checkpoint(); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case *xpath.Binary:
		switch x.Op {
		case xpath.OpAnd, xpath.OpOr, xpath.OpUnion: // boolean(π1 | π2) is boolean(π1) or boolean(π2)
			l, err := ev.e1(x.Left)
			if err != nil {
				return nil, err
			}
			r, err := ev.e1(x.Right)
			if err != nil {
				return nil, err
			}
			if x.Op == xpath.OpAnd {
				return l.Intersect(r), nil
			}
			return l.Union(r), nil
		case xpath.OpEq:
			if isEqS(x.Left, x.Right) {
				return ev.eqS(x.Left, x.Right)
			}
			if isEqS(x.Right, x.Left) {
				return ev.eqS(x.Right, x.Left)
			}
			return nil, fmt.Errorf("xpatterns: comparison %s not in fragment", e)
		default:
			return nil, fmt.Errorf("xpatterns: operator %v not in fragment", x.Op)
		}
	case *xpath.Call:
		switch x.Name {
		case "not":
			inner, err := ev.e1(x.Args[0])
			if err != nil {
				return nil, err
			}
			d, err := ev.dom()
			if err != nil {
				return nil, err
			}
			return d.Minus(inner), nil
		case "boolean":
			return ev.e1(x.Args[0])
		case "true":
			return ev.dom()
		case "false":
			return nil, nil
		case "id":
			// Existential id(…) head inside a predicate.
			d, err := ev.dom()
			if err != nil {
				return nil, err
			}
			return ev.sBackIDHead(x, d)
		default:
			s, ok, err := ev.unaryPredicateSet(x.Name)
			if err != nil {
				return nil, err
			}
			if ok {
				return s, nil
			}
			return nil, fmt.Errorf("xpatterns: function %s not in fragment", x.Name)
		}
	case *xpath.Path:
		// Existence: from every node the path can end in.
		targets, err := ev.pathTargets(x)
		if err != nil {
			return nil, err
		}
		return ev.sBack(x, targets)
	default:
		return nil, fmt.Errorf("xpatterns: predicate %s not in fragment", e)
	}
}

// eqS computes the extension of [π = c]: the nodes from which π reaches
// a node whose string value equals the constant. The "=s" unary
// predicate of Table VI, "computed using string search in the document",
// is searched for among the nodes π can end in — T(t) of its last step —
// rather than all of dom, so no interior element's string-value is ever
// built for it. No node carrying the constant makes the target set
// empty and the extension with it; it does not make the comparison
// vanish.
func (ev *Evaluator) eqS(pathSide, constSide xpath.Expr) (xmltree.NodeSet, error) {
	p, ok := pathSide.(*xpath.Path)
	if !ok {
		return nil, fmt.Errorf("xpatterns: comparison lhs %s not a path", pathSide)
	}
	var equals func(strval string) bool
	switch c := constSide.(type) {
	case *xpath.Literal:
		equals = func(strval string) bool { return strval == c.Val }
	case *xpath.Number:
		equals = func(strval string) bool { return semantics.StringToNumber(strval) == c.Val }
	default:
		return nil, fmt.Errorf("xpatterns: non-constant comparison %s", constSide)
	}
	targets, err := ev.pathTargets(p)
	if err != nil {
		return nil, err
	}
	if err := ev.cancel.CheckN(len(targets)); err != nil {
		return nil, err
	}
	var hits xmltree.NodeSet
	for _, y := range targets {
		if equals(ev.doc.StringValue(y)) {
			hits = append(hits, y)
		}
	}
	return ev.sBack(p, hits)
}

// pathTargets returns the nodes a path can end in: T(t) of its last
// step — the label index's posting list for an exact element name,
// which is shared and only read — or dom for a path without steps.
func (ev *Evaluator) pathTargets(p *xpath.Path) (xmltree.NodeSet, error) {
	if len(p.Steps) == 0 {
		return ev.dom()
	}
	last := p.Steps[len(p.Steps)-1]
	if evalutil.ExactElementName(last.Axis, last.Test) {
		return ev.doc.Index().Named(last.Test.Name), nil
	}
	d, err := ev.dom()
	if err != nil {
		return nil, err
	}
	return evalutil.FilterTest(ev.doc, last.Axis, last.Test, d), nil
}

// sBack propagates the node set from backwards through a path: it
// computes the nodes from which π reaches a member of from. S←[[π]]
// (existence) is sBack(π, pathTargets(π)); the "=s" predicates start
// from the targets that carry the constant. An empty set is empty — a
// start set is never implied.
func (ev *Evaluator) sBack(p *xpath.Path, from xmltree.NodeSet) (xmltree.NodeSet, error) {
	cur := from
	for i := len(p.Steps) - 1; i >= 0 && len(cur) > 0; i-- {
		if err := ev.checkpoint(); err != nil {
			return nil, err
		}
		step := p.Steps[i]
		s := evalutil.FilterTest(ev.doc, step.Axis, step.Test, cur)
		for _, pr := range step.Preds {
			e1, err := ev.e1(pr)
			if err != nil {
				return nil, err
			}
			s = s.Intersect(e1)
		}
		cur = axes.EvalInverse(ev.doc, step.Axis, s)
	}
	if len(cur) == 0 {
		return nil, nil
	}
	if p.Filter != nil {
		return ev.sBackIDHead(p.Filter, cur)
	}
	if p.Absolute {
		if cur.Contains(ev.doc.RootID()) {
			return ev.dom()
		}
		return nil, nil
	}
	return cur, nil
}

// sBackIDHead propagates a backward set through an id(…) head: for
// id('c') the result is context-independent (dom or ∅); for id(π) the
// propagation continues through id⁻¹ and then π.
func (ev *Evaluator) sBackIDHead(e xpath.Expr, cur xmltree.NodeSet) (xmltree.NodeSet, error) {
	c, ok := e.(*xpath.Call)
	if !ok || c.Name != "id" {
		return nil, fmt.Errorf("xpatterns: unsupported path head %s", e)
	}
	switch a := c.Args[0].(type) {
	case *xpath.Literal:
		if !xmltree.NodeSet(ev.doc.DerefIDs(a.Val)).Intersect(cur).IsEmpty() {
			return ev.dom()
		}
		return nil, nil
	case *xpath.Call:
		back := axes.EvalIDInverse(ev.doc, cur)
		return ev.sBackIDHead(a, back)
	case *xpath.Path:
		back := axes.EvalIDInverse(ev.doc, cur)
		return ev.sBack(a, back)
	default:
		return nil, fmt.Errorf("xpatterns: unsupported id argument %s", a)
	}
}

// ------------------------------------------------------------------
// XSLT'98 unary predicates (Table VI / Theorem 10.8)
// ------------------------------------------------------------------

// FirstOfAny returns {y ∈ dom | y has no preceding sibling}: the
// first-of-any unary predicate. Attribute and namespace nodes are not
// part of the sibling order here.
func (ev *Evaluator) FirstOfAny() (xmltree.NodeSet, error) {
	return ev.siblingBoundary(true, nil)
}

// LastOfAny returns {x ∈ dom | x has no following sibling}.
func (ev *Evaluator) LastOfAny() (xmltree.NodeSet, error) {
	return ev.siblingBoundary(false, nil)
}

// FirstOfType returns the first-of-type() predicate of Theorem 10.8:
// elements with no preceding sibling of the same name. Computable in
// O(|D|·|Σ|); this implementation is O(|D|) by scanning sibling lists.
func (ev *Evaluator) FirstOfType() (xmltree.NodeSet, error) {
	seen := map[string]bool{}
	return ev.siblingBoundary(true, seen)
}

// LastOfType returns elements with no following sibling of the same
// name.
func (ev *Evaluator) LastOfType() (xmltree.NodeSet, error) {
	seen := map[string]bool{}
	return ev.siblingBoundary(false, seen)
}

// siblingBoundary scans every sibling list once, considering element
// children only (the '98 draft's patterns address elements). With
// byType nil it marks the first (or last) element child of each parent;
// with a map it marks the first (or last) element child per tag name.
// Total work is O(|D|), realizing the Theorem 10.8 precomputation, and
// is billed as one whole-document operation.
func (ev *Evaluator) siblingBoundary(first bool, byType map[string]bool) (xmltree.NodeSet, error) {
	if err := ev.checkpoint(); err != nil {
		return nil, err
	}
	var out []xmltree.NodeID
	for i := 0; i < ev.doc.Len(); i++ {
		p := xmltree.NodeID(i)
		ty := ev.doc.Type(p)
		if ty != xmltree.Element && ty != xmltree.Root {
			continue
		}
		var kids []xmltree.NodeID
		for _, k := range ev.doc.Children(p) {
			if ev.doc.Type(k) == xmltree.Element {
				kids = append(kids, k)
			}
		}
		if len(kids) == 0 {
			continue
		}
		if byType == nil {
			if first {
				out = append(out, kids[0])
			} else {
				out = append(out, kids[len(kids)-1])
			}
			continue
		}
		// Per-type boundaries: scan forward (or backward) remembering
		// which names were already seen among these siblings.
		for k := range byType {
			delete(byType, k)
		}
		idxs := make([]int, len(kids))
		for j := range kids {
			idxs[j] = j
		}
		if !first {
			for l, r := 0, len(idxs)-1; l < r; l, r = l+1, r-1 {
				idxs[l], idxs[r] = idxs[r], idxs[l]
			}
		}
		for _, j := range idxs {
			k := kids[j]
			name := ev.doc.Name(k)
			if !byType[name] {
				byType[name] = true
				out = append(out, k)
			}
		}
	}
	return xmltree.NewNodeSet(out...), nil
}

// unaryPredicateSet resolves an XSLT'98 predicate function name to its
// precomputed extension.
func (ev *Evaluator) unaryPredicateSet(name string) (xmltree.NodeSet, bool, error) {
	var s xmltree.NodeSet
	var err error
	switch name {
	case "first-of-any":
		s, err = ev.FirstOfAny()
	case "last-of-any":
		s, err = ev.LastOfAny()
	case "first-of-type":
		s, err = ev.FirstOfType()
	case "last-of-type":
		s, err = ev.LastOfType()
	default:
		return nil, false, nil
	}
	return s, true, err
}
