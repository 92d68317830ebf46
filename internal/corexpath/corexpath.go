// Package corexpath implements the Core XPath fragment of Section 10.1:
// the "clean logical core" of XPath manipulating only node sets, with
// full location-path power, existential path predicates, and boolean
// connectives — evaluated in O(|D|·|Q|) time (Theorem 10.5).
//
// A query is compiled to the paper's algebra over the operations
// ∩, ∪, −, χ (axis application), and dom_root, realized on node-set
// bitmaps so each operation costs O(|D|):
//
//	S→[[χ::t]](N0)    = χ(N0) ∩ T(t)          (forward, along the path)
//	S→[[π[e]]](N0)    = S→[[π]](N0) ∩ E1[[e]]
//	E1[[e1 and e2]]   = E1[[e1]] ∩ E1[[e2]]
//	E1[[e1 or e2]]    = E1[[e1]] ∪ E1[[e2]]
//	E1[[not(e)]]      = dom − E1[[e]]
//	E1[[π]]           = S←[[π]]               (backward, "exists" semantics)
//	S←[[χ::t[e]/π]]   = χ⁻¹(S←[[π]] ∩ T(t) ∩ E1[[e]])
//	S←[[/π]]          = dom_root(S←[[π]])
//
// As a slight extension over Definition 10.2 (which allows only tag and
// * node tests) the kind tests node(), text(), comment() and
// processing-instruction() are accepted; they are unary predicates in
// the sense of Table VI and preserve linear time.
package corexpath

import (
	"context"
	"fmt"

	"repro/internal/axes"
	"repro/internal/evalutil"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Evaluator evaluates Core XPath queries over one document.
type Evaluator struct {
	doc *xmltree.Document

	// cancel is the throttled cancellation checkpoint billed once per
	// set-algebra operation (each costs O(|D|)); nil (the Evaluate
	// path) never fires.
	cancel *evalutil.Canceller
}

// New returns a Core XPath evaluator for the document.
func New(d *xmltree.Document) *Evaluator { return &Evaluator{doc: d} }

// InFragment reports whether a normalized query lies in the Core XPath
// fragment: a location path (or a union of them) whose steps use only
// axes and node tests, and whose predicates are boolean combinations of
// existential location paths.
func InFragment(e xpath.Expr) bool {
	return isCXP(e)
}

func isCXP(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Path:
		if x.Filter != nil {
			return false
		}
		for _, s := range x.Steps {
			if s.Axis == axes.IDAxis {
				return false
			}
			for _, p := range s.Preds {
				if !isPred(p) {
					return false
				}
			}
		}
		return true
	case *xpath.Binary:
		// Unions of Core XPath paths remain linear-time.
		return x.Op == xpath.OpUnion && isCXP(x.Left) && isCXP(x.Right)
	default:
		return false
	}
}

// isPred recognizes the pred grammar of Definition 10.2 on the
// normalized AST, where a bare path predicate appears as boolean(π).
func isPred(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Binary:
		return (x.Op == xpath.OpAnd || x.Op == xpath.OpOr) && isPred(x.Left) && isPred(x.Right)
	case *xpath.Call:
		switch x.Name {
		case "not", "boolean":
			inner := x.Args[0]
			if isPred(inner) {
				return true
			}
			return isCXP(inner)
		case "true", "false":
			return true
		}
		return false
	case *xpath.Path:
		return isCXP(e)
	default:
		return false
	}
}

// Evaluate computes the query for a single context node using the
// linear-time algebra. The query must be in the fragment.
func (ev *Evaluator) Evaluate(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	return ev.EvaluateContext(context.Background(), e, c)
}

// EvaluateContext is Evaluate with cancellation: the set algebra bills
// each O(|D|) operation (axis application, intersection, document
// scan) against a throttled checkpoint and abandons the evaluation
// with ctx's error once it is done, so even maliciously long queries
// over large documents stop promptly.
func (ev *Evaluator) EvaluateContext(ctx context.Context, e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	ev.cancel = evalutil.NewCanceller(ctx)
	s, err := ev.EvaluateSet(e, xmltree.NodeSet{c.Node})
	if err != nil {
		return semantics.Value{}, err
	}
	return semantics.NodeSet(s), nil
}

// checkpoint bills one whole-document set operation against the
// cancellation checkpoint.
func (ev *Evaluator) checkpoint() error {
	return ev.cancel.CheckN(ev.doc.Len())
}

// EvaluateSet computes S→[[π]](N0) for a set of context nodes.
func (ev *Evaluator) EvaluateSet(e xpath.Expr, n0 xmltree.NodeSet) (xmltree.NodeSet, error) {
	switch x := e.(type) {
	case *xpath.Binary:
		if x.Op != xpath.OpUnion {
			return nil, fmt.Errorf("corexpath: not a Core XPath query: %s", e)
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
	case *xpath.Path:
		cur := n0
		if x.Absolute {
			cur = xmltree.NodeSet{ev.doc.RootID()}
		}
		for _, step := range x.Steps {
			if err := ev.checkpoint(); err != nil {
				return nil, err
			}
			// S→[[π/χ::t[e]]](N0) = χ(S→[[π]](N0)) ∩ T(t) ∩ E1[[e]].
			cur = evalutil.StepCandidatesSet(ev.doc, step.Axis, step.Test, cur)
			for _, p := range step.Preds {
				e1, err := ev.e1(p)
				if err != nil {
					return nil, err
				}
				// In-place filter of cur by the predicate bitset.
				cur = e1.IntersectSet(cur, cur[:0])
			}
		}
		return cur, nil
	default:
		return nil, fmt.Errorf("corexpath: not a Core XPath query: %s", e)
	}
}

// e1 computes E1[[e]]: the set of nodes at which the predicate holds,
// as a packed bitset so the boolean connectives of Definition 10.2 run
// word-parallel (64 nodes per machine word) instead of as sorted
// merges.
func (ev *Evaluator) e1(e xpath.Expr) (*xmltree.Bitset, error) {
	if err := ev.checkpoint(); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case *xpath.Binary:
		l, err := ev.e1(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := ev.e1(x.Right)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case xpath.OpAnd:
			l.IntersectWith(r)
			return l, nil
		case xpath.OpOr, xpath.OpUnion:
			// boolean(π1 | π2) holds where either path selects a node.
			l.UnionWith(r)
			return l, nil
		default:
			return nil, fmt.Errorf("corexpath: operator %v not in fragment", x.Op)
		}
	case *xpath.Call:
		switch x.Name {
		case "not":
			inner, err := ev.e1(x.Args[0])
			if err != nil {
				return nil, err
			}
			inner.Complement()
			return inner, nil
		case "boolean":
			return ev.e1(x.Args[0])
		case "true":
			b := xmltree.NewBitset(ev.doc.Len())
			b.Fill()
			return b, nil
		case "false":
			return xmltree.NewBitset(ev.doc.Len()), nil
		default:
			return nil, fmt.Errorf("corexpath: function %s not in fragment", x.Name)
		}
	case *xpath.Path:
		return ev.sBack(x)
	default:
		return nil, fmt.Errorf("corexpath: predicate %s not in fragment", e)
	}
}

// testSet returns T(t) under the axis's principal node type over the
// whole document: the starting set of a backward pass. Exact element
// name tests are answered by the label index in O(matches); other tests
// scan dom once — billed as one whole-document operation so a scan
// over a large document stays cancellable.
func (ev *Evaluator) testSet(a axes.Axis, t xpath.NodeTest) (xmltree.NodeSet, error) {
	if err := ev.checkpoint(); err != nil {
		return nil, err
	}
	if evalutil.ExactElementName(a, t) {
		// Copy: callers filter the set in place.
		return append(xmltree.NodeSet(nil), ev.doc.Index().Named(t.Name)...), nil
	}
	principal := a.PrincipalType()
	var out xmltree.NodeSet
	for i := 0; i < ev.doc.Len(); i++ {
		if t.Matches(ev.doc, principal, xmltree.NodeID(i)) {
			out = append(out, xmltree.NodeID(i))
		}
	}
	return out, nil
}

// sBack computes S←[[π]] = {x | S↓[[π]]({x}) ≠ ∅}: backward propagation
// through the inverted steps (Theorem 10.4 gives the equivalence with
// the standard semantics). The result is a bitset for the predicate
// algebra above.
func (ev *Evaluator) sBack(p *xpath.Path) (*xmltree.Bitset, error) {
	if len(p.Steps) == 0 {
		// A bare path with no steps reaches every context (for an
		// absolute path the root trivially reaches itself): dom.
		out := xmltree.NewBitset(ev.doc.Len())
		out.Fill()
		return out, nil
	}
	// Start with the final step's node-test set intersected with its
	// predicates, then walk backwards.
	var cur xmltree.NodeSet
	for i := len(p.Steps) - 1; i >= 0; i-- {
		if err := ev.checkpoint(); err != nil {
			return nil, err
		}
		step := p.Steps[i]
		// cur' = χ⁻¹(cur ∩ T(t) ∩ E1[[e1]] ∩ … ∩ E1[[em]])
		var s xmltree.NodeSet
		if i == len(p.Steps)-1 {
			var err error
			s, err = ev.testSet(step.Axis, step.Test)
			if err != nil {
				return nil, err
			}
		} else {
			if err := ev.cancel.CheckN(len(cur)); err != nil {
				return nil, err
			}
			s = evalutil.FilterTest(ev.doc, step.Axis, step.Test, cur)
		}
		for _, pr := range step.Preds {
			e1, err := ev.e1(pr)
			if err != nil {
				return nil, err
			}
			s = e1.IntersectSet(s, s[:0])
		}
		if err := ev.cancel.CheckN(len(s)); err != nil {
			return nil, err
		}
		cur = axes.EvalInverse(ev.doc, step.Axis, s)
	}
	out := xmltree.NewBitset(ev.doc.Len())
	if p.Absolute {
		// dom_root(S): dom if the root can reach the path, ∅ otherwise.
		if cur.Contains(ev.doc.RootID()) {
			out.Fill()
		}
		return out, nil
	}
	out.AddSet(cur)
	return out, nil
}
