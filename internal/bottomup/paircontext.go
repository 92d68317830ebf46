package bottomup

import (
	"fmt"

	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// PairEvaluator is the Remark 6.7 refinement of the bottom-up
// algorithm: contexts are represented as pairs ⟨previous, current⟩ of
// context nodes instead of ⟨node, position, size⟩ triples. The position
// and size of a pair are recovered on demand relative to the axis and
// node test that produced it:
//
//	⟨x0, x⟩ w.r.t. χ::t  ↦  ⟨x, idx_χ(x, Y), |Y|⟩,  Y = {y | x0 χ y, y ∈ T(t)}
//
// This pushes the maximum number of rows per context-value table from
// O(|D|³) to O(|D|²), improving the bounds of Theorem 6.6 to
// O(|D|⁴·|Q|²) time and O(|D|³·|Q|²) space — the same bounds the
// top-down algorithm of Section 7 achieves.
//
// Tables here are materialized per location step while it is being
// filtered: for each step χ::t[e] the predicate e is evaluated over
// exactly the pair contexts the step generates, bottom-up (subexpression
// tables first). Expressions whose Relev excludes cp/cs collapse to
// per-node (or constant) tables exactly as in the plain evaluator.
type PairEvaluator struct {
	doc *xmltree.Document
	// PairsEvaluated counts the distinct ⟨previous, current⟩ pair
	// contexts materialized during the last Evaluate, exposing the
	// O(|D|²) bound for tests.
	PairsEvaluated int
}

// NewPair returns a Remark 6.7 evaluator for the document.
func NewPair(d *xmltree.Document) *PairEvaluator { return &PairEvaluator{doc: d} }

// Evaluate computes the query value for a context.
func (ev *PairEvaluator) Evaluate(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	ev.PairsEvaluated = 0
	return ev.eval(e, c)
}

// eval computes an expression for one concrete context. The bottom-up
// structure lives in the step relations, which are built whole before
// the enclosing expression consumes them; scalar operators evaluate
// pointwise.
func (ev *PairEvaluator) eval(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	switch x := e.(type) {
	case *xpath.Path:
		// The start — the head's value, the root or the context node —
		// composed with the relation of each step.
		rows := []xmltree.NodeSet{{c.Node}}
		switch {
		case x.Filter != nil:
			v, err := ev.eval(x.Filter, c)
			if err != nil {
				return semantics.Value{}, err
			}
			if v.Kind != xpath.TypeNodeSet {
				return semantics.Value{}, fmt.Errorf("bottomup: path head is not a node set")
			}
			rows[0] = v.Set
		case x.Absolute:
			rows[0] = xmltree.NodeSet{ev.doc.RootID()}
		}
		err := follow(ev.doc, nil, rows, x.Steps, ev.relation)
		return semantics.NodeSet(rows[0]), err
	case *xpath.FilterExpr:
		prim, err := ev.eval(x.Primary, c)
		if err != nil {
			return semantics.Value{}, err
		}
		return filter(prim, x.Preds, ev.pair)
	}
	var few [4]xpath.Expr
	ops := xpath.Operands(e, few[:0])
	args := make([]semantics.Value, len(ops))
	for i, o := range ops {
		v, err := ev.eval(o, c)
		if err != nil {
			return semantics.Value{}, err
		}
		args[i] = v
	}
	return semantics.Eval(ev.doc, nil, e, c, args)
}

// pair evaluates a predicate at the context ⟨y, idx, size⟩ a pair ⟨x, y⟩
// of the step that generates it stands for, and counts the pair.
func (ev *PairEvaluator) pair(pred xpath.Expr, c semantics.Context) (semantics.Value, error) {
	ev.PairsEvaluated++
	return ev.eval(pred, c)
}

// relation builds {⟨x, y⟩ | x χ y, y ∈ T(t), predicates hold} with
// predicate contexts being exactly the pairs the step generates: the
// Remark 6.7 representation. Every pair is evaluated at most once.
func (ev *PairEvaluator) relation(step *xpath.Step) ([]xmltree.NodeSet, error) {
	return stepRelation(ev.doc, nil, step, ev.pair)
}
