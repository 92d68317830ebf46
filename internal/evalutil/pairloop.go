package evalutil

import (
	"repro/internal/axes"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Helpers for the loops over ⟨previous, current⟩ context-node pairs that
// the context-value-table engines (MinContext, OptMinContext) run for
// predicates depending on position() or last(): which previous context
// nodes are worth visiting, one node's candidate list without a fresh
// allocation, and the rank-and-filter pass over it. Both packages share
// this one copy.

// StepCandidatesInto is StepCandidates appending into dst[:0], so a loop
// over previous context nodes reuses one buffer. For child::name the
// candidates are the name's posting-list slice over x's subtree interval
// restricted to x's direct children (axes.EvalNamedInto), already in
// document order: position() is the rank in that scan and last() its
// length, with nothing sorted or intersected.
func StepCandidatesInto(d *xmltree.Document, a axes.Axis, t xpath.NodeTest, x xmltree.NodeID, dst xmltree.NodeSet) xmltree.NodeSet {
	one := [1]xmltree.NodeID{x}
	if ExactElementName(a, t) {
		return axes.EvalNamedInto(d, a, one[:], t.Name, dst)
	}
	return filterOwned(d, a, t, axes.EvalInto(d, a, one[:], dst))
}

// ContextsReaching restricts the previous context nodes xs of a step
// χ::t to those that can have a candidate in ys: xs ∩ χ⁻¹(ys). A pair
// loop need not visit the others, their candidate lists are empty — for
// //item[position() mod 2 = 0] that is three region elements instead of
// every node of the document. The typed inverse axes never return
// attribute or namespace nodes, so such members of xs are kept
// unconditionally: the result may only err towards visiting a node in
// vain. A single context node is returned as is, its one candidate
// computation being cheaper than the inverse.
func ContextsReaching(d *xmltree.Document, a axes.Axis, xs, ys xmltree.NodeSet) xmltree.NodeSet {
	if len(xs) <= 1 {
		return xs
	}
	inv := axes.EvalInverse(d, a, ys)
	out := make(xmltree.NodeSet, 0, min(len(xs), len(inv)))
	j := 0
	for _, x := range xs {
		for j < len(inv) && inv[j] < x {
			j++
		}
		if (j < len(inv) && inv[j] == x) || d.Node(x).IsAttrOrNS() {
			out = append(out, x)
		}
	}
	return out
}

// PredEval evaluates a predicate at one context ⟨node, position, size⟩;
// MinContext reads its tables, OptMinContext its bottom-up results.
type PredEval func(pred xpath.Expr, c semantics.Context) (semantics.Value, error)

// RankedCandidates is the body of a loop over pairs ⟨x, z⟩: the
// candidates of one previous context node x (StepCandidatesInto, into
// buf), filtered by the step's predicates in turn, each predicate
// seeing the survivors of the one before it at their positions. The
// result reuses buf's array; hand it back as buf for the next x.
func RankedCandidates(d *xmltree.Document, step *xpath.Step, x xmltree.NodeID, buf xmltree.NodeSet, cancel *Canceller, eval PredEval) (xmltree.NodeSet, error) {
	z := StepCandidatesInto(d, step.Axis, step.Test, x, buf)
	for _, pred := range step.Preds {
		if err := cancel.CheckN(len(z) + 1); err != nil {
			return nil, err
		}
		var err error
		if z, err = FilterPositions(step.Axis, pred, z, z[:0], eval); err != nil {
			return nil, err
		}
	}
	return z, nil
}

// FilterPositions evaluates one predicate over the candidate list z of a
// single previous context node (document order), at each member's
// position with respect to <doc,χ — counted from the end for reverse
// axes — with the list's length as context size. Survivors are appended
// to dst in document order; dst = z[:0] filters in place when the caller
// owns z.
func FilterPositions(a axes.Axis, pred xpath.Expr, z, dst xmltree.NodeSet, eval PredEval) (xmltree.NodeSet, error) {
	size, reverse := len(z), a.IsReverse()
	for j, zn := range z {
		pos := j + 1
		if reverse {
			pos = size - j
		}
		v, err := eval(pred, semantics.Context{Node: zn, Pos: pos, Size: size})
		if err != nil {
			return nil, err
		}
		if semantics.ToBoolean(v) {
			dst = append(dst, zn)
		}
	}
	return dst, nil
}
