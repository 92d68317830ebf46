package axes

import (
	"sort"

	"repro/internal/xmltree"
)

// EvalID computes the id pseudo-axis: id(S) is the set of nodes reachable
// from S and its descendants through the ref relation (Theorem 10.7):
//
//	id(S) = {y | x ∈ descendant-or-self(S), ⟨x,y⟩ ∈ ref}
//
// This runs in linear time.
func EvalID(d *xmltree.Document, s xmltree.NodeSet) xmltree.NodeSet {
	scope := Eval(d, DescendantOrSelf, s)
	var out []xmltree.NodeID
	for _, x := range scope {
		out = append(out, d.Ref(x)...)
	}
	return xmltree.NewNodeSet(out...)
}

// EvalIDInverse computes id⁻¹(S) (Theorem 10.7):
//
//	id⁻¹(S) = ancestor-or-self({x | ⟨x,y⟩ ∈ ref, y ∈ S})
func EvalIDInverse(d *xmltree.Document, s xmltree.NodeSet) xmltree.NodeSet {
	var srcs []xmltree.NodeID
	for _, y := range s {
		srcs = append(srcs, d.RefInv(y)...)
	}
	return Eval(d, AncestorOrSelf, xmltree.NewNodeSet(srcs...))
}

// Index returns idx_χ(x, S): the 1-based index of x within S with respect
// to <doc,χ — document order for forward axes, reverse document order for
// reverse axes (Section 4). S must be sorted in document order and
// contain x; the lookup is a binary search, as this sits on the
// position()-predicate hot path.
func Index(a Axis, x xmltree.NodeID, s xmltree.NodeSet) int {
	i := sort.Search(len(s), func(k int) bool { return s[k] >= x })
	if i == len(s) || s[i] != x {
		return 0
	}
	if a.IsReverse() {
		return len(s) - i
	}
	return i + 1
}
