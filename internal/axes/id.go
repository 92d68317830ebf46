package axes

import (
	"sort"

	"repro/internal/xmltree"
)

// EvalID computes the id pseudo-axis through the ref relation of
// Theorem 10.7, which holds an element's direct text and any other
// node's own data (its string-value), in linear time:
//
//	id(S) = {y | x ∈ descendant-or-self(S) an element, ⟨x,y⟩ ∈ ref}
//	      ∪ {y | x ∈ S not an element, ⟨x,y⟩ ∈ ref}
//
// A text node below a member counts through its element: <a>22<b/>23</a>
// names "2223", not 22 and 23.
func EvalID(d *xmltree.Document, s xmltree.NodeSet) xmltree.NodeSet {
	ix := d.Index()
	sc := ix.AcquireScratch()
	defer ix.ReleaseScratch(sc)
	end := xmltree.NodeID(0)
	for _, x := range s {
		if !holdsText(d, x) {
			sc.Acc.Add(d.Ref(x))
			continue
		}
		for y, hi := max(x, end), ix.SubtreeEnd(x); y < hi; y++ {
			if holdsText(d, y) {
				sc.Acc.Add(d.Ref(y))
			}
		}
		end = max(end, ix.SubtreeEnd(x))
	}
	return sc.Acc.Result()
}

// holdsText reports whether x is an element or the root.
func holdsText(d *xmltree.Document, x xmltree.NodeID) bool {
	return d.Type(x) == xmltree.Element || d.Type(x) == xmltree.Root
}

// EvalIDInverse computes id⁻¹(S) = {x | id({x}) ∩ S ≠ ∅} (Theorem 10.7):
//
//	id⁻¹(S) = ancestor-or-self({x an element | ⟨x,y⟩ ∈ ref, y ∈ S})
//	        ∪ {x not an element | ⟨x,y⟩ ∈ ref, y ∈ S}
func EvalIDInverse(d *xmltree.Document, s xmltree.NodeSet) xmltree.NodeSet {
	ix := d.Index()
	sc := ix.AcquireScratch()
	for _, y := range s {
		sc.Acc.Add(d.RefInv(y))
	}
	srcs := sc.Acc.Result()
	ix.ReleaseScratch(sc)
	var own xmltree.NodeSet
	elems := srcs[:0]
	for _, x := range srcs {
		if holdsText(d, x) {
			elems = append(elems, x)
		} else {
			own = append(own, x)
		}
	}
	return Eval(d, AncestorOrSelf, elems).Union(own)
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
