package axes

import (
	"slices"

	"repro/internal/xmltree"
)

// EvalInverse computes the exact preimage of S under the typed axis
// function of Section 4, for any axis including the id pseudo-axis:
//
//	χ⁻¹(S) = {x ∈ dom | χ({x}) ∩ S ≠ ∅}
//
// This is what the backward-propagating engines need (S←[[χ::t/π]] =
// χ⁻¹(…), Section 10.1), and around attribute and namespace nodes it is
// not Eval of the natural inverse axis of Lemma 10.1: the type filter
// applies to what an axis returns, not to where it starts, so the typed
// relation is not symmetric.
//
//   - Only content nodes are ever returned by child, descendant, the
//     sibling axes, following and preceding, and by the proper part of
//     descendant-or-self; attribute and namespace members of S count
//     for self contributions alone. (//*[child::node()] must not select
//     an element whose only child is an attribute.)
//   - parent, ancestor(-or-self), following, preceding and
//     following-sibling can start from an attribute or namespace node,
//     so their preimages contain such nodes: the inverse image is taken
//     without the type filter. (//@*[parent::a] selects a's
//     attributes.) preceding-sibling cannot: attribute and namespace
//     nodes come first among their parent's abstract children.
func EvalInverse(d *xmltree.Document, a Axis, s xmltree.NodeSet) xmltree.NodeSet {
	if len(s) == 0 {
		return nil
	}
	switch a {
	case IDAxis:
		return EvalIDInverse(d, s)
	case Self:
		return append(xmltree.NodeSet(nil), s...)
	case AttributeAxis, NamespaceAxis:
		// Only attribute/namespace nodes can be reached over these axes,
		// so the preimage is the set of parents of such members.
		var out []xmltree.NodeID
		want := a.PrincipalType()
		for _, x := range s {
			if d.Type(x) == want {
				out = append(out, d.Parent(x))
			}
		}
		return xmltree.NewNodeSet(out...)
	case Parent, Ancestor, AncestorOrSelf:
		// Attribute and namespace members of S have nothing below them
		// and are their own ancestor-or-self, which is what the untyped
		// image says too.
		return evalUntyped(d, a.Inverse(), s)
	}
	content, special := splitByType(d, s)
	switch a {
	case Child, Descendant, PrecedingSibling:
		return Eval(d, a.Inverse(), content)
	case DescendantOrSelf:
		up := Eval(d, AncestorOrSelf, content)
		if special == nil {
			return up
		}
		return up.Union(special)
	default: // Following, Preceding, FollowingSibling
		return evalUntyped(d, a.Inverse(), content)
	}
}

// splitByType separates the content members of s from its attribute and
// namespace members; a set without the latter is returned as is.
func splitByType(d *xmltree.Document, s xmltree.NodeSet) (content, special xmltree.NodeSet) {
	for i, x := range s {
		if !d.IsAttrOrNS(x) {
			if special != nil {
				content = append(content, x)
			}
			continue
		}
		if special == nil {
			content = append(make(xmltree.NodeSet, 0, len(s)), s[:i]...)
		}
		special = append(special, x)
	}
	if special == nil {
		return s, nil
	}
	return content, special
}

// evalUntyped computes the abstract axis function χ₀(S) of Section 3 —
// the axis image with attribute and namespace nodes kept — for the axes
// an exact inverse needs, by the interval arithmetic of evalIndexed
// without its type filters.
func evalUntyped(d *xmltree.Document, a Axis, s xmltree.NodeSet) xmltree.NodeSet {
	if len(s) == 0 {
		return nil
	}
	ix := d.Index()
	var dst xmltree.NodeSet
	switch a {
	case Child:
		for _, x := range s {
			for c := d.FirstChild(x); c != xmltree.NilNode; c = d.NextSibling(c) {
				dst = append(dst, c)
			}
		}
		return sortIfNeeded(dst)

	case Descendant, DescendantOrSelf:
		end := xmltree.NodeID(0)
		for _, x := range s {
			if x < end {
				continue
			}
			lo, hi := x, ix.SubtreeEnd(x)
			if a == Descendant {
				lo++
			}
			dst = appendRange(dst, lo, hi)
			end = hi
		}
		return dst

	case Following:
		min := ix.SubtreeEnd(s[0])
		for _, x := range s[1:] {
			if e := ix.SubtreeEnd(x); e < min {
				min = e
			}
		}
		return appendRange(dst, min, xmltree.NodeID(d.Len()))

	case Preceding:
		// Whole subtrees that end before max(S); its ancestors straddle
		// it and are stepped into.
		max := s[len(s)-1]
		for id := xmltree.NodeID(0); id < max; {
			if end := ix.SubtreeEnd(id); end <= max {
				dst = appendRange(dst, id, end)
				id = end
			} else {
				id++
			}
		}
		return dst

	case PrecedingSibling:
		sc := ix.AcquireScratch()
		for _, x := range s {
			for y := d.PrevSibling(x); y != xmltree.NilNode && !sc.Visited.Has(y); y = d.PrevSibling(y) {
				sc.Visited.Add(y)
				dst = append(dst, y)
			}
		}
		for _, y := range dst {
			sc.Visited.Remove(y)
		}
		ix.ReleaseScratch(sc)
		return sortIfNeeded(dst)

	default:
		panic("axes: no untyped evaluation of axis " + a.String())
	}
}

// appendRange appends the preorder interval [lo, hi) to dst.
func appendRange(dst xmltree.NodeSet, lo, hi xmltree.NodeID) xmltree.NodeSet {
	if lo >= hi {
		return dst
	}
	n := len(dst)
	dst = slices.Grow(dst, int(hi-lo))[:n+int(hi-lo)]
	for i := range dst[n:] {
		dst[n+i] = lo + xmltree.NodeID(i)
	}
	return dst
}
