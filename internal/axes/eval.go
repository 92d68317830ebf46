package axes

import (
	"slices"

	"repro/internal/xmltree"
)

// This file evaluates the typed axis function χ(S) of Section 4 using
// the document's structural index (xmltree.Index) instead of the
// literal worklist closures of Algorithm 3.2. Because the node arena is
// in document order (preorder), the subtree of x is the contiguous
// interval [x, subtreeEnd(x)), which turns the recursive axes into
// interval arithmetic:
//
//	descendant(S)          = ⋃ (x, end(x))            merged interval fills
//	descendant-or-self(S)  = ⋃ [x, end(x))
//	following(S)           = [min_{x∈S} end(x), |dom|)
//	preceding(S)           = [0, max(S)) − ancestors(max(S))
//	ancestor(S)            = parent-chain walks, visited-deduped
//
// Each evaluates in O(output) (plus O(|S|) to inspect the input), a
// strict improvement over the O(|dom|) closure bound of Lemma 3.3. The
// one-step axes (child, parent, siblings, attribute, namespace) walk
// the primitive links directly. Equivalence with the closure-based
// definition is asserted by reference_test.go, which keeps the paper's
// Algorithm 3.2 evaluator alive as an executable specification.
//
// Evaluator scratch (a visited bitset for merging overlapping chains)
// comes from the document's per-document pool and is only acquired on
// the multi-node paths that need it; singleton context sets — the
// dominant shape in the per-node engines — never touch the pool. With
// a caller-reused output buffer (EvalInto) or an evaluation's arena
// (EvalIn, EvalNamedIn, EvalInverse, EvalID), steady-state evaluation
// performs zero heap allocations.

// Eval computes the typed XPath axis function χ(S) of Section 4 as a
// document-ordered NodeSet:
//
//	attribute(S) = child₀(S) ∩ T(attribute())
//	namespace(S) = child₀(S) ∩ T(namespace())
//	χ(S)         = χ₀(S) − (T(attribute()) ∪ T(namespace()))   otherwise
//
// with the W3C-conformant refinement that the self contribution of self,
// descendant-or-self and ancestor-or-self retains attribute and namespace
// context nodes (a context attribute node is its own self).
func Eval(d *xmltree.Document, a Axis, s xmltree.NodeSet) xmltree.NodeSet {
	if len(s) == 0 {
		return nil
	}
	return EvalInto(d, a, s, nil)
}

// EvalInto is Eval appending into dst[:0], reusing its capacity.
func EvalInto(d *xmltree.Document, a Axis, s xmltree.NodeSet, dst xmltree.NodeSet) xmltree.NodeSet {
	dst = dst[:0]
	if len(s) == 0 {
		return dst
	}
	if a == IDAxis {
		return append(dst, EvalID(nil, d, s)...)
	}
	return evalIndexed(nil, d, d.Index(), a, s, dst)
}

// EvalIn is Eval into the arena ar. It takes an upper bound on the
// image's size from the arena (bound) and gives back what the image
// leaves of it.
func EvalIn(ar *xmltree.Arena, d *xmltree.Document, a Axis, s xmltree.NodeSet) xmltree.NodeSet {
	if len(s) == 0 {
		return nil
	}
	if a == IDAxis {
		return EvalID(ar, d, s)
	}
	ix := d.Index()
	return ar.Trim(evalIndexed(ar, d, ix, a, s, ar.Nodes(bound(d, ix, a, s))))
}

// bound is the room an arena gives χ(S) and χ₀(S) to start with, in
// O(|S|): the exact size of the interval the image lies in for the
// interval axes, whose fills then never outgrow it, and |S| for the
// others, whose fills grow in the arena as they go (push). Taking |dom|
// instead would hold the arena's memory at |dom| and more.
func bound(d *xmltree.Document, ix *xmltree.Index, a Axis, s xmltree.NodeSet) int {
	switch a {
	case Descendant, DescendantOrSelf:
		// The members' subtree intervals, merged.
		n, end := 0, xmltree.NodeID(0)
		for _, x := range s {
			if x >= end {
				end = ix.SubtreeEnd(x)
				n += int(end - x)
			}
		}
		return n
	case Following:
		end := ix.SubtreeEnd(s[0])
		for _, x := range s[1:] {
			end = min(end, ix.SubtreeEnd(x))
		}
		return d.Len() - int(end)
	case Preceding:
		return int(s[len(s)-1])
	}
	return len(s)
}

// push appends y to dst, growing dst within the arena ar (nil: the heap)
// when it is full.
func push(ar *xmltree.Arena, dst xmltree.NodeSet, y xmltree.NodeID) xmltree.NodeSet {
	if len(dst) == cap(dst) {
		dst = ar.Grow(dst, 1)
	}
	return append(dst, y)
}

// EvalNode computes χ({x}).
func EvalNode(d *xmltree.Document, a Axis, x xmltree.NodeID) xmltree.NodeSet {
	return Eval(d, a, xmltree.NodeSet{x})
}

// evalIndexed dispatches one typed axis over the structural index,
// appending to dst. Any scratch bits set are cleared again before
// returning, keeping the scratch round trip proportional to work done.
// The axes bound cannot size ahead grow dst within the arena ar (push).
func evalIndexed(ar *xmltree.Arena, d *xmltree.Document, ix *xmltree.Index, a Axis, s xmltree.NodeSet, dst xmltree.NodeSet) xmltree.NodeSet {
	switch a {
	case Self:
		// Every context node is its own self, attribute and namespace
		// nodes included.
		return append(dst, s...)

	case Descendant, DescendantOrSelf:
		// Merged interval fill: nested context nodes fall inside an
		// earlier interval (subtree intervals nest) and are skipped.
		// The self contribution of descendant-or-self keeps context
		// attribute/namespace nodes; those members of S are marked up
		// front (scratch is needed only when they exist) and survive
		// the type filter wherever their interval position falls.
		var sc *xmltree.Scratch
		if a == DescendantOrSelf {
			for _, x := range s {
				if d.IsAttrOrNS(x) {
					if sc == nil {
						sc = ix.AcquireScratch()
					}
					sc.Mark.Add(x)
				}
			}
		}
		end := xmltree.NodeID(0)
		for _, x := range s {
			if x < end {
				continue
			}
			lo, hi := x, ix.SubtreeEnd(x)
			if a == Descendant {
				lo++
			}
			// The interval's content count is an O(1) prefix-sum
			// lookup: size the output once instead of doubling into it.
			dst = slices.Grow(dst, ix.ContentCount(lo, hi))
			for id := lo; id < hi; id++ {
				if !d.IsAttrOrNS(id) || (sc != nil && sc.Mark.Has(id)) {
					dst = append(dst, id)
				}
			}
			end = hi
		}
		if sc != nil {
			for _, x := range s {
				sc.Mark.Remove(x)
			}
			ix.ReleaseScratch(sc)
		}
		return dst

	case Following:
		// Everything after the earliest subtree end.
		min := ix.SubtreeEnd(s[0])
		for _, x := range s[1:] {
			if e := ix.SubtreeEnd(x); e < min {
				min = e
			}
		}
		dst = slices.Grow(dst, ix.ContentCount(min, xmltree.NodeID(d.Len())))
		for id, n := min, xmltree.NodeID(d.Len()); id < n; id++ {
			if !d.IsAttrOrNS(id) {
				dst = append(dst, id)
			}
		}
		return dst

	case Preceding:
		// [0, max(S)) minus the ancestors of max(S): for any y < max,
		// y is in preceding(x) for some x ∈ S unless y's subtree
		// contains every later member of S — i.e. y is an ancestor of
		// the maximum. Ancestors are recognized by their subtree
		// interval straddling max, so no marking is needed: the scan
		// emits whole non-ancestor subtrees and steps into ancestors.
		max := s[len(s)-1]
		for id := xmltree.NodeID(0); id < max; {
			if end := ix.SubtreeEnd(id); end <= max {
				for ; id < end; id++ {
					if !d.IsAttrOrNS(id) {
						dst = append(dst, id)
					}
				}
			} else {
				id++ // ancestor of max: excluded, descend into it
			}
		}
		return dst

	case Ancestor, AncestorOrSelf:
		if len(s) == 1 {
			// Single chain: collected root-ward (descending), then
			// reversed into document order. No scratch needed.
			x := s[0]
			if a == AncestorOrSelf {
				dst = push(ar, dst, x)
			}
			for p := d.Parent(x); p != xmltree.NilNode; p = d.Parent(p) {
				dst = push(ar, dst, p)
			}
			return dst.Reversed()
		}
		// Parent-chain walks; the visited bitset merges chains so each
		// ancestor is emitted once even for wide context sets.
		sc := ix.AcquireScratch()
		for _, x := range s {
			if a == AncestorOrSelf && !sc.Visited.Has(x) {
				sc.Visited.Add(x)
				dst = push(ar, dst, x)
			}
			for p := d.Parent(x); p != xmltree.NilNode && !sc.Visited.Has(p); p = d.Parent(p) {
				sc.Visited.Add(p)
				dst = push(ar, dst, p)
			}
		}
		for _, y := range dst {
			sc.Visited.Remove(y)
		}
		ix.ReleaseScratch(sc)
		slices.Sort(dst)
		// Ancestors proper are never attribute or namespace nodes; the
		// self contribution may be, and is kept (context nodes only).
		return dst

	case Child:
		// Child sets of distinct parents are disjoint: no dedup needed,
		// only a sort when context nodes are nested.
		for _, x := range s {
			for c := d.FirstChild(x); c != xmltree.NilNode; c = d.NextSibling(c) {
				if !d.IsAttrOrNS(c) {
					dst = push(ar, dst, c)
				}
			}
		}
		return sortIfNeeded(dst)

	case AttributeAxis, NamespaceAxis:
		// Attribute and namespace nodes sit at the front of the child
		// chain (namespaces first), so the walk stops at the first
		// content node.
		want := xmltree.Attribute
		if a == NamespaceAxis {
			want = xmltree.Namespace
		}
		for _, x := range s {
			for c := d.FirstChild(x); c != xmltree.NilNode && d.IsAttrOrNS(c); c = d.NextSibling(c) {
				if d.Type(c) == want {
					dst = push(ar, dst, c)
				}
			}
		}
		return sortIfNeeded(dst)

	case Parent:
		if len(s) == 1 {
			if p := d.Parent(s[0]); p != xmltree.NilNode {
				dst = append(dst, p)
			}
			return dst
		}
		sc := ix.AcquireScratch()
		for _, x := range s {
			if p := d.Parent(x); p != xmltree.NilNode && !sc.Visited.Has(p) {
				sc.Visited.Add(p)
				dst = append(dst, p)
			}
		}
		for _, y := range dst {
			sc.Visited.Remove(y)
		}
		ix.ReleaseScratch(sc)
		return sortIfNeeded(dst)

	case FollowingSibling, PrecedingSibling:
		step := d.NextSibling
		if a == PrecedingSibling {
			step = d.PrevSibling
		}
		if len(s) == 1 {
			for y := step(s[0]); y != xmltree.NilNode; y = step(y) {
				if !d.IsAttrOrNS(y) {
					dst = push(ar, dst, y)
				}
			}
			if a == PrecedingSibling {
				dst = dst.Reversed()
			}
			return dst
		}
		// Sibling chains of nodes in the same family overlap; the
		// visited bitset cuts each walk short at the first node an
		// earlier walk already covered, keeping the total O(output).
		sc := ix.AcquireScratch()
		marked := sc.Work[:0]
		for _, x := range s {
			for y := step(x); y != xmltree.NilNode && !sc.Visited.Has(y); y = step(y) {
				sc.Visited.Add(y)
				marked = append(marked, y)
				if !d.IsAttrOrNS(y) {
					dst = push(ar, dst, y)
				}
			}
		}
		for _, y := range marked {
			sc.Visited.Remove(y)
		}
		sc.Work = marked[:0]
		ix.ReleaseScratch(sc)
		return sortIfNeeded(dst)

	default:
		panic("axes: unknown axis " + a.String())
	}
}

// sortIfNeeded sorts dst unless it is already ascending, which is the
// common case (flat context sets produce ordered outputs).
func sortIfNeeded(dst xmltree.NodeSet) xmltree.NodeSet {
	for i := 1; i < len(dst); i++ {
		if dst[i] < dst[i-1] {
			slices.Sort(dst)
			return dst
		}
	}
	return dst
}

// EvalNamed computes χ(S) ∩ {elements named name}: the axis image
// restricted to an exact element name test, served from the label index
// so the recursive axes touch only matching nodes (O(matches·log) via
// binary search into the posting list) instead of materializing and
// scanning the whole image.
func EvalNamed(d *xmltree.Document, a Axis, s xmltree.NodeSet, name string) xmltree.NodeSet {
	return EvalNamedInto(d, a, s, name, nil)
}

// NamedChildren appends to dst the children of x among named, the
// posting list of an element name: the scan is restricted to x's
// subtree, children of x lie in (x, end(x)). It starts at named[from:]
// and returns the index of the first member behind x, so a caller whose
// x only grow hands each result back as from and walks the list once.
//
// The list is read only up to its first member below a child of x:
// from there on x's remaining named children are found by walking x's
// child list on from the last one found, so a call costs O(matches +
// fanout(x)) rather than O(|subtree(x)|), and a pass over distinct
// contexts O(|D|) — on a deep chain <a><a>…, child::a from every a
// would otherwise be quadratic.
func NamedChildren(d *xmltree.Document, named xmltree.NodeSet, from int, x xmltree.NodeID, dst xmltree.NodeSet) (xmltree.NodeSet, int) {
	from = named.Seek(from, x+1)
	end := d.Index().SubtreeEnd(x)
	last := xmltree.NilNode // the last child found
	for _, y := range named[from:] {
		if y >= end {
			break
		}
		if d.Parent(y) != x {
			// Every named child of x before y was found, so the children
			// between last and y are not named.
			c := d.FirstChild(x)
			if last != xmltree.NilNode {
				c = d.NextSibling(last)
			}
			for name := d.Name(y); c != xmltree.NilNode; c = d.NextSibling(c) {
				if d.Type(c) == xmltree.Element && d.Name(c) == name {
					dst = append(dst, c)
				}
			}
			break
		}
		dst = append(dst, y)
		last = y
	}
	return dst, from
}

// EvalNamedIn is EvalNamed into the arena ar: where the image is read
// off the posting list, the list's length is the room it takes and
// trims; the small-output axes evaluate in the arena as EvalIn does and
// are filtered in place.
func EvalNamedIn(ar *xmltree.Arena, d *xmltree.Document, a Axis, s xmltree.NodeSet, name string) xmltree.NodeSet {
	if len(s) == 0 {
		return nil
	}
	ix := d.Index()
	switch {
	case a == Self:
		return ar.Trim(EvalNamedInto(d, a, s, name, ar.Nodes(len(s))))
	case a == Child, a == Descendant, a == DescendantOrSelf, a == Following, a == Preceding,
		(a == Ancestor || a == AncestorOrSelf) && len(s) > 1:
		return ar.Trim(EvalNamedInto(d, a, s, name, ar.Nodes(len(ix.Named(name)))))
	}
	return ar.Trim(keepNamed(EvalIn(ar, d, a, s), ix.Named(name)))
}

// EvalNamedInto is EvalNamed appending into dst[:0].
func EvalNamedInto(d *xmltree.Document, a Axis, s xmltree.NodeSet, name string, dst xmltree.NodeSet) xmltree.NodeSet {
	dst = dst[:0]
	if len(s) == 0 {
		return dst
	}
	ix := d.Index()
	if (a == Ancestor || a == AncestorOrSelf) && len(s) > 1 {
		// Mark the parent chains, then read the posting list up to max(S)
		// against the marks: document order, with nothing sorted.
		sc := ix.AcquireScratch()
		marked := sc.Work[:0]
		for _, x := range s {
			p := x
			if a == Ancestor {
				p = d.Parent(x)
			}
			for ; p != xmltree.NilNode && !sc.Visited.Has(p); p = d.Parent(p) {
				sc.Visited.Add(p)
				marked = append(marked, p)
			}
		}
		dst = sc.Visited.IntersectSet(ix.NamedRange(name, 0, s[len(s)-1]+1), dst)
		for _, y := range marked {
			sc.Visited.Remove(y)
		}
		sc.Work = marked[:0]
		ix.ReleaseScratch(sc)
		return dst
	}
	switch a {
	case Self:
		named := ix.Named(name)
		for _, x := range s {
			if named.Contains(x) {
				dst = append(dst, x)
			}
		}
		return dst

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
			dst = append(dst, ix.NamedRange(name, lo, hi)...)
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
		return append(dst, ix.NamedRange(name, min, xmltree.NodeID(d.Len()))...)

	case Preceding:
		// Ancestors of max(S) are excluded by the straddling-interval
		// test instead of a mark bitset.
		max := s[len(s)-1]
		for _, y := range ix.NamedRange(name, 0, max) {
			if ix.SubtreeEnd(y) <= max {
				dst = append(dst, y)
			}
		}
		return dst

	case Child:
		// {y named name | parent(y) ∈ S}: scan the posting list once,
		// testing parents against S.
		named := ix.Named(name)
		if len(s) == 1 {
			dst, _ = NamedChildren(d, named, 0, s[0], dst)
			return dst
		}
		// Every child of S lies after min(S) and before the last end of a
		// member's subtree: only that stretch of the list is read.
		sc := ix.AcquireScratch()
		end := xmltree.NodeID(0)
		for _, x := range s {
			sc.Mark.Add(x)
			end = max(end, ix.SubtreeEnd(x))
		}
		for _, y := range named.Range(s[0]+1, end) {
			if sc.Mark.Has(d.Parent(y)) {
				dst = append(dst, y)
			}
		}
		for _, x := range s {
			sc.Mark.Remove(x)
		}
		ix.ReleaseScratch(sc)
		return dst

	default:
		// Small-output axes (parent, ancestor of one node, siblings, id):
		// evaluate the axis, then intersect with the posting list by merge.
		return keepNamed(EvalInto(d, a, s, dst), ix.Named(name))
	}
}

// keepNamed filters the document-ordered img in place to the members of
// the posting list named, by merge.
func keepNamed(img, named xmltree.NodeSet) xmltree.NodeSet {
	out, j := img[:0], 0
	for _, y := range img {
		for j < len(named) && named[j] < y {
			j++
		}
		if j < len(named) && named[j] == y {
			out = append(out, y)
		}
	}
	return out
}
