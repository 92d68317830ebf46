package xmltree

import (
	"slices"
	"sort"
)

// NodeSet is a set of nodes maintained sorted in document order with no
// duplicates — the representation of the XPath nset type. The zero value
// is the empty set.
type NodeSet []NodeID

// NewNodeSet builds a NodeSet from arbitrary IDs, sorting and
// deduplicating.
func NewNodeSet(ids ...NodeID) NodeSet {
	s := append(NodeSet(nil), ids...)
	s.normalize()
	return s
}

func (s *NodeSet) normalize() {
	ns := *s
	slices.Sort(ns)
	out := ns[:0]
	for i, id := range ns {
		if i == 0 || id != ns[i-1] {
			out = append(out, id)
		}
	}
	*s = out
}

// Normalized sorts s in place and removes duplicates, returning the
// (possibly shortened) slice. It is the allocation-free counterpart of
// NewNodeSet for unions built by appending into one buffer.
func (s NodeSet) Normalized() NodeSet {
	s.normalize()
	return s
}

// Reversed reverses s in place and returns it: the conversion between
// document order and reverse-axis order.
func (s NodeSet) Reversed() NodeSet {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
	return s
}

// Contains reports membership using binary search.
func (s NodeSet) Contains(id NodeID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// Range returns the members of s inside the half-open document-order
// interval [lo, hi), by binary search: a sub-slice of s, not a copy.
func (s NodeSet) Range(lo, hi NodeID) NodeSet {
	i := sort.Search(len(s), func(k int) bool { return s[k] >= lo })
	j := i + sort.Search(len(s)-i, func(k int) bool { return s[i+k] >= hi })
	return s[i:j]
}

// Seek returns the smallest index i ≥ from with s[i] ≥ id, len(s) if
// there is none, galloping forward from from: O(log of the distance
// moved), which is what a cursor pays that walks s once while the ids it
// is asked for grow.
func (s NodeSet) Seek(from int, id NodeID) int {
	lo, hi := from, from
	for step := 1; hi < len(s) && s[hi] < id; step *= 2 {
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, len(s))
	return lo + sort.Search(hi-lo, func(k int) bool { return s[lo+k] >= id })
}

// IsEmpty reports whether the set is empty.
func (s NodeSet) IsEmpty() bool { return len(s) == 0 }

// First returns the first node in document order (first<doc), or NilNode
// if the set is empty.
func (s NodeSet) First() NodeID {
	if len(s) == 0 {
		return NilNode
	}
	return s[0]
}

// Union returns s ∪ t by sorted merge.
func (s NodeSet) Union(t NodeSet) NodeSet {
	if len(s) == 0 {
		return append(NodeSet(nil), t...)
	}
	if len(t) == 0 {
		return append(NodeSet(nil), s...)
	}
	out := make(NodeSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// lopsided is the size ratio beyond which Intersect and Intersects stop
// merging and binary-search the smaller set's members in the larger:
// O(small·log large) instead of O(small+large). The relation engines
// intersect one context node's handful of candidates with a
// document-sized filter set once per context node, which a merge turns
// quadratic.
const lopsided = 16

// Intersect returns s ∩ t: by sorted merge, or by searching the smaller
// set's members in the larger when the sizes are lopsided.
func (s NodeSet) Intersect(t NodeSet) NodeSet {
	if len(s) > len(t) {
		s, t = t, s
	}
	var out NodeSet
	if len(s)*lopsided < len(t) {
		for _, id := range s {
			k, found := slices.BinarySearch(t, id)
			if found {
				out = append(out, id)
			}
			t = t[k:]
		}
		return out
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Intersects reports whether s ∩ t is non-empty without building it, by
// searching the smaller set's members in a shrinking window of the
// larger.
func (s NodeSet) Intersects(t NodeSet) bool {
	if len(s) > len(t) {
		s, t = t, s
	}
	for _, id := range s {
		k, found := slices.BinarySearch(t, id)
		if found {
			return true
		}
		t = t[k:]
	}
	return false
}

// Minus returns s − t by sorted merge.
func (s NodeSet) Minus(t NodeSet) NodeSet {
	var out NodeSet
	j := 0
	for _, id := range s {
		for j < len(t) && t[j] < id {
			j++
		}
		if j < len(t) && t[j] == id {
			continue
		}
		out = append(out, id)
	}
	return out
}

// Equal reports set equality.
func (s NodeSet) Equal(t NodeSet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the set.
func (s NodeSet) Clone() NodeSet { return append(NodeSet(nil), s...) }

// The dense boolean set over dom used by the linear-time Core XPath
// algebra (Section 10.1) is Bitset (bitset.go): a packed []uint64 whose
// set operations run word-parallel, 64 members per machine word.
