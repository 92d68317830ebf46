package xmltree

import (
	"sync/atomic"
	"unsafe"
)

// The label index's columns. Two values that evaluation reads off a
// posting list member are fixed for the document: its string-value with
// its number (E1[[π RelOp c]] of Section 10.2 compares them), and its
// rank ⟨position, size⟩ among its parent's children of the same name
// (the ⟨cp, cs⟩ a child::name step's positional predicate is decided
// at, Section 8.2). Each column is aligned with its posting list —
// entry i belongs to member i — built on first use in O(|list|) (and
// the text below the members), and published with one atomic store, as
// strval is: two evaluations racing on an empty slot both build it, and
// one store wins.

// posting is one label's entry in the label index: its document-ordered
// elements and their two columns, nil until first used.
type posting struct {
	set   NodeSet
	vals  atomic.Pointer[Values]
	ranks atomic.Pointer[[]Rank]
}

// Values is a posting list's value column: Str[i] is the string-value
// of the list's i-th member and Num[i] that string's number by
// ParseNumber.
type Values struct {
	Str []string
	Num []float64
}

// Rank is a child's place among its parent's element children of its
// own name: the 1-based Pos in document order, of Size in all.
type Rank struct{ Pos, Size int32 }

// NamedValues returns Named(name) with its value column, building the
// column on first use: O(|list| + the text below its members). Safe for
// concurrent use; neither result may be written.
func (d *Document) NamedValues(name string) (NodeSet, *Values) {
	p := &d.idx.named[d.idx.label[name]]
	if v := p.vals.Load(); v != nil {
		return p.set, v
	}
	v := &Values{Str: make([]string, len(p.set)), Num: make([]float64, len(p.set))}
	for i, y := range p.set {
		s := d.StringValue(y)
		v.Str[i], v.Num[i] = s, ParseNumber(s)
	}
	if p.vals.CompareAndSwap(nil, v) {
		d.lazy.Add(int64(unsafe.Sizeof(*v)) + int64(unsafe.Sizeof(""))*int64(cap(v.Str)) + 8*int64(cap(v.Num)))
	}
	return p.set, p.vals.Load()
}

// NamedRanks returns Named(name) with its rank column, building the
// column on first use in O(|list|) time and O(|list|) scratch. Safe for
// concurrent use; neither result may be written.
//
// The list is in document order, so between two children of one parent
// it holds only members below the first of them: the parents whose
// children the scan is among form a stack, each with its group of
// children, and a parent whose subtree the scan has left is done.
func (d *Document) NamedRanks(name string) (NodeSet, []Rank) {
	p := &d.idx.named[d.idx.label[name]]
	if r := p.ranks.Load(); r != nil {
		return p.set, *r
	}
	type group struct {
		parent NodeID
		id     int32
	}
	ranks := make([]Rank, len(p.set))
	var open []group
	var size []int32 // by group id; ranks[i].Size holds i's group id until the second pass
	for i, y := range p.set {
		for len(open) > 0 && d.idx.subtreeEnd[open[len(open)-1].parent] <= y {
			open = open[:len(open)-1]
		}
		if par := d.parent[y]; len(open) == 0 || open[len(open)-1].parent != par {
			open = append(open, group{par, int32(len(size))})
			size = append(size, 0)
		}
		g := open[len(open)-1].id
		size[g]++
		ranks[i] = Rank{Pos: size[g], Size: g}
	}
	for i := range ranks {
		ranks[i].Size = size[ranks[i].Size]
	}
	if p.ranks.CompareAndSwap(nil, &ranks) {
		d.lazy.Add(int64(unsafe.Sizeof(Rank{})) * int64(cap(ranks)))
	}
	return p.set, *p.ranks.Load()
}
