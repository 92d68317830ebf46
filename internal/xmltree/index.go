package xmltree

import "sync"

// Index is the lazily built structural index of a Document: precomputed
// subtree intervals and a label→NodeSet name index, plus a pool of
// reusable evaluator scratch. It exists so that the recursive axes
// (descendant, ancestor, following, preceding and friends) evaluate as
// O(output) interval arithmetic instead of worklist closures, and so
// that name tests filter against a precomputed posting list instead of
// scanning candidates.
//
// Laziness and caching contract: the index is built at most once per
// document, on first use, under a sync.Once; a Document never exposes a
// partially built index. Because documents are immutable after
// construction, the index never invalidates. Building is O(|dom|) time
// and space (one NodeID per node plus the name posting lists), so
// serving stacks that parse many short-lived documents only pay for it
// on documents that are actually queried.
type Index struct {
	d *Document

	// subtreeEnd[x] is the exclusive end of x's subtree interval: the
	// arena is in document order (preorder), so the nodes of the
	// subtree rooted at x are exactly [x, subtreeEnd[x]). Attribute and
	// namespace nodes lie inside their element's interval, matching the
	// paper's model of them as abstract children.
	subtreeEnd []NodeID

	// byName maps an element name to the document-ordered set of
	// elements carrying it (the label index; cf. the O(|D|·|Σ|)
	// precomputations of Theorem 10.8).
	byName map[string]NodeSet

	// contentBefore[i] counts the content (non-attribute,
	// non-namespace) nodes among [0, i): prefix sums that give the
	// exact size of any preorder subrange's axis contribution in O(1),
	// which is what lets an interval fill presize its output buffer.
	contentBefore []int32

	// scratch pools evaluator scratch sized to this document, making
	// steady-state axis evaluation allocation-free.
	scratch sync.Pool
}

// Index returns the document's structural index, building it on first
// use. Safe for concurrent use.
func (d *Document) Index() *Index {
	d.idxOnce.Do(func() {
		d.idx = buildIndex(d)
	})
	return d.idx
}

func buildIndex(d *Document) *Index {
	n := d.Len()
	idx := &Index{d: d, subtreeEnd: make([]NodeID, n), byName: map[string]NodeSet{},
		contentBefore: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		idx.subtreeEnd[i] = NodeID(i + 1)
		if d.types[i] == Element {
			idx.byName[d.names[i]] = append(idx.byName[d.names[i]], NodeID(i))
		}
		idx.contentBefore[i+1] = idx.contentBefore[i]
		if !d.IsAttrOrNS(NodeID(i)) {
			idx.contentBefore[i+1]++
		}
	}
	// One reverse pass: by the time node i is visited all its
	// descendants have been folded into subtreeEnd[i], which then folds
	// into its parent.
	for i := n - 1; i >= 1; i-- {
		p := d.parent[i]
		if idx.subtreeEnd[i] > idx.subtreeEnd[p] {
			idx.subtreeEnd[p] = idx.subtreeEnd[i]
		}
	}
	idx.scratch.New = func() any { return &Scratch{} }
	return idx
}

// SubtreeEnd returns the exclusive end of x's subtree interval
// [x, SubtreeEnd(x)) in document order.
func (ix *Index) SubtreeEnd(x NodeID) NodeID { return ix.subtreeEnd[x] }

// Named returns the document-ordered set of elements with the given
// name. The returned slice is shared and must not be mutated.
func (ix *Index) Named(name string) NodeSet { return ix.byName[name] }

// ContentCount returns the number of content (non-attribute,
// non-namespace) nodes in the preorder interval [lo, hi), in O(1) via
// the prefix counts.
func (ix *Index) ContentCount(lo, hi NodeID) int {
	if lo >= hi {
		return 0
	}
	return int(ix.contentBefore[hi] - ix.contentBefore[lo])
}

// NamedRange returns the subrange of Named(name) falling inside the
// half-open document-order interval [lo, hi), by binary search.
func (ix *Index) NamedRange(name string, lo, hi NodeID) NodeSet {
	return ix.byName[name].Range(lo, hi)
}

// Scratch is reusable per-document evaluator scratch: two bitsets, a
// union accumulator and a work slice, all sized to the document. Acquire
// hands it out with the bitsets sized (and cleared) for the document
// and the slice empty; users must leave the bitsets fully cleared
// before Release — clearing only the bits they set, which keeps the
// round trip O(work done), not O(|dom|). The accumulator clears itself
// on Release, at the cost of the words it touched.
type Scratch struct {
	Visited Bitset
	Mark    Bitset
	Acc     Accumulator
	Work    []NodeID
}

// AcquireScratch returns scratch sized to the document, reusing pooled
// backing arrays so steady-state acquisition does not allocate.
func (ix *Index) AcquireScratch() *Scratch {
	sc := ix.scratch.Get().(*Scratch)
	n := ix.d.Len()
	if sc.Visited.n != n {
		sc.Visited.Reset(n)
		sc.Mark.Reset(n)
		sc.Acc = *NewAccumulator(n)
	}
	sc.Work = sc.Work[:0]
	return sc
}

// ReleaseScratch returns scratch to the pool. The bitsets must already
// be clear (the evaluator clears exactly the bits it set).
func (ix *Index) ReleaseScratch(sc *Scratch) {
	sc.Acc.Reset() // a union abandoned on error leaves members behind
	ix.scratch.Put(sc)
}
