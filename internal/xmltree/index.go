package xmltree

import (
	"sync"
	"sync/atomic"
)

// Index is the structural index of a Document: precomputed subtree
// intervals and a label→NodeSet name index, plus pools of reusable
// evaluator scratch and evaluation arenas. It exists so that the
// recursive axes (descendant, ancestor, following, preceding and
// friends) evaluate as O(output) interval arithmetic instead of
// worklist closures, and so that name tests filter against a
// precomputed posting list instead of scanning candidates.
//
// The Builder lays it out in the pass that adds the nodes — a subtree
// end when an element closes, prefix counts and label counts as nodes
// arrive, the posting lists in one array at Done — so every Document
// has its index from the start: O(|dom|) time and space, never rebuilt.
type Index struct {
	// subtreeEnd[x] is the exclusive end of x's subtree interval: the
	// arena is in document order (preorder), so the nodes of the
	// subtree rooted at x are exactly [x, subtreeEnd[x]). Attribute and
	// namespace nodes lie inside their element's interval, matching the
	// paper's model of them as abstract children.
	subtreeEnd []NodeID

	// label numbers the element names from 1 in order of first sight,
	// and named[label[name]] is the document-ordered set of elements
	// carrying the name, named[0] that of a name no element has (the
	// label index; cf. the O(|D|·|Σ|) precomputations of Theorem 10.8),
	// with the list's value and rank columns (columns.go).
	label map[string]int32
	named []posting

	// contentBefore[i] counts the content (non-attribute,
	// non-namespace) nodes among [0, i): prefix sums that give the
	// exact size of any preorder subrange's axis contribution in O(1),
	// which is what lets an interval fill presize its output buffer.
	contentBefore []int32

	// scratch pools the kernels' marking scratch sized to this document,
	// arenas the evaluations' arenas (arena.go): two pools, so that
	// scratch, taken and given back many times an evaluation, does not
	// take turns with arenas and grow slabs of its own.
	scratch, arenas sync.Pool

	// materialized sums what released arenas held (Materialized).
	materialized atomic.Int64
}

// Index returns the document's structural index. Safe for concurrent use.
func (d *Document) Index() *Index { return &d.idx }

// SubtreeEnd returns the exclusive end of x's subtree interval
// [x, SubtreeEnd(x)) in document order.
func (ix *Index) SubtreeEnd(x NodeID) NodeID { return ix.subtreeEnd[x] }

// Named returns the document-ordered set of elements with the given
// name. The returned slice is shared and must not be mutated.
func (ix *Index) Named(name string) NodeSet { return ix.named[ix.label[name]].set }

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
	return ix.Named(name).Range(lo, hi)
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
	n := len(ix.subtreeEnd)
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

// AcquireArena returns an arena for one evaluation over the document,
// its slabs as the last evaluation left them grown.
func (ix *Index) AcquireArena() *Arena { return ix.arenas.Get().(*Arena) }

// ReleaseArena takes back all an evaluation took from ar, counts it into
// Materialized, and returns ar to the pool. Nothing ar handed out may be
// used from here on.
func (ix *Index) ReleaseArena(ar *Arena) {
	if m := ar.materialized(); m != 0 {
		ix.materialized.Add(m)
	}
	ar.reset()
	ix.arenas.Put(ar)
}

// Materialized returns what the evaluations of the document have kept in
// their arenas, in node-id words of four bytes, summed over every arena
// released so far. An evaluation's share is a function of the query and
// the document alone — the same on every machine and every run — which
// makes it the measure the complexity tests assert the paper's bounds on.
func (ix *Index) Materialized() int64 { return ix.materialized.Load() }
