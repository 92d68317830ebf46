package axes

import (
	"context"
	"sync/atomic"

	"repro/internal/xmltree"
)

// This file adds intra-query parallelism to the interval-arithmetic
// axes: the preorder range is partitioned into subtree-aligned chunks
// and the chunks are filled by the shared xmltree worker pool. The
// index's content prefix counts (Index.ContentCount) give each chunk's
// exact output offset up front, so workers write disjoint regions of
// one output buffer and the result is element-for-element identical to
// the sequential EvalInto/EvalNamedInto — regardless of worker count,
// scheduling, or chunk execution order.
//
// Cancellation: each worker bills its own chunk by consulting the
// context once per chunk (chunks are parChunkSpan nodes, well above
// the evalutil checkEvery throttle, so the consult rate matches the
// sequential Canceller discipline). The first failure is recorded in a
// shared flag that later chunks observe, so every worker exits
// promptly after cancellation.
//
// Axes that are not interval fills (ancestor, parent, siblings,
// attribute/namespace, id) produce small outputs and stay sequential;
// so do fills below parMinSpan, keeping the p=1 and small-document
// paths byte-for-byte the PR 4 sequential code with zero goroutine
// overhead.

// Variables rather than constants so the property tests can shrink
// them and drive the parallel paths on small randomized documents; the
// defaults are what production callers get.
var (
	// parMinSpan is the raw preorder span (or posting-list length)
	// below which parallel evaluation falls back to the sequential
	// path: a fill that small completes in the time a pool handoff
	// takes.
	parMinSpan = 16384

	// parChunkSpan is the target chunk size in preorder slots. Small
	// enough that uneven attr/ns density balances across workers and
	// cancellation latency stays bounded, large enough that the
	// per-chunk claim (one atomic add) is noise.
	parChunkSpan = 8192
)

// parFail records the first worker error; later chunks observe it and
// return without doing work, so a cancelled evaluation winds down in
// one chunk per worker.
type parFail struct {
	p atomic.Pointer[error]
}

func (f *parFail) set(err error) { f.p.CompareAndSwap(nil, &err) }

func (f *parFail) err() error {
	if e := f.p.Load(); e != nil {
		return *e
	}
	return nil
}

// EvalPar is EvalInto with a worker budget and cooperative
// cancellation: the big interval-fill axes (descendant,
// descendant-or-self, following, preceding) are partitioned across up
// to p workers when the span clears parMinSpan; everything else — and
// every call with p <= 1 — takes the sequential path after one context
// check. The result is always element-for-element identical to
// EvalInto.
func EvalPar(ctx context.Context, d *xmltree.Document, a Axis, s xmltree.NodeSet, dst xmltree.NodeSet, p int) (xmltree.NodeSet, error) {
	if p > 1 && len(s) > 0 {
		ix := d.Index()
		switch a {
		case Descendant, DescendantOrSelf:
			// The self contribution of descendant-or-self keeps context
			// attribute/namespace nodes; that rare shape stays on the
			// sequential path with its mark bitset.
			selfAttrs := false
			if a == DescendantOrSelf {
				for _, x := range s {
					if d.Node(x).IsAttrOrNS() {
						selfAttrs = true
						break
					}
				}
			}
			if !selfAttrs && mergedSpan(ix, a, s) >= parMinSpan {
				return parFillMerged(ctx, d, ix, a, s, dst, p)
			}

		case Following:
			min := ix.SubtreeEnd(s[0])
			for _, x := range s[1:] {
				if e := ix.SubtreeEnd(x); e < min {
					min = e
				}
			}
			if d.Len()-int(min) >= parMinSpan {
				return parFillFollowing(ctx, d, ix, min, dst, p)
			}

		case Preceding:
			if int(s[len(s)-1]) >= parMinSpan {
				return parFillPreceding(ctx, d, ix, s[len(s)-1], dst, p)
			}
		}
	}
	if err := ctxErr(ctx); err != nil {
		return dst[:0], err
	}
	return EvalInto(d, a, s, dst), nil
}

// EvalInversePar is EvalInverse behind the cancellation check of the
// Par entry points. The exact preimages of the interval-fill axes keep
// attribute and namespace nodes (see EvalInverse), so they are fills of
// consecutive node ids with no type test per node — memory-bound work
// that stays on the calling goroutine at every worker budget.
func EvalInversePar(ctx context.Context, d *xmltree.Document, a Axis, s xmltree.NodeSet) (xmltree.NodeSet, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return EvalInverse(d, a, s), nil
}

// mergedSpan returns the total preorder span of the merged subtree
// intervals of s — the raw slot count a descendant fill will scan.
func mergedSpan(ix *xmltree.Index, a Axis, s xmltree.NodeSet) int {
	span := 0
	end := xmltree.NodeID(0)
	for _, x := range s {
		if x < end {
			continue
		}
		lo, hi := x, ix.SubtreeEnd(x)
		if a == Descendant {
			lo++
		}
		span += int(hi - lo)
		end = hi
	}
	return span
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// growTo returns dst resized to n slots, reusing its capacity.
func growTo(dst xmltree.NodeSet, n int) xmltree.NodeSet {
	if cap(dst) < n {
		return make(xmltree.NodeSet, n)
	}
	return dst[:n]
}

// appendChunks splits the preorder interval [lo, hi) into
// parChunkSpan-sized pieces, appending (pieceLo, pieceHi, dstOff)
// triples to work; off advances by each piece's content count, so
// every chunk knows exactly where its output lands.
func appendChunks(ix *xmltree.Index, work []xmltree.NodeID, lo, hi xmltree.NodeID, off int) ([]xmltree.NodeID, int) {
	for lo < hi {
		ph := lo + xmltree.NodeID(parChunkSpan)
		if ph > hi {
			ph = hi
		}
		work = append(work, lo, ph, xmltree.NodeID(off))
		off += ix.ContentCount(lo, ph)
		lo = ph
	}
	return work, off
}

// parRunFill executes the chunk triples: each chunk scans its preorder
// range and writes the content nodes at its precomputed offset. Chunks
// cover disjoint input ranges and (by the prefix counts) disjoint
// output ranges.
func parRunFill(ctx context.Context, d *xmltree.Document, work []xmltree.NodeID, dst xmltree.NodeSet, p int) error {
	var fail parFail
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	xmltree.ParDo(p, len(work)/3, func(k int) {
		if fail.err() != nil {
			return
		}
		// Each worker bills its own chunk: one consult per
		// parChunkSpan nodes of work.
		if done != nil {
			select {
			case <-done:
				fail.set(ctx.Err())
				return
			default:
			}
		}
		lo, hi, off := work[3*k], work[3*k+1], int(work[3*k+2])
		for id := lo; id < hi; id++ {
			if !d.Node(id).IsAttrOrNS() {
				dst[off] = id
				off++
			}
		}
	})
	return fail.err()
}

// parFillMerged evaluates descendant/descendant-or-self as a parallel
// merged interval fill.
func parFillMerged(ctx context.Context, d *xmltree.Document, ix *xmltree.Index, a Axis, s, dst xmltree.NodeSet, p int) (xmltree.NodeSet, error) {
	sc := ix.AcquireScratch()
	work := sc.Work[:0]
	off := 0
	end := xmltree.NodeID(0)
	for _, x := range s {
		if x < end {
			continue
		}
		lo, hi := x, ix.SubtreeEnd(x)
		if a == Descendant {
			lo++
		}
		work, off = appendChunks(ix, work, lo, hi, off)
		end = hi
	}
	dst = growTo(dst, off)
	err := parRunFill(ctx, d, work, dst, p)
	sc.Work = work[:0]
	ix.ReleaseScratch(sc)
	if err != nil {
		return dst[:0], err
	}
	return dst, nil
}

// parFillFollowing fills [min, |dom|) in parallel.
func parFillFollowing(ctx context.Context, d *xmltree.Document, ix *xmltree.Index, min xmltree.NodeID, dst xmltree.NodeSet, p int) (xmltree.NodeSet, error) {
	sc := ix.AcquireScratch()
	work, off := appendChunks(ix, sc.Work[:0], min, xmltree.NodeID(d.Len()), 0)
	dst = growTo(dst, off)
	err := parRunFill(ctx, d, work, dst, p)
	sc.Work = work[:0]
	ix.ReleaseScratch(sc)
	if err != nil {
		return dst[:0], err
	}
	return dst, nil
}

// parFillPreceding fills [0, max) minus ancestors(max) in parallel:
// the ancestors of max form a root-to-parent chain, and the
// non-ancestor nodes are exactly the gaps between consecutive chain
// members (plus the gap before max), each a contiguous preorder
// interval.
func parFillPreceding(ctx context.Context, d *xmltree.Document, ix *xmltree.Index, max xmltree.NodeID, dst xmltree.NodeSet, p int) (xmltree.NodeSet, error) {
	sc := ix.AcquireScratch()
	// Lay the ancestor chain down ascending (root first) at the front
	// of the scratch slice, then append the gap chunks after it.
	depth := 0
	for a := d.Parent(max); a != xmltree.NilNode; a = d.Parent(a) {
		depth++
	}
	work := sc.Work[:0]
	for len(work) < depth {
		work = append(work, 0)
	}
	i := depth
	for a := d.Parent(max); a != xmltree.NilNode; a = d.Parent(a) {
		i--
		work[i] = a
	}
	off := 0
	for i := 0; i < depth; i++ {
		hi := max
		if i+1 < depth {
			hi = work[i+1]
		}
		work, off = appendChunks(ix, work, work[i]+1, hi, off)
	}
	dst = growTo(dst, off)
	err := parRunFill(ctx, d, work[depth:], dst, p)
	sc.Work = work[:0]
	ix.ReleaseScratch(sc)
	if err != nil {
		return dst[:0], err
	}
	return dst, nil
}

// ------------------------------------------------------------------
// Parallel EvalNamed: posting-list scans
// ------------------------------------------------------------------

// EvalNamedPar is EvalNamedInto with a worker budget: the posting-list
// serving axes (descendant, following, preceding, child) chunk the
// posting sub-slices across workers when the scan length clears
// parMinSpan. Results are element-for-element identical to
// EvalNamedInto.
func EvalNamedPar(ctx context.Context, d *xmltree.Document, a Axis, s xmltree.NodeSet, name string, dst xmltree.NodeSet, p int) (xmltree.NodeSet, error) {
	if p > 1 && len(s) > 0 {
		ix := d.Index()
		switch a {
		case Descendant, DescendantOrSelf:
			return parNamedCopy(ctx, d, ix, a, s, name, dst, p)

		case Following:
			min := ix.SubtreeEnd(s[0])
			for _, x := range s[1:] {
				if e := ix.SubtreeEnd(x); e < min {
					min = e
				}
			}
			return parNamedCopyRange(ctx, d, ix, name, min, xmltree.NodeID(d.Len()), dst, p)

		case Preceding:
			max := s[len(s)-1]
			sub := ix.NamedRange(name, 0, max)
			if len(sub) >= parMinSpan {
				return parNamedFilter(ctx, sub, dst, p, func(y xmltree.NodeID) bool {
					return ix.SubtreeEnd(y) <= max
				})
			}

		case Child:
			if len(s) == 1 {
				x := s[0]
				sub := ix.NamedRange(name, x+1, ix.SubtreeEnd(x))
				if len(sub) >= parMinSpan {
					return parNamedFilter(ctx, sub, dst, p, func(y xmltree.NodeID) bool {
						return d.Parent(y) == x
					})
				}
			} else if named := ix.Named(name); len(named) >= parMinSpan {
				sc := ix.AcquireScratch()
				sc.Mark.AddSet(s)
				out, err := parNamedFilter(ctx, named, dst, p, func(y xmltree.NodeID) bool {
					pa := d.Parent(y)
					return pa != xmltree.NilNode && sc.Mark.Has(pa)
				})
				for _, x := range s {
					sc.Mark.Remove(x)
				}
				ix.ReleaseScratch(sc)
				return out, err
			}
		}
	}
	if err := ctxErr(ctx); err != nil {
		return dst[:0], err
	}
	return EvalNamedInto(d, a, s, name, dst), nil
}

// parNamedCopy copies the posting sub-slices of the merged subtree
// intervals of s into dst in parallel.
func parNamedCopy(ctx context.Context, d *xmltree.Document, ix *xmltree.Index, a Axis, s xmltree.NodeSet, name string, dst xmltree.NodeSet, p int) (xmltree.NodeSet, error) {
	// First pass over s: total matches, to apply the size floor before
	// building chunks.
	total := 0
	end := xmltree.NodeID(0)
	for _, x := range s {
		if x < end {
			continue
		}
		lo, hi := x, ix.SubtreeEnd(x)
		if a == Descendant {
			lo++
		}
		total += len(ix.NamedRange(name, lo, hi))
		end = hi
	}
	if total < parMinSpan {
		if err := ctxErr(ctx); err != nil {
			return dst[:0], err
		}
		return EvalNamedInto(d, a, s, name, dst), nil
	}
	named := ix.Named(name)
	sc := ix.AcquireScratch()
	work := sc.Work[:0]
	off := 0
	end = 0
	for _, x := range s {
		if x < end {
			continue
		}
		lo, hi := x, ix.SubtreeEnd(x)
		if a == Descendant {
			lo++
		}
		sub := ix.NamedRange(name, lo, hi)
		end = hi
		if len(sub) == 0 {
			continue
		}
		work, off = appendPostingChunks(work, namedIndex(named, sub[0]), len(sub), off)
	}
	dst = growTo(dst, off)
	err := parRunCopy(ctx, named, work, dst, p)
	sc.Work = work[:0]
	ix.ReleaseScratch(sc)
	if err != nil {
		return dst[:0], err
	}
	return dst, nil
}

// parNamedCopyRange copies NamedRange(name, lo, hi) into dst in
// parallel.
func parNamedCopyRange(ctx context.Context, d *xmltree.Document, ix *xmltree.Index, name string, lo, hi xmltree.NodeID, dst xmltree.NodeSet, p int) (xmltree.NodeSet, error) {
	sub := ix.NamedRange(name, lo, hi)
	if len(sub) < parMinSpan {
		if err := ctxErr(ctx); err != nil {
			return dst[:0], err
		}
		dst = append(dst[:0], sub...)
		return dst, nil
	}
	named := ix.Named(name)
	sc := ix.AcquireScratch()
	work, off := appendPostingChunks(sc.Work[:0], namedIndex(named, sub[0]), len(sub), 0)
	dst = growTo(dst, off)
	err := parRunCopy(ctx, named, work, dst, p)
	sc.Work = work[:0]
	ix.ReleaseScratch(sc)
	if err != nil {
		return dst[:0], err
	}
	return dst, nil
}

// namedIndex locates the posting-list index of the first element of a
// sub-slice of named (binary search; sub-slices of NamedRange always
// alias named).
func namedIndex(named xmltree.NodeSet, first xmltree.NodeID) int {
	lo, hi := 0, len(named)
	for lo < hi {
		mid := (lo + hi) / 2
		if named[mid] < first {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// appendPostingChunks splits the posting-list index range
// [src, src+n) into parChunkSpan pieces as (srcLo, srcHi, dstOff)
// triples.
func appendPostingChunks(work []xmltree.NodeID, src, n, off int) ([]xmltree.NodeID, int) {
	for n > 0 {
		step := parChunkSpan
		if step > n {
			step = n
		}
		work = append(work, xmltree.NodeID(src), xmltree.NodeID(src+step), xmltree.NodeID(off))
		src, n, off = src+step, n-step, off+step
	}
	return work, off
}

// parRunCopy executes posting-chunk triples as straight copies.
func parRunCopy(ctx context.Context, named xmltree.NodeSet, work []xmltree.NodeID, dst xmltree.NodeSet, p int) error {
	var fail parFail
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	xmltree.ParDo(p, len(work)/3, func(k int) {
		if fail.err() != nil {
			return
		}
		if done != nil {
			select {
			case <-done:
				fail.set(ctx.Err())
				return
			default:
			}
		}
		lo, hi, off := int(work[3*k]), int(work[3*k+1]), int(work[3*k+2])
		copy(dst[off:off+(hi-lo)], named[lo:hi])
	})
	return fail.err()
}

// parNamedFilter restricts a posting sub-slice by a per-node predicate
// with a two-pass count-then-fill, so the output is dense, ordered and
// written without inter-worker coordination.
func parNamedFilter(ctx context.Context, sub xmltree.NodeSet, dst xmltree.NodeSet, p int, keep func(xmltree.NodeID) bool) (xmltree.NodeSet, error) {
	nchunks := (len(sub) + parChunkSpan - 1) / parChunkSpan
	counts := make([]int, nchunks)
	var fail parFail
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	xmltree.ParDo(p, nchunks, func(k int) {
		if fail.err() != nil {
			return
		}
		if done != nil {
			select {
			case <-done:
				fail.set(ctx.Err())
				return
			default:
			}
		}
		lo, hi := k*parChunkSpan, (k+1)*parChunkSpan
		if hi > len(sub) {
			hi = len(sub)
		}
		n := 0
		for _, y := range sub[lo:hi] {
			if keep(y) {
				n++
			}
		}
		counts[k] = n
	})
	if err := fail.err(); err != nil {
		return dst[:0], err
	}
	total := 0
	for k, n := range counts {
		counts[k] = total
		total += n
	}
	dst = growTo(dst, total)
	xmltree.ParDo(p, nchunks, func(k int) {
		if fail.err() != nil {
			return
		}
		if done != nil {
			select {
			case <-done:
				fail.set(ctx.Err())
				return
			default:
			}
		}
		lo, hi := k*parChunkSpan, (k+1)*parChunkSpan
		if hi > len(sub) {
			hi = len(sub)
		}
		off := counts[k]
		for _, y := range sub[lo:hi] {
			if keep(y) {
				dst[off] = y
				off++
			}
		}
	})
	if err := fail.err(); err != nil {
		return dst[:0], err
	}
	return dst, nil
}
