package evalutil

import (
	"context"
	"sync/atomic"

	"repro/internal/axes"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Parallel variants of the step-candidate helpers. Chunks of the input
// set are matched on pool workers and concatenated in chunk order, so
// the output is element-for-element identical to the sequential
// FilterTest/StepCandidatesSet for any worker budget. Each worker
// bills its own chunk against a per-chunk Canceller, mirroring the
// sequential CheckN discipline.

// Variables so tests can shrink them and exercise the parallel paths
// on small documents.
var (
	// filterParMin is the input size floor below which FilterTestPar
	// runs sequentially.
	filterParMin = 4096

	// filterChunk is the per-chunk node count; at least checkEvery, so
	// the per-chunk CheckN consults the context every chunk.
	filterChunk = 2048
)

// parFail records the first worker error; later chunks observe it and
// return immediately, so a cancelled scan winds down in one chunk per
// worker.
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

// FilterTestPar is FilterTest with a worker budget and cooperative
// cancellation. The node-test scan is the dominant cost of non-exact
// steps (t.Matches per candidate), so it chunks across the pool; p <= 1
// or small inputs take the sequential path after one bulk bill.
func FilterTestPar(ctx context.Context, d *xmltree.Document, a axes.Axis, t xpath.NodeTest, s xmltree.NodeSet, p int) (xmltree.NodeSet, error) {
	if p <= 1 || len(s) < filterParMin {
		if err := NewCanceller(ctx).CheckN(len(s)); err != nil {
			return nil, err
		}
		return FilterTest(d, a, t, s), nil
	}
	principal := a.PrincipalType()
	nchunks := (len(s) + filterChunk - 1) / filterChunk
	outs := make([]xmltree.NodeSet, nchunks)
	var fail parFail
	xmltree.ParDo(p, nchunks, func(k int) {
		if fail.err() != nil {
			return
		}
		lo, hi := k*filterChunk, (k+1)*filterChunk
		if hi > len(s) {
			hi = len(s)
		}
		// Each worker bills its own chunk.
		if err := NewCanceller(ctx).CheckN(hi - lo); err != nil {
			fail.set(err)
			return
		}
		out := make(xmltree.NodeSet, 0, hi-lo)
		for _, y := range s[lo:hi] {
			if t.Matches(d, principal, y) {
				out = append(out, y)
			}
		}
		outs[k] = out
	})
	if err := fail.err(); err != nil {
		return nil, err
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := make(xmltree.NodeSet, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	return out, nil
}

// StepCandidatesSetPar is StepCandidatesSet with a worker budget:
// exact element name steps route to the parallel posting-list scans,
// everything else to the parallel axis image + parallel node-test
// filter. Results are identical to StepCandidatesSet.
func StepCandidatesSetPar(ctx context.Context, d *xmltree.Document, a axes.Axis, t xpath.NodeTest, xs xmltree.NodeSet, p int) (xmltree.NodeSet, error) {
	if ExactElementName(a, t) {
		return axes.EvalNamedPar(ctx, d, a, xs, t.Name, nil, p)
	}
	img, err := axes.EvalPar(ctx, d, a, xs, nil, p)
	if err != nil || t.Kind == xpath.TestNode {
		return img, err // node() keeps every node of the image
	}
	return FilterTestPar(ctx, d, a, t, img, p)
}
