package axes

// Parallel-vs-sequential equality: EvalPar/EvalNamedPar/EvalInversePar
// must be element-for-element identical to their sequential
// counterparts on randomized documents for every axis and for
// parallelism in {0, 1, 2, 8} — run under -race in CI, so chunk
// handoff and scratch reuse are exercised under the detector. The
// thresholds are shrunk so the small property documents actually take
// the parallel paths.

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// shrinkPar drops the size floors so small documents parallelize, and
// restores them when the test ends.
func shrinkPar(t *testing.T) {
	minSpan, chunkSpan := parMinSpan, parChunkSpan
	parMinSpan, parChunkSpan = 2, 3
	t.Cleanup(func() { parMinSpan, parChunkSpan = minSpan, chunkSpan })
}

func TestEvalParMatchesSequential(t *testing.T) {
	shrinkPar(t)
	r := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for round := 0; round < 40; round++ {
		d := randDoc(r, 5+r.Intn(200))
		for trial := 0; trial < 3; trial++ {
			s := randSet(r, d)
			if len(s) == 0 {
				s = xmltree.NodeSet{d.RootID()}
			}
			for _, a := range allAxes {
				want := Eval(d, a, s)
				for _, p := range []int{0, 1, 2, 8} {
					got, err := EvalPar(ctx, d, a, s, nil, p)
					if err != nil {
						t.Fatalf("EvalPar(%s, p=%d): %v", a, p, err)
					}
					if !got.Equal(want) {
						t.Fatalf("round %d: EvalPar(%s, p=%d) = %v, sequential = %v\ndoc: %s",
							round, a, p, got, want, d.XMLString())
					}
				}
				gotInv, err := EvalInversePar(ctx, d, a, s)
				if err != nil {
					t.Fatalf("EvalInversePar(%s): %v", a, err)
				}
				if wantInv := EvalInverse(d, a, s); !gotInv.Equal(wantInv) {
					t.Fatalf("round %d: EvalInversePar(%s) = %v, EvalInverse = %v",
						round, a, gotInv, wantInv)
				}
			}
		}
	}
}

func TestEvalNamedParMatchesSequential(t *testing.T) {
	shrinkPar(t)
	r := rand.New(rand.NewSource(12))
	ctx := context.Background()
	for round := 0; round < 40; round++ {
		d := randDoc(r, 5+r.Intn(200))
		for trial := 0; trial < 3; trial++ {
			s := randSet(r, d)
			if len(s) == 0 {
				s = xmltree.NodeSet{d.RootID()}
			}
			for _, a := range allAxes {
				for _, name := range []string{"a", "b", "absent"} {
					want := EvalNamed(d, a, s, name)
					for _, p := range []int{0, 1, 2, 8} {
						got, err := EvalNamedPar(ctx, d, a, s, name, nil, p)
						if err != nil {
							t.Fatalf("EvalNamedPar(%s::%s, p=%d): %v", a, name, p, err)
						}
						if !got.Equal(want) {
							t.Fatalf("round %d: EvalNamedPar(%s::%s, p=%d) = %v, sequential = %v\ndoc: %s",
								round, a, name, s, got, want, d.XMLString())
						}
					}
				}
			}
		}
	}
}

// TestEvalParBufferReuse drives the parallel paths through a reused
// output buffer and randomized parallelism, the way the engines hold
// them: stale buffer contents or dirty pooled scratch would corrupt
// later rounds.
func TestEvalParBufferReuse(t *testing.T) {
	shrinkPar(t)
	r := rand.New(rand.NewSource(13))
	ctx := context.Background()
	d := randDoc(r, 300)
	var buf xmltree.NodeSet
	for round := 0; round < 60; round++ {
		s := randSet(r, d)
		if len(s) == 0 {
			continue
		}
		a := allAxes[r.Intn(len(allAxes))]
		p := []int{0, 1, 2, 8}[r.Intn(4)]
		var err error
		buf, err = EvalPar(ctx, d, a, s, buf, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := Eval(d, a, s); !buf.Equal(want) {
			t.Fatalf("round %d: reused-buffer EvalPar(%s, p=%d) = %v, want %v", round, a, p, buf, want)
		}
	}
}

// TestEvalParCancelled: a pre-cancelled context must abort the
// parallel fill with the context's error.
func TestEvalParCancelled(t *testing.T) {
	shrinkPar(t)
	r := rand.New(rand.NewSource(14))
	d := randDoc(r, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := xmltree.NodeSet{d.RootID()}
	if _, err := EvalPar(ctx, d, Descendant, s, nil, 8); err != context.Canceled {
		t.Fatalf("EvalPar on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := EvalNamedPar(ctx, d, Child, xmltree.NodeSet{0, 1, 2}, "a", nil, 8); err != context.Canceled {
		t.Fatalf("EvalNamedPar on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestEvalParCancelMidEvaluation cancels concurrently with running
// parallel fills: every worker must observe the abort flag and exit —
// proven by EvalPar returning the context error promptly and the
// shared pool staying healthy for the correct evaluation that follows.
func TestEvalParCancelMidEvaluation(t *testing.T) {
	shrinkPar(t)
	r := rand.New(rand.NewSource(15))
	d := randDoc(r, 4000)
	s := xmltree.NodeSet{d.RootID()}
	want := Eval(d, Descendant, s)

	sawCancel := false
	for round := 0; round < 50 && !sawCancel; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(r.Intn(50)) * time.Microsecond)
			cancel()
		}()
		got, err := EvalPar(ctx, d, Descendant, s, nil, 8)
		wg.Wait()
		switch err {
		case nil:
			// Cancel landed after the fill finished: result must be right.
			if !got.Equal(want) {
				t.Fatalf("round %d: uncancelled result diverged", round)
			}
		case context.Canceled:
			sawCancel = true
		default:
			t.Fatalf("round %d: unexpected error %v", round, err)
		}
	}
	if !sawCancel {
		t.Log("no mid-evaluation cancellation landed; timing-dependent")
	}
	// The pool must be fully drained and reusable after cancellation.
	got, err := EvalPar(context.Background(), d, Descendant, s, nil, 8)
	if err != nil || !got.Equal(want) {
		t.Fatalf("post-cancel evaluation broken: err=%v", err)
	}
}
