package naive

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/semantics"
	"repro/internal/workload"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestEvaluateContextCancelsPromptly starts an exponential evaluation
// that would run for hours (the Section 2 recurrence on an Experiment 1
// query, unbudgeted) and asserts cancellation abandons it within the
// checkpoint latency. Before this engine carried checkpoints, the only
// way out was the step Budget. Run under -race in CI.
func TestEvaluateContextCancelsPromptly(t *testing.T) {
	d := workload.Doc(6)
	e := xpath.MustParse(workload.Exp1Query(30))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := New(d).EvaluateContext(ctx, e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the recursion fan out
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("evaluation did not return promptly after cancellation")
	}
}

// TestEvaluateContextUncancelled pins down that a context that is never
// cancelled changes nothing: same value, and the step Budget still
// governs.
func TestEvaluateContextUncancelled(t *testing.T) {
	d := workload.Doc(8)
	e := xpath.MustParse("count(//b)")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	v, err := New(d).EvaluateContext(ctx, e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
	if err != nil || v.Num != 8 {
		t.Fatalf("got %v, %v; want 8, nil", v.Num, err)
	}
	ev := New(d)
	ev.Budget = 3
	if _, err := ev.EvaluateContext(ctx, e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}); !errors.Is(err, ErrBudget) {
		t.Fatalf("budget err = %v, want ErrBudget", err)
	}
}

// TestCancelledContextStopsWideStep: a step bills the canceller by the
// nodes it reaches, so a predicate-free path over a large document
// still sees a context cancelled before the run starts.
func TestCancelledContextStopsWideStep(t *testing.T) {
	d := xmltree.MustParseString("<r>" + strings.Repeat("<a><b/></a>", 20000) + "</r>")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, err := New(d).EvaluateContext(ctx, xpath.MustParse("/descendant::b"), semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %d nodes, err = %v; want context.Canceled", len(v.Set), err)
	}
}
