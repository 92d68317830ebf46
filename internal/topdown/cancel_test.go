package topdown

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

// TestEvaluateContextCancelsPromptly cancels a context mid-evaluation
// on a document large enough that the vectorized evaluation takes
// seconds (O(|D|²) across the predicate's contexts) and asserts the
// evaluator returns context.Canceled within the checkpoint latency.
// Run under -race in CI.
func TestEvaluateContextCancelsPromptly(t *testing.T) {
	d := workload.Doc(5000)
	e := xpath.MustParse("count(//*[count(preceding::*) > count(following::*)])")
	ev := New(d)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := ev.EvaluateContext(ctx, e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the vector evaluation get going
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

// TestPredicateFreeStepsConsultTheContext: a path of steps without
// predicates is billed by the nodes it reaches, so a cancelled context
// stops it — not only the next 1 024 evaluator calls.
func TestPredicateFreeStepsConsultTheContext(t *testing.T) {
	d := xmltree.MustParseString("<r>" + strings.Repeat("<a><b/></a>", 20000) + "</r>")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []string{"/descendant::b", "count(/descendant::a/child::b)"} {
		if v, err := New(d).EvaluateContext(ctx, xpath.MustParse(q), semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: %d nodes, number %v, %v; want context.Canceled", q, len(v.Set), v.Num, err)
		}
	}
}

// TestEvaluateContextUncancelled pins down that a context that is never
// cancelled changes nothing about the result.
func TestEvaluateContextUncancelled(t *testing.T) {
	d := workload.Doc(8)
	e := xpath.MustParse("count(//b)")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	v, err := New(d).EvaluateContext(ctx, e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
	if err != nil || v.Num != 8 {
		t.Fatalf("got %v, %v; want 8, nil", v.Num, err)
	}
}
