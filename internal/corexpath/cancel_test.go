// Package corexpath_test holds the Core XPath gate's own tests: the
// language of Section 10.1 is evaluated by internal/xpatterns (one set
// algebra, two admission checks), and these files exercise it through
// InCoreXPath.
package corexpath_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/semantics"
	"repro/internal/workload"
	"repro/internal/xpath"
	"repro/internal/xpatterns"
)

// slowQuery is a legitimate Core XPath query whose evaluation chains
// hundreds of O(|D|) axis applications: linear time, but with a |Q|
// factor large enough that the full run takes seconds on slowDoc.
func slowQuery() xpath.Expr {
	q := "//*" + strings.Repeat("/following::*/preceding::*", 200)
	e := xpath.MustParse(q)
	if !xpatterns.InCoreXPath(e) {
		panic("slowQuery left the Core XPath fragment")
	}
	return e
}

// TestEvaluateContextCancelsPromptly cancels a context mid-evaluation
// and asserts the evaluator returns context.Canceled within the
// checkpoint latency (one O(|D|) set operation), not after finishing
// the multi-second chain. Run under -race in CI.
func TestEvaluateContextCancelsPromptly(t *testing.T) {
	d := workload.Doc(30000)
	e := slowQuery()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := xpatterns.New(d).EvaluateContext(ctx, e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the step chain get going
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

// TestMatchSetContextCancelled pins the regression the cancelcheck
// analyzer guards against: MatchSet's whole-document scans (the dom
// fill, testSet) bill the throttled checkpoint, so on a document past
// the checkpoint granularity (1024 nodes) an already-cancelled context
// observably stops the match instead of scanning to completion.
func TestMatchSetContextCancelled(t *testing.T) {
	d := workload.Doc(5000) // > one checkpoint interval of billed units
	e := xpath.MustParse("child::b")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first O(|D|) operation
	if _, err := xpatterns.New(d).MatchSetContext(ctx, e); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMatchSetContextUncancelled pins down that a live context leaves
// the match semantics untouched.
func TestMatchSetContextUncancelled(t *testing.T) {
	d := workload.Doc(8)
	e := xpath.MustParse("child::b")
	want, err := xpatterns.New(d).MatchSet(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := xpatterns.New(d).MatchSetContext(ctx, e)
	if err != nil || !got.Equal(want) {
		t.Fatalf("MatchSetContext = %v, %v; want %v, nil", got, err, want)
	}
}

// TestEvaluateContextUncancelled pins down that a context that is never
// cancelled changes nothing about the result.
func TestEvaluateContextUncancelled(t *testing.T) {
	d := workload.Doc(8)
	e := xpath.MustParse("//b")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	v, err := xpatterns.New(d).EvaluateContext(ctx, e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
	if err != nil || len(v.Set) != 8 {
		t.Fatalf("got %d nodes, %v; want 8, nil", len(v.Set), err)
	}
}
