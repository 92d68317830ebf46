package xpatterns

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/semantics"
	"repro/internal/workload"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestEvaluateContextCancelsPromptly cancels mid-evaluation of a long
// chain of O(|D|) axis applications (a legitimate XPatterns query —
// the fragment subsumes Core XPath paths) and asserts the evaluator
// returns context.Canceled within the checkpoint latency instead of
// finishing the multi-second run. Run under -race in CI.
func TestEvaluateContextCancelsPromptly(t *testing.T) {
	d := workload.Doc(30000)
	q := "//*" + strings.Repeat("/following::*/preceding::*", 200)
	e := xpath.MustParse(q)
	if !InFragment(e) {
		t.Fatal("chain query left the XPatterns fragment")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := New(d).EvaluateContext(ctx, e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
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
// analyzer guards against: the dom fill and the "=s" string-search
// scan bill the throttled checkpoint, so on a document past the
// checkpoint granularity (1024 nodes) an already-cancelled context
// observably stops the match instead of scanning to completion.
func TestMatchSetContextCancelled(t *testing.T) {
	d := workload.Doc(5000) // > one checkpoint interval of billed units
	e := xpath.MustParse("//b[. = 'nope']")
	if !InFragment(e) {
		t.Fatal("query left the XPatterns fragment")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first O(|D|) operation
	if _, err := New(d).MatchSetContext(ctx, e); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMatchSetContextUncancelled pins down that a live context leaves
// the match semantics untouched.
func TestMatchSetContextUncancelled(t *testing.T) {
	d := workload.DocPrime(8)
	e := xpath.MustParse("//b[. = 'c']")
	want, err := New(d).MatchSet(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := New(d).MatchSetContext(ctx, e)
	if err != nil || !got.Equal(want) {
		t.Fatalf("MatchSetContext = %v, %v; want %v, nil", got, err, want)
	}
}

// TestEvaluateContextUncancelled pins down that a context that is never
// cancelled changes nothing about the result, including through the
// id-axis and "=s" machinery unique to this fragment.
func TestEvaluateContextUncancelled(t *testing.T) {
	d := workload.DocPrime(8)
	e := xpath.MustParse("//b[. = 'c']")
	if !InFragment(e) {
		t.Fatal("query left the XPatterns fragment")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	v, err := New(d).EvaluateContext(ctx, e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
	if err != nil || len(v.Set) != 8 {
		t.Fatalf("got %d nodes, %v; want 8, nil", len(v.Set), err)
	}
}

// TestCancelledEvaluationLeavesNoState: the canceller belongs to one
// evaluation, not to the evaluator. After an EvaluateContext whose
// context was already cancelled — over a document large enough for the
// throttled checkpoint to consult it — every later call on the same
// evaluator that takes no context runs to completion. (The evaluator
// once kept the canceller in a field only the …Context entry points
// reset.)
func TestCancelledEvaluationLeavesNoState(t *testing.T) {
	d := xmltree.MustParseString("<a>" + strings.Repeat("<b/>", 5000) + "</a>")
	ev := New(d)
	e := xpath.MustParse("//b[not(c)]")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ev.EvaluateContext(ctx, e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled evaluation: err = %v, want context.Canceled", err)
	}
	if v, err := ev.EvaluateContext(context.Background(), e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}); err != nil || len(v.Set) != 5000 {
		t.Errorf("EvaluateContext after a cancelled evaluation: %d nodes, %v; want 5000, nil", len(v.Set), err)
	}
	if s, err := ev.MatchSet(e); err != nil || len(s) != 5000 {
		t.Errorf("MatchSet after a cancelled evaluation: %d nodes, %v; want 5000, nil", len(s), err)
	}
	for name, b := range map[string][2]bool{
		"first-of-any": {true, false}, "last-of-any": {false, false}, "first-of-type": {true, true}, "last-of-type": {false, true},
	} {
		if s, err := boundary(ev, b[0], b[1]); err != nil || len(s) != 2 {
			t.Errorf("%s after a cancelled evaluation: %v, %v; want a and one b", name, s, err)
		}
	}
}

// TestSharedEvaluator runs one evaluator from eight goroutines at once,
// half of them under contexts that are already cancelled: an evaluator
// holds only the document, so the live ones get their answer and the
// race detector stays silent. Run under -race in CI.
func TestSharedEvaluator(t *testing.T) {
	d := xmltree.MustParseString("<a>" + strings.Repeat("<b><c>x</c></b><b/>", 2500) + "</a>")
	ev := New(d)
	e := xpath.MustParse("//b[not(c = 'x') or c]")
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, want := context.Background(), error(nil)
			if g%2 == 1 {
				ctx, want = dead, context.Canceled
			}
			for i := 0; i < 20; i++ {
				v, err := ev.EvaluateContext(ctx, e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
				if !errors.Is(err, want) || err == nil && len(v.Set) != 5000 {
					t.Errorf("goroutine %d: %d nodes, err %v; want err %v", g, len(v.Set), err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
