package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestStreamBatchEmitsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := New(Options{Workers: workers})
		s := e.NewSession(workload.Catalog(20))
		queries := []string{"count(//product)", "//[", "sum(//price) > 0", "count(//name)"}
		seen := make([]bool, len(queries))
		n := 0
		err := s.StreamBatch(context.Background(), queries, func(i int, res Result) {
			if seen[i] {
				t.Errorf("workers=%d index %d emitted twice", workers, i)
			}
			seen[i] = true
			n++
			if res.Query != queries[i] {
				t.Errorf("workers=%d index %d carries query %q, want %q", workers, i, res.Query, queries[i])
			}
		})
		if err != nil {
			t.Fatalf("workers=%d StreamBatch err = %v", workers, err)
		}
		if n != len(queries) {
			t.Fatalf("workers=%d emitted %d results, want %d", workers, n, len(queries))
		}
	}
}

func TestStreamBatchCancelledUpFront(t *testing.T) {
	e := New(Options{Workers: 4})
	s := e.NewSession(workload.Catalog(10))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := make([]string, 64)
	for i := range queries {
		queries[i] = "count(//product)"
	}
	err := s.StreamBatch(ctx, queries, func(int, Result) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := e.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight leaked after cancellation: %+v", st)
	}
}

// TestFallbackOnTableLimit checks the serving-layer auto-fallback: with
// Options.Fallback set, a query whose bottom-up tables trip the row
// limit is transparently retried on MinContext and succeeds, and the
// retry is counted.
func TestFallbackOnTableLimit(t *testing.T) {
	e := New(Options{Strategy: core.BottomUp, MaxTableRows: 8, Fallback: true})
	s := e.NewSession(workload.Catalog(30))
	res := s.Do("count(//product[position() = last()])")
	if res.Err != nil {
		t.Fatalf("fallback did not rescue the query: %v", res.Err)
	}
	if !res.FellBack || res.Strategy != core.MinContext {
		t.Fatalf("Result.FellBack = %v, Strategy = %v; want the MinContext retry reported", res.FellBack, res.Strategy)
	}
	if res.Value.Num != 1 {
		t.Fatalf("fallback value = %v, want 1", res.Value.Num)
	}
	if st := e.Stats(); st.Fallbacks != 1 {
		t.Fatalf("Stats.Fallbacks = %d, want 1", st.Fallbacks)
	}
}

func TestCompileTimeSavedAccumulates(t *testing.T) {
	e := New(Options{})
	if _, err := e.Compile("count(//product[child::price > 10])"); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CompileNanosSaved != 0 {
		t.Fatalf("saved %d ns before any hit", st.CompileNanosSaved)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Compile("count(//product[child::price > 10])"); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Hits != 3 || st.CompileNanosSaved == 0 {
		t.Fatalf("stats = %+v, want 3 hits and saved > 0", st)
	}
}
