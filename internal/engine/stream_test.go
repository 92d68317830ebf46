package engine

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
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

// TestPanickingQueryFailsAlone: a panic inside an evaluation — here on a
// nil compiled query, planted in the cache for the batch — is that
// query's ErrInternal, on the caller's goroutine and on a batch worker
// alike: the other jobs of the batch are answered, the error is counted
// and nothing stays in flight. The stack is logged once per panic, under
// the request's ID.
func TestPanickingQueryFailsAlone(t *testing.T) {
	var logged bytes.Buffer
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))

	for _, workers := range []int{1, 4} {
		e := New(Options{Workers: workers})
		s := e.NewSession(workload.Catalog(20))
		ctx := obs.WithRequestID(context.Background(), "req-42")
		if _, err := s.EvaluateContext(ctx, nil); !errors.Is(err, ErrInternal) {
			t.Fatalf("workers=%d: EvaluateContext(nil query) err = %v, want ErrInternal", workers, err)
		}
		e.cache.add("boom", nil, 0)
		queries := []string{"count(//product)", "boom", "count(//name)", "boom"}
		got := make([]Result, len(queries))
		if err := s.StreamBatch(ctx, queries, func(i int, res Result) { got[i] = res }); err != nil {
			t.Fatalf("workers=%d: StreamBatch err = %v", workers, err)
		}
		for i, res := range got {
			if queries[i] == "boom" {
				if !errors.Is(res.Err, ErrInternal) {
					t.Errorf("workers=%d job %d: err = %v, want ErrInternal", workers, i, res.Err)
				}
			} else if res.Err != nil || res.Value.Num != 20 {
				t.Errorf("workers=%d job %d (%s): %v, %v; want 20, nil", workers, i, res.Query, res.Value.Num, res.Err)
			}
		}
		if n := e.metrics.errors.Value(); n != 3 {
			t.Errorf("workers=%d: xpath_query_errors_total = %d, want 3", workers, n)
		}
		if st := e.Stats(); st.InFlight != 0 {
			t.Errorf("workers=%d: in-flight leaked after the panics: %+v", workers, st)
		}
	}
	if n := strings.Count(logged.String(), "evaluator panic"); n != 6 {
		t.Errorf("%d panics logged, want 6 (one line each):\n%s", n, logged.String())
	}
	if n := strings.Count(logged.String(), "request_id=req-42"); n != 6 {
		t.Errorf("%d log lines carry the request ID, want 6", n)
	}
	if !strings.Contains(logged.String(), "session.go") {
		t.Errorf("the log carries no stack:\n%s", logged.String())
	}
}
