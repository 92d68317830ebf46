package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestCompileCaches: a text's first miss is compiled but not cached,
// its second is admitted, and from then on it hits.
func TestCompileCaches(t *testing.T) {
	e := New(Options{})
	var qs [3]*core.Query
	for i := range qs {
		q, err := e.Compile("//product/name")
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	if qs[0] == qs[1] {
		t.Fatal("the first sighting was cached")
	}
	if qs[1] != qs[2] {
		t.Fatal("third Compile did not return the cached query")
	}
	st := e.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Rejects != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses, 1 reject, size 1", st)
	}
	if got := st.HitRate(); got != 1.0/3 {
		t.Fatalf("hit rate = %v, want 1/3", got)
	}
}

func TestCompileErrorNotCached(t *testing.T) {
	e := New(Options{})
	for i := 0; i < 2; i++ {
		if _, err := e.Compile("//["); err == nil {
			t.Fatal("want compile error")
		}
	}
	if st := e.Stats(); st.Size != 0 {
		t.Fatalf("error was cached: %+v", st)
	}
}

func TestSessionQuery(t *testing.T) {
	e := New(Options{})
	s := e.NewSession(workload.Catalog(10))
	v, err := s.Query("count(//product)")
	if err != nil {
		t.Fatal(err)
	}
	if v.Num != 10 {
		t.Fatalf("count(//product) = %v, want 10", v.Num)
	}
}

func TestBatchOrderAndErrors(t *testing.T) {
	e := New(Options{Workers: 4})
	s := e.NewSession(workload.Catalog(25))
	queries := []string{
		"count(//product)",
		"//[",            // compile error
		"$undefined + 1", // variable reference: refused by the parser
		"count(//product[child::discontinued])",
		"count(//no-such-tag)",
	}
	results := s.Batch(queries)
	if len(results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(results), len(queries))
	}
	for i, res := range results {
		if res.Query != queries[i] {
			t.Fatalf("result %d is for %q, want %q (order not preserved)", i, res.Query, queries[i])
		}
	}
	if results[0].Err != nil || results[0].Value.Num != 25 {
		t.Fatalf("result 0 = %+v, want 25", results[0])
	}
	if results[1].Err == nil || results[2].Err == nil {
		t.Fatal("invalid queries did not report errors")
	}
	if !strings.Contains(results[2].Err.Error(), "offset 0: variable references are not supported") {
		t.Fatalf("result 2 error = %v, want the parser's refusal at the $", results[2].Err)
	}
	if results[4].Err != nil || results[4].Value.Num != 0 {
		t.Fatalf("result 4 = %+v, want 0", results[4])
	}
}

// TestBatchLargeConcurrent pushes a batch much larger than the pool
// through every worker count under -race and checks every slot.
func TestBatchLargeConcurrent(t *testing.T) {
	d := workload.Catalog(40)
	for _, workers := range []int{1, 2, 8} {
		e := New(Options{Workers: workers, CacheSize: 16})
		s := e.NewSession(d)
		const n = 200
		queries := make([]string, n)
		for i := range queries {
			// 8 distinct query strings so the cache serves most of the
			// batch while every result stays predictable.
			queries[i] = fmt.Sprintf("count(//product) + %d", i%8)
		}
		results := s.Batch(queries)
		for i, res := range results {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if want := float64(40 + i%8); res.Value.Num != want {
				t.Fatalf("workers=%d result %d = %v, want %v", workers, i, res.Value.Num, want)
			}
		}
		if st := e.Stats(); st.Hits == 0 || st.InFlight != 0 {
			t.Fatalf("workers=%d stats = %+v, want hits > 0 and no in-flight left", workers, st)
		}
	}
}

// TestSharedQueryAcrossDocuments is the regression test for compiled-
// query reuse: two goroutines evaluate the *same* compiled query
// (shared via the cache) over two different documents concurrently and
// must not interfere — compiled queries hold no evaluation state.
func TestSharedQueryAcrossDocuments(t *testing.T) {
	e := New(Options{})
	small := e.NewSession(workload.Catalog(15))
	large := e.NewSession(workload.Catalog(60))
	const src = "count(//product[child::price])"
	// Establish per-document expectations once, sequentially.
	wantSmall, err := small.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	wantLarge, err := large.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if wantSmall.Num == wantLarge.Num {
		t.Fatalf("test documents are indistinguishable (both %v)", wantSmall.Num)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	run := func(s *Session, want core.Value) {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			v, err := s.Query(src)
			if err != nil {
				errs <- err
				return
			}
			if !v.Equal(want) {
				errs <- fmt.Errorf("document %d nodes: got %v, want %v",
					s.Document().Len(), v.Num, want.Num)
				return
			}
		}
	}
	wg.Add(2)
	go run(small, wantSmall)
	go run(large, wantLarge)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Misses != 2 || st.Size != 1 {
		t.Fatalf("stats = %+v, want exactly two compiles for one distinct query (the first is not cached)", st)
	}
}

// TestConcurrentMixedTraffic drives many goroutines, documents and
// query strings through one engine under -race: the serving scenario.
func TestConcurrentMixedTraffic(t *testing.T) {
	e := New(Options{CacheSize: 4, Workers: 2})
	sessions := []*Session{
		e.NewSession(workload.Catalog(10)),
		e.NewSession(workload.Catalog(20)),
		e.NewSession(workload.Auction(1, 30)),
	}
	queries := []string{
		"count(//product)",
		"//product[child::discontinued]/child::name",
		"count(descendant::*)",
		"sum(//price)",
		"count(//item)",
		"//person/child::name",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := sessions[(g+i)%len(sessions)]
				if (g+i)%2 == 0 {
					if _, err := s.Query(queries[i%len(queries)]); err != nil {
						t.Error(err)
						return
					}
				} else {
					for _, res := range s.Batch(queries[:3]) {
						if res.Err != nil {
							t.Error(res.Err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := e.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight count leaked: %+v", st)
	}
	if st.Size > 4 {
		t.Fatalf("cache overflowed its capacity: %+v", st)
	}
}
