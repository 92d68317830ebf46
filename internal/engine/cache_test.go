package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
)

func TestCacheHitMissEviction(t *testing.T) {
	c := newQueryCache(2)
	k := func(i int) string { return fmt.Sprintf("/q%d", i) }
	q := func(i int) *core.Query { return core.MustCompile(fmt.Sprintf("/q%d", i)) }

	if _, ok := c.get(k(0)); ok {
		t.Fatal("hit on empty cache")
	}
	c.add(k(0), q(0), 10)
	c.add(k(1), q(1), 10)
	if _, ok := c.get(k(0)); !ok {
		t.Fatal("miss after add")
	}
	// 0 is now most recent; adding 2 must evict 1.
	c.add(k(2), q(2), 10)
	if _, ok := c.get(k(1)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.get(k(0)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	hits, misses, evictions, saved, size, capacity := c.snapshot()
	if hits != 2 || misses != 2 || evictions != 1 || size != 2 || capacity != 2 {
		t.Fatalf("snapshot = hits %d misses %d evictions %d size %d cap %d, want 2 2 1 2 2",
			hits, misses, evictions, size, capacity)
	}
	if saved != 2*10 {
		t.Fatalf("savedNanos = %d, want 20 (two hits at 10ns recorded compile cost)", saved)
	}
}

// TestCacheSharedAcrossStrategies pins the shared-compilation
// contract: the cache is keyed on query source alone, so one entry —
// one parse/normalize — serves every strategy the query runs under.
func TestCacheSharedAcrossStrategies(t *testing.T) {
	c := newQueryCache(8)
	added := c.add("//a", core.MustCompile("//a"), 10)
	if got, ok := c.get("//a"); !ok || got != added {
		t.Fatal("source-keyed lookup missed the shared entry")
	}
}

// TestCacheLRUOrder: eviction goes by recency alone. What an entry cost
// to compile is recorded for the compile_ns_saved report and plays no
// part in admission — the cheap newcomer displaces the expensive entry
// that was used least recently.
func TestCacheLRUOrder(t *testing.T) {
	c := newQueryCache(2)
	c.add("/a", core.MustCompile("/a"), 1000)
	c.add("/b", core.MustCompile("/b"), 1000)
	c.get("/a")
	c.add("/c", core.MustCompile("/c"), 1)
	for src, cached := range map[string]bool{"/a": true, "/b": false, "/c": true} {
		if _, ok := c.get(src); ok != cached {
			t.Errorf("%s cached = %v, want %v", src, ok, cached)
		}
	}
	if _, _, evictions, _, _, _ := c.snapshot(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
}

// TestCacheConcurrent hammers a small cache from many goroutines with a
// key space larger than the capacity, so gets, adds and evictions race
// under -race. Invariants: a get after a miss+add returns an equivalent
// compiled query, and the size never exceeds capacity.
func TestCacheConcurrent(t *testing.T) {
	const capacity, keys, goroutines, reps = 8, 32, 8, 200
	c := newQueryCache(capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				n := (g*reps + i) % keys
				src := fmt.Sprintf("/child::tag%d", n)
				e, ok := c.get(src)
				if !ok {
					compiled, err := core.Compile(src)
					if err != nil {
						t.Error(err)
						return
					}
					e = c.add(src, compiled, 10)
				}
				if e.String() != src {
					t.Errorf("cache returned query %q for key %q", e.String(), src)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, evictions, _, size, _ := c.snapshot()
	if size > capacity {
		t.Fatalf("cache size %d exceeds capacity %d", size, capacity)
	}
	if hits+misses != goroutines*reps {
		t.Fatalf("hits %d + misses %d != %d lookups", hits, misses, goroutines*reps)
	}
	// The oversubscribed key space must keep cycling entries.
	if evictions == 0 {
		t.Fatal("expected evictions with key space > capacity")
	}
}

// TestCacheConcurrentAddSameKey checks the first-add-wins contract:
// when several goroutines compile the same query concurrently, add
// returns one canonical entry for all of them.
func TestCacheConcurrentAddSameKey(t *testing.T) {
	c := newQueryCache(4)
	const goroutines = 16
	got := make([]*core.Query, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = c.add("//a/b", core.MustCompile("//a/b"), 10)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatal("concurrent adds of one key returned different entries")
		}
	}
}
