package engine

import (
	"fmt"
	"hash/maphash"
	"sync"
	"testing"

	"repro/internal/core"
)

// admit offers src to the cache twice: the doorkeeper only remembers a
// text's first miss and admits it on the second.
func admit(c *queryCache, src string, compileNanos uint64) *core.Query {
	q := core.MustCompile(src)
	c.add(src, q, compileNanos)
	return c.add(src, q, compileNanos)
}

func TestCacheHitMissEviction(t *testing.T) {
	c := newQueryCache(2)
	k := func(i int) string { return fmt.Sprintf("/q%d", i) }

	if _, ok := c.get(k(0)); ok {
		t.Fatal("hit on empty cache")
	}
	admit(c, k(0), 10)
	admit(c, k(1), 10)
	if _, ok := c.get(k(0)); !ok {
		t.Fatal("miss after admission")
	}
	// 0 is now most recent; admitting 2 must evict 1.
	admit(c, k(2), 10)
	if _, ok := c.get(k(1)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.get(k(0)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	got := c.snapshot()
	want := cacheCounts{hits: 2, misses: 2, evictions: 1, rejects: 3, savedNanos: 2 * 10, size: 2, capacity: 2}
	if got != want {
		t.Fatalf("snapshot = %+v, want %+v (two hits at 10ns recorded compile cost)", got, want)
	}
}

// TestCacheSharedAcrossStrategies pins the shared-compilation
// contract: the cache is keyed on query source alone, so one entry —
// one parse/normalize — serves every strategy the query runs under.
func TestCacheSharedAcrossStrategies(t *testing.T) {
	c := newQueryCache(8)
	added := admit(c, "//a", 10)
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
	admit(c, "/a", 1000)
	admit(c, "/b", 1000)
	c.get("/a")
	admit(c, "/c", 1)
	for src, cached := range map[string]bool{"/a": true, "/b": false, "/c": true} {
		if _, ok := c.get(src); ok != cached {
			t.Errorf("%s cached = %v, want %v", src, ok, cached)
		}
	}
	if evictions := c.snapshot().evictions; evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
}

// TestDoorkeeperKeepsHotSet: a flood of one-off texts, each missed once,
// neither evicts a text that was sighted twice nor grows the cache —
// under plain LRU admission the 10 000 misses flush the hot entry.
func TestDoorkeeperKeepsHotSet(t *testing.T) {
	c := newQueryCache(8)
	const hot = "//hot"
	for i := 0; i < 2; i++ {
		if _, ok := c.get(hot); !ok {
			c.add(hot, core.MustCompile(hot), 10)
		}
	}
	// What the flood compiled to does not matter to the cache.
	q := core.MustCompile("/a")
	for i := 0; i < 10000; i++ {
		src := fmt.Sprintf("//once%d", i)
		if _, ok := c.get(src); ok {
			t.Fatalf("one-off text %q hit", src)
		}
		c.add(src, q, 10)
	}
	if _, ok := c.get(hot); !ok {
		t.Fatal("the hot text was evicted by one-off texts")
	}
	got := c.snapshot()
	if got.size != 1 || got.evictions != 0 || got.rejects != 10001 {
		t.Fatalf("snapshot = %+v, want size 1, no evictions, 10 001 rejects (the hot text's first miss and every one-off)", got)
	}
}

// doorkeeperSlot is the doorkeeper slot src's misses use in c.
func doorkeeperSlot(c *queryCache, src string) uint64 {
	return (maphash.String(c.seed, src) | 1) % uint64(doorkeeperWays*c.capacity)
}

// TestDoorkeeperAdmitsSecondMiss: a text missed twice within the window
// is admitted on the second miss and hits from then on; each first miss
// is one reject.
func TestDoorkeeperAdmitsSecondMiss(t *testing.T) {
	c := newQueryCache(8)
	// Three texts in three slots: the seed is random per cache, and two
	// texts sharing a slot would push each other out of the window.
	var texts []string
	used := map[uint64]bool{}
	for i := 0; len(texts) < 3; i++ {
		src := fmt.Sprintf("//t%d", i)
		if s := doorkeeperSlot(c, src); !used[s] {
			used[s] = true
			texts = append(texts, src)
		}
	}
	for round := 0; round < 2; round++ {
		for _, src := range texts {
			if _, ok := c.get(src); ok {
				t.Fatalf("round %d: %s hit before its second miss was admitted", round, src)
			}
			c.add(src, core.MustCompile(src), 10)
		}
		if got := c.snapshot(); got.rejects != uint64(len(texts)) || got.size != round*len(texts) {
			t.Fatalf("after round %d: %+v, want %d rejects and size %d", round, got, len(texts), round*len(texts))
		}
	}
	for _, src := range texts {
		if q, ok := c.get(src); !ok || q.String() != src {
			t.Fatalf("%s: cached = %v, want a hit on its own query", src, ok)
		}
	}
}

// TestDoorkeeperIsDirectMapped: the window is one hash per slot, so a
// text whose slot another text's miss took in between is a first
// sighting again.
func TestDoorkeeperIsDirectMapped(t *testing.T) {
	c := newQueryCache(1) // doorkeeperWays slots
	const a = "//a"
	b := ""
	for i := 0; b == ""; i++ {
		if src := fmt.Sprintf("//b%d", i); doorkeeperSlot(c, src) == doorkeeperSlot(c, a) {
			b = src
		}
	}
	q := core.MustCompile(a)
	c.add(a, q, 10)
	c.add(b, q, 10)
	c.add(a, q, 10)
	if got := c.snapshot(); got.size != 0 || got.rejects != 3 {
		t.Fatalf("snapshot = %+v, want nothing admitted and 3 rejects", got)
	}
	c.add(a, q, 10)
	if _, ok := c.get(a); !ok {
		t.Fatal("a text missed twice in a row was not admitted")
	}
}

// TestCacheConcurrent hammers a small cache from many goroutines with a
// key space larger than the capacity, so gets, adds, the doorkeeper's
// slots and evictions race under -race. Invariants: a get after a miss+add returns an equivalent
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
				// Each goroutine asks for a key twice in a row, the
				// second miss being the one the doorkeeper admits.
				n := (g*reps + i) / 2 % keys
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
	got := c.snapshot()
	if got.size > capacity {
		t.Fatalf("cache size %d exceeds capacity %d", got.size, capacity)
	}
	if got.hits+got.misses != goroutines*reps {
		t.Fatalf("hits %d + misses %d != %d lookups", got.hits, got.misses, goroutines*reps)
	}
	if got.rejects == 0 || got.rejects > got.misses {
		t.Fatalf("rejects %d, want between 1 and the %d misses", got.rejects, got.misses)
	}
	// The oversubscribed key space must keep cycling entries.
	if got.evictions == 0 {
		t.Fatal("expected evictions with key space > capacity")
	}
}

// TestCacheConcurrentAddSameKey checks the first-add-wins contract:
// when several goroutines compile the same, once-sighted query
// concurrently, add returns one canonical entry for all of them.
func TestCacheConcurrentAddSameKey(t *testing.T) {
	c := newQueryCache(4)
	c.add("//a/b", core.MustCompile("//a/b"), 10)
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
