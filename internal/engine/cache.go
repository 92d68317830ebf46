package engine

import (
	"container/list"
	"sync"

	"repro/internal/core"
)

// queryCache is a thread-safe LRU cache of compiled queries, keyed on
// the query source alone. Compilation (parsing into normal form, fragment
// classification) is strategy-independent, so one entry serves every
// strategy a document's size or a session's configuration runs the
// query with — one parse per distinct source. Under sustained traffic
// with a bounded working set of distinct query strings, core.Compile
// runs once per distinct query; everything else is a mutex-guarded map
// lookup. Admission and eviction are plain LRU.
//
// Concurrent misses on the same key may compile the same query more
// than once; the first add wins and the duplicates are discarded.
// Compiled queries are immutable, so handing the same *core.Query to
// many goroutines is safe (see TestConcurrentEvaluation in
// internal/core).
type queryCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
	// savedNanos accumulates, over every cache hit, the compile time
	// the hit avoided re-spending — each entry remembers what its own
	// compilation cost, so the sum is per-query-accurate rather than a
	// fleet average.
	savedNanos uint64
}

// cacheEntry is the per-source compilation record.
type cacheEntry struct {
	src string
	q   *core.Query
	// compileNanos is what compiling this entry cost at admission; each
	// hit credits this amount to the cache's savedNanos.
	compileNanos uint64
}

func newQueryCache(capacity int) *queryCache {
	if capacity < 1 {
		capacity = 1
	}
	return &queryCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// get returns the cached query for src, promoting it to most recently
// used.
func (c *queryCache) get(src string) (*core.Query, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[src]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	e := el.Value.(*cacheEntry)
	c.savedNanos += e.compileNanos
	c.ll.MoveToFront(el)
	return e.q, true
}

// add inserts a compiled query (recording what it cost to compile),
// evicting the least recently used entry at capacity. If another
// goroutine added the key first, its query is kept and returned.
func (c *queryCache) add(src string, q *core.Query, compileNanos uint64) *core.Query {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[src]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).q
	}
	for c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).src)
		c.evictions++
	}
	c.items[src] = c.ll.PushFront(&cacheEntry{src: src, q: q, compileNanos: compileNanos})
	return q
}

// snapshot returns the counters and current size under one lock
// acquisition, so Stats readings are internally consistent.
func (c *queryCache) snapshot() (hits, misses, evictions, savedNanos uint64, size, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.savedNanos, c.ll.Len(), c.capacity
}
