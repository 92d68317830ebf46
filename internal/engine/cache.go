package engine

import (
	"container/list"
	"hash/maphash"

	"repro/internal/core"
	"repro/internal/guard"
)

// queryCache is a thread-safe LRU cache of compiled queries, keyed on
// the query source alone. Compilation (parsing into normal form, fragment
// classification) is strategy-independent, so one entry serves every
// strategy a document's size or a session's configuration runs the
// query with — one parse per distinct source. Under sustained traffic
// with a bounded working set of distinct query strings, core.Compile
// runs twice per distinct query; everything else is a mutex-guarded map
// lookup. Eviction is plain LRU.
//
// Admission is the doorkeeper of TinyLFU (Einziger, Friedman, Manes,
// ACM TOS 2017): a compiled query enters the LRU only on its second
// miss. The cache remembers recently missed texts as 64-bit hashes in a
// direct-mapped array of doorkeeperWays × capacity slots; a first miss
// writes its slot and is counted as a reject, a miss that finds its own
// hash there is admitted. One-off texts — a stream of never-repeated
// queries — therefore never displace the hot set nor keep their
// compiled trees alive on the heap. The rule reads nothing but the
// texts the cache has seen, and no entry carries admission state.
//
// Concurrent misses on the same key may compile the same query more
// than once; the first add wins and the duplicates are discarded.
// Compiled queries are immutable, so handing the same *core.Query to
// many goroutines is safe (see TestConcurrentEvaluation in
// internal/core).
type queryCache struct {
	// seed keys the doorkeeper's hashes.
	seed     maphash.Seed
	capacity int
	state    guard.Locked[queryCacheState]
}

// queryCacheState is what the cache's lock guards.
type queryCacheState struct {
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	// seen is the doorkeeper: slot h%len(seen) holds the hash (with its
	// low bit set, so 0 means empty) of the last text missed there.
	seen []uint64

	counts cacheCounts
}

// doorkeeperWays is the doorkeeper's length in units of the capacity: a
// text must come back within roughly that many capacities of other
// misses to be admitted. At the default capacity it is 32 KB.
const doorkeeperWays = 4

// cacheCounts is one consistent reading of the cache's counters.
type cacheCounts struct {
	hits, misses, evictions uint64
	// rejects counts first misses: compiled and answered, not cached.
	rejects uint64
	// savedNanos accumulates, over every cache hit, the compile time
	// the hit avoided re-spending — each entry remembers what its own
	// compilation cost, so the sum is per-query-accurate rather than a
	// fleet average.
	savedNanos     uint64
	size, capacity int
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
		seed:     maphash.MakeSeed(),
		capacity: capacity,
		state: guard.New(queryCacheState{
			ll:    list.New(),
			items: make(map[string]*list.Element, capacity),
			seen:  make([]uint64, doorkeeperWays*capacity),
		}),
	}
}

// get returns the cached query for src, promoting it to most recently
// used.
func (c *queryCache) get(src string) (*core.Query, bool) {
	st := c.state.Lock()
	defer c.state.Unlock()
	el, ok := st.items[src]
	if !ok {
		st.counts.misses++
		return nil, false
	}
	st.counts.hits++
	e := el.Value.(*cacheEntry)
	st.counts.savedNanos += e.compileNanos
	st.ll.MoveToFront(el)
	return e.q, true
}

// add offers a compiled query (recording what it cost to compile) after
// a miss. On the text's first miss within the doorkeeper's window the
// query is only remembered and handed back; on its second it is
// admitted, evicting the least recently used entry at capacity. If
// another goroutine added the key first, its query is kept and
// returned.
func (c *queryCache) add(src string, q *core.Query, compileNanos uint64) *core.Query {
	h := maphash.String(c.seed, src) | 1
	st := c.state.Lock()
	defer c.state.Unlock()
	if el, ok := st.items[src]; ok {
		st.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).q
	}
	slot := &st.seen[h%uint64(len(st.seen))]
	if *slot != h {
		*slot = h
		st.counts.rejects++
		return q
	}
	*slot = 0
	for st.ll.Len() >= c.capacity {
		oldest := st.ll.Back()
		st.ll.Remove(oldest)
		delete(st.items, oldest.Value.(*cacheEntry).src)
		st.counts.evictions++
	}
	st.items[src] = st.ll.PushFront(&cacheEntry{src: src, q: q, compileNanos: compileNanos})
	return q
}

// snapshot returns the counters and current size under one lock
// acquisition, so Stats readings are internally consistent.
func (c *queryCache) snapshot() cacheCounts {
	st := c.state.Lock()
	defer c.state.Unlock()
	out := st.counts
	out.size, out.capacity = st.ll.Len(), c.capacity
	return out
}
