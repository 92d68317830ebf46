package cluster

import (
	"container/list"
	"strconv"

	"repro/internal/guard"
)

// DefaultAnswerCacheSize is the router answer cache's entry capacity
// when none is configured.
const DefaultAnswerCacheSize = 1024

// answerCache is the router's hot-key absorber: an LRU of fully
// rendered /query response bodies keyed by (doc, query, version).
// Entries for a superseded version become unreachable the moment the
// router learns a newer version for the document (a registration
// through the router, or a backend response carrying a higher
// version), and are dropped eagerly so a hot document's churn cannot
// pin dead bytes in the LRU. Repeated identical queries are answered
// from here without touching a backend, whether they come as a /query
// or as a /batch job: a batch line is the same body behind its line
// members, so both paths read and fill the one entry.
type answerCache struct {
	cap   int
	state guard.Locked[answerState]
}

// answerState is what the answer cache's lock guards.
type answerState struct {
	lru    *list.List               // front = most recently used
	items  map[string]*list.Element // composite key -> element
	perDoc map[string][]string      // doc -> live composite keys
	latest map[string]uint64        // doc -> newest version seen
	// dead tombstones documents deleted through the router: a query
	// response that was already in flight when the DELETE ran carries
	// the pre-delete version, and without the tombstone its arrival
	// would re-populate the cache for a document that no longer
	// exists. Versions are monotonic per document even across
	// delete + re-register (the store counter never goes backwards),
	// so any version at or below the tombstone is the dead document's.
	dead map[string]uint64
	// floor is what the bounds on latest and dead leave behind: per
	// bucket of document names, the highest version of any watermark or
	// tombstone they dropped. A put for a name that has neither, at a
	// version at or below its bucket's floor, may be a late in-flight
	// answer older than a version the router already acknowledged, and
	// is dropped — a miss, never a stale answer. Names that share a
	// bucket only cost each other misses.
	floor   [floorBuckets]uint64
	hits    uint64
	misses  uint64
	invalid uint64 // entries dropped by version bumps and deletes
}

// floorBuckets is the size of answerCache.floor.
const floorBuckets = 256

// raiseFloor records that doc's watermark or tombstone at ver is being
// dropped.
func (st *answerState) raiseFloor(doc string, ver uint64) {
	if b := KeyShard(doc, floorBuckets); ver > st.floor[b] {
		st.floor[b] = ver
	}
}

type answerEntry struct {
	key  string
	doc  string
	body []byte
}

func newAnswerCache(capacity int) *answerCache {
	if capacity <= 0 {
		capacity = DefaultAnswerCacheSize
	}
	return &answerCache{cap: capacity, state: guard.New(answerState{
		lru:    list.New(),
		items:  map[string]*list.Element{},
		perDoc: map[string][]string{},
		latest: map[string]uint64{},
		dead:   map[string]uint64{},
	})}
}

func answerKey(doc, query string, ver uint64) string {
	// \x00 cannot occur in document names or queries that reached a
	// backend, so the composite key is unambiguous.
	return doc + "\x00" + query + "\x00" + strconv.FormatUint(ver, 10)
}

// get returns the cached response body for (doc, query) at the
// document's newest known version, counting a hit or a miss. Unknown
// documents (no version ever observed) always miss.
func (c *answerCache) get(doc, query string) ([]byte, bool) {
	st := c.state.Lock()
	defer c.state.Unlock()
	ver, ok := st.latest[doc]
	if ok {
		if el, ok := st.items[answerKey(doc, query, ver)]; ok {
			st.lru.MoveToFront(el)
			st.hits++
			return el.Value.(*answerEntry).body, true
		}
	}
	st.misses++
	return nil, false
}

// put stores a rendered response body for (doc, query, ver), records
// ver as the document's newest version if it is, and evicts LRU
// entries past capacity. Bodies for versions older than the newest
// known are stale on arrival and dropped.
func (c *answerCache) put(doc, query string, ver uint64, body []byte) {
	if ver == 0 {
		return // versionless backends cannot be cached safely
	}
	st := c.state.Lock()
	defer c.state.Unlock()
	if d, ok := st.dead[doc]; ok {
		if ver <= d {
			return // a dead document's late in-flight answer
		}
		delete(st.dead, doc) // the name was legitimately re-registered
	}
	if cur, ok := st.latest[doc]; !ok || ver > cur {
		if !ok && ver <= st.floor[KeyShard(doc, floorBuckets)] {
			return // perhaps older than a watermark the bounds dropped
		}
		st.dropDoc(doc)
		st.setLatest(doc, ver, 4*c.cap)
	} else if ver < cur {
		return // raced with a replacement; the answer is already stale
	}
	key := answerKey(doc, query, ver)
	if el, ok := st.items[key]; ok {
		el.Value.(*answerEntry).body = body
		st.lru.MoveToFront(el)
		return
	}
	st.items[key] = st.lru.PushFront(&answerEntry{key: key, doc: doc, body: body})
	st.perDoc[doc] = append(st.perDoc[doc], key)
	for st.lru.Len() > c.cap {
		oldest := st.lru.Back()
		st.remove(oldest.Value.(*answerEntry))
	}
}

// bump records that doc now exists at version ver — a write through
// the router, which is authoritative: every cached answer for the
// document is dropped and the watermark moves to ver even when ver is
// numerically LOWER than the old watermark. Versions come from each
// node's own counter, so a failover write can leave the watermark far
// ahead of the owner's counter; treating the new write as "stale"
// because of that would pin the old answer forever. Only the
// tombstone check keeps its guard (a dead name's versions stay dead
// until a registration supersedes them).
func (c *answerCache) bump(doc string, ver uint64) {
	st := c.state.Lock()
	defer c.state.Unlock()
	if d, ok := st.dead[doc]; ok {
		if ver <= d {
			return
		}
		delete(st.dead, doc)
	}
	if cur, ok := st.latest[doc]; ok && ver == cur {
		return // echo of the version already current; entries still valid
	}
	st.dropDoc(doc)
	st.setLatest(doc, ver, 4*c.cap)
}

// setLatest records a document's newest version, bounding the
// watermark map so a churn of distinct document names cannot grow it
// without limit: past max entries (4× the LRU capacity), watermarks
// without any cached answers are dropped into the floor. Losing a watermark only
// costs cache misses — the next answer newer than the floor re-learns
// the version — never a stale answer: lookups require a watermark, and
// the floor keeps a late answer older than the dropped one out.
func (st *answerState) setLatest(doc string, ver uint64, max int) {
	st.latest[doc] = ver
	if len(st.latest) <= max {
		return
	}
	for d, v := range st.latest {
		if len(st.latest) <= max {
			return
		}
		if d != doc && len(st.perDoc[d]) == 0 {
			st.raiseFloor(d, v)
			delete(st.latest, d)
		}
	}
}

// forget drops everything known about doc (a delete through the
// router): cached answers and the version watermark. The watermark
// becomes a tombstone so an answer that was in flight during the
// delete cannot re-populate the cache for the dead document (a
// re-registration clears it — its version is necessarily higher).
// When no watermark was ever learned the tombstone cannot be placed;
// that residual window only exists for documents this router never
// wrote or answered for.
func (c *answerCache) forget(doc string) {
	st := c.state.Lock()
	defer c.state.Unlock()
	st.dropDoc(doc)
	if v, ok := st.latest[doc]; ok && v > 0 {
		st.dead[doc] = v
		st.trimDead(doc, 4*c.cap)
	}
	delete(st.latest, doc)
}

// trimDead bounds the tombstone map like setLatest bounds the
// watermarks, and into the same floor, which keeps a dropped
// tombstone's in-flight answers out as the tombstone did.
func (st *answerState) trimDead(keep string, max int) {
	for d, v := range st.dead {
		if len(st.dead) <= max {
			return
		}
		if d != keep {
			st.raiseFloor(d, v)
			delete(st.dead, d)
		}
	}
}

func (st *answerState) dropDoc(doc string) {
	for _, key := range st.perDoc[doc] {
		if el, ok := st.items[key]; ok {
			st.lru.Remove(el)
			delete(st.items, key)
			st.invalid++
		}
	}
	delete(st.perDoc, doc)
}

// remove is plain LRU eviction (capacity, not staleness): the entry
// leaves the cache without counting as an invalidation.
func (st *answerState) remove(e *answerEntry) {
	if el, ok := st.items[e.key]; ok {
		st.lru.Remove(el)
		delete(st.items, e.key)
	}
	keys := st.perDoc[e.doc]
	for i, k := range keys {
		if k == e.key {
			st.perDoc[e.doc] = append(keys[:i], keys[i+1:]...)
			break
		}
	}
	if len(st.perDoc[e.doc]) == 0 {
		delete(st.perDoc, e.doc)
	}
}

// answerCacheStats is the /stats view of the cache.
type answerCacheStats struct {
	Entries       int    `json:"entries"`
	Capacity      int    `json:"capacity"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
}

// stats reads the counters; a nil (disabled) cache reads all zero.
func (c *answerCache) stats() answerCacheStats {
	if c == nil {
		return answerCacheStats{}
	}
	st := c.state.Lock()
	defer c.state.Unlock()
	return answerCacheStats{
		Entries:       st.lru.Len(),
		Capacity:      c.cap,
		Hits:          st.hits,
		Misses:        st.misses,
		Invalidations: st.invalid,
	}
}
