package cluster

import (
	"container/list"
	"strconv"
	"sync"
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
	mu     sync.Mutex
	cap    int
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

// raiseFloorLocked records that doc's watermark or tombstone at ver is
// being dropped.
func (c *answerCache) raiseFloorLocked(doc string, ver uint64) {
	if b := KeyShard(doc, floorBuckets); ver > c.floor[b] {
		c.floor[b] = ver
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
	return &answerCache{
		cap:    capacity,
		lru:    list.New(),
		items:  map[string]*list.Element{},
		perDoc: map[string][]string{},
		latest: map[string]uint64{},
		dead:   map[string]uint64{},
	}
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
	c.mu.Lock()
	defer c.mu.Unlock()
	ver, ok := c.latest[doc]
	if ok {
		if el, ok := c.items[answerKey(doc, query, ver)]; ok {
			c.lru.MoveToFront(el)
			c.hits++
			return el.Value.(*answerEntry).body, true
		}
	}
	c.misses++
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.dead[doc]; ok {
		if ver <= d {
			return // a dead document's late in-flight answer
		}
		delete(c.dead, doc) // the name was legitimately re-registered
	}
	if cur, ok := c.latest[doc]; !ok || ver > cur {
		if !ok && ver <= c.floor[KeyShard(doc, floorBuckets)] {
			return // perhaps older than a watermark the bounds dropped
		}
		c.dropDocLocked(doc)
		c.setLatestLocked(doc, ver)
	} else if ver < cur {
		return // raced with a replacement; the answer is already stale
	}
	key := answerKey(doc, query, ver)
	if el, ok := c.items[key]; ok {
		el.Value.(*answerEntry).body = body
		c.lru.MoveToFront(el)
		return
	}
	c.items[key] = c.lru.PushFront(&answerEntry{key: key, doc: doc, body: body})
	c.perDoc[doc] = append(c.perDoc[doc], key)
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.removeLocked(oldest.Value.(*answerEntry))
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.dead[doc]; ok {
		if ver <= d {
			return
		}
		delete(c.dead, doc)
	}
	if cur, ok := c.latest[doc]; ok && ver == cur {
		return // echo of the version already current; entries still valid
	}
	c.dropDocLocked(doc)
	c.setLatestLocked(doc, ver)
}

// setLatestLocked records a document's newest version, bounding the
// watermark map so a churn of distinct document names cannot grow it
// without limit: past 4× the LRU capacity, watermarks without any
// cached answers are dropped into the floor. Losing a watermark only
// costs cache misses — the next answer newer than the floor re-learns
// the version — never a stale answer: lookups require a watermark, and
// the floor keeps a late answer older than the dropped one out.
func (c *answerCache) setLatestLocked(doc string, ver uint64) {
	c.latest[doc] = ver
	max := 4 * c.cap
	if len(c.latest) <= max {
		return
	}
	for d, v := range c.latest {
		if len(c.latest) <= max {
			return
		}
		if d != doc && len(c.perDoc[d]) == 0 {
			c.raiseFloorLocked(d, v)
			delete(c.latest, d)
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
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropDocLocked(doc)
	if v, ok := c.latest[doc]; ok && v > 0 {
		c.dead[doc] = v
		c.trimDeadLocked(doc)
	}
	delete(c.latest, doc)
}

// trimDeadLocked bounds the tombstone map like setLatestLocked bounds
// the watermarks, and into the same floor, which keeps a dropped
// tombstone's in-flight answers out as the tombstone did.
func (c *answerCache) trimDeadLocked(keep string) {
	max := 4 * c.cap
	for d, v := range c.dead {
		if len(c.dead) <= max {
			return
		}
		if d != keep {
			c.raiseFloorLocked(d, v)
			delete(c.dead, d)
		}
	}
}

func (c *answerCache) dropDocLocked(doc string) {
	for _, key := range c.perDoc[doc] {
		if el, ok := c.items[key]; ok {
			c.lru.Remove(el)
			delete(c.items, key)
			c.invalid++
		}
	}
	delete(c.perDoc, doc)
}

// removeLocked is plain LRU eviction (capacity, not staleness): the
// entry leaves the cache without counting as an invalidation.
func (c *answerCache) removeLocked(e *answerEntry) {
	if el, ok := c.items[e.key]; ok {
		c.lru.Remove(el)
		delete(c.items, e.key)
	}
	keys := c.perDoc[e.doc]
	for i, k := range keys {
		if k == e.key {
			c.perDoc[e.doc] = append(keys[:i], keys[i+1:]...)
			break
		}
	}
	if len(c.perDoc[e.doc]) == 0 {
		delete(c.perDoc, e.doc)
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return answerCacheStats{
		Entries:       c.lru.Len(),
		Capacity:      c.cap,
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalid,
	}
}
