package store

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count used when Config.Shards is zero.
const DefaultShards = 8

// Config sizes a Sharded store. The zero value means DefaultShards
// shards with no byte or entry budget.
type Config struct {
	// Shards is the number of independently locked shards (default
	// DefaultShards). Keys are routed by FNV-1a hash, so a fixed key
	// always lands on the same shard for a given shard count.
	Shards int
	// MaxBytes bounds the summed entry sizes across the store
	// (0 = unlimited). The budget is divided evenly among shards; each
	// shard enforces its slice independently, so per-shard accounting
	// never needs a global lock.
	MaxBytes int64
	// MaxEntries bounds the number of distinct keys across the whole
	// store (0 = unlimited). Replacements are always admitted.
	MaxEntries int
	// Policy selects eviction behavior when a shard's byte budget is
	// exhausted (default EvictLRU).
	Policy EvictionPolicy
}

// Sharded is the document store: N shards, each a mutex-guarded map
// plus an LRU list, with byte accounting per shard. Routing is FNV-1a
// over the key, so contention on one hot document never blocks lookups
// of documents on other shards. All methods are safe for concurrent
// use.
//
// Every entry carries a monotonic version: Put assigns the next value
// of a store-wide counter, so for a fixed key versions strictly
// increase across replacements (and even across a Delete followed by a
// re-Put — the counter never goes backwards). The version is the
// staleness signal of the replication layer: a replica or cache
// holding version v of a document knows it is stale the moment it
// sees a version > v for the same key. Get and Range hand out a value
// together with the version it was stored under, read under one shard
// lock, so a caller can never pair a value with another entry's
// version.
type Sharded[V any] struct {
	cfg      Config
	shardMax int64 // per-shard byte budget (0 = unlimited)
	entries  atomic.Int64
	lastVer  atomic.Uint64 // store-wide monotonic version counter
	shards   []shard[V]
}

type shard[V any] struct {
	mu    sync.Mutex
	items map[string]*list.Element
	lru   *list.List // front = most recently used
	bytes int64

	hits, misses, evictions uint64
}

type shardEntry[V any] struct {
	key  string
	val  V
	size int64
	ver  uint64
}

// NewSharded creates a sharded store from cfg (zero fields take
// defaults).
func NewSharded[V any](cfg Config) *Sharded[V] {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	s := &Sharded[V]{cfg: cfg, shards: make([]shard[V], cfg.Shards)}
	if cfg.MaxBytes > 0 {
		s.shardMax = cfg.MaxBytes / int64(cfg.Shards)
		if s.shardMax < 1 {
			s.shardMax = 1
		}
	}
	for i := range s.shards {
		s.shards[i].items = make(map[string]*list.Element)
		s.shards[i].lru = list.New()
	}
	return s
}

// KeyShard returns the bucket in [0, n) that key routes to under the
// store's FNV-1a partitioning. It is the one routing function shared by
// every placement layer: Sharded uses it to pick an in-process shard,
// and the cluster router (internal/cluster) uses it to pick the peer
// node that owns a document, so a document's shard within one process
// and its owning node across processes are computed identically.
func KeyShard(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// ShardFor returns the shard index key routes to; tests use it to
// assert the distribution, and the cluster router reuses the same
// KeyShard function to partition documents across peer nodes.
func (s *Sharded[V]) ShardFor(key string) int {
	return KeyShard(key, len(s.shards))
}

// Get returns the value stored under key and the version it was
// stored at, refreshing its recency.
func (s *Sharded[V]) Get(key string) (V, uint64, bool) {
	sh := &s.shards[s.ShardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		sh.misses++
		var zero V
		return zero, 0, false
	}
	sh.hits++
	sh.lru.MoveToFront(el)
	e := el.Value.(*shardEntry[V])
	return e.val, e.ver, true
}

// Put stores v under key with the given size in bytes, replacing any
// previous entry, and returns the entry's newly assigned version (the
// next value of the store-wide monotonic counter). Under EvictLRU it
// evicts least-recently-used entries from the target shard until the
// new entry fits its byte budget; under EvictReject it returns ErrFull
// instead. An entry bigger than a whole shard's budget is ErrTooLarge.
func (s *Sharded[V]) Put(key string, v V, size int64) (uint64, error) {
	return s.put(key, v, size, 0)
}

// PutAt stores v under key at an explicitly assigned version instead
// of drawing one from the store's counter — the write half of version
// mirroring: a replica stores the owner's document at the owner's
// version, and a reshard writes a migrated document at the version it
// had on the old ring. A PutAt at or below the resident entry's
// version is a stale write and is skipped (the resident entry wins);
// either way the resulting version under key is returned. The store's
// counter is raised to at least ver so later local Puts stay monotonic
// past every mirrored version.
func (s *Sharded[V]) PutAt(key string, v V, size int64, ver uint64) (uint64, error) {
	if ver == 0 {
		return s.put(key, v, size, 0)
	}
	for {
		c := s.lastVer.Load()
		if c >= ver || s.lastVer.CompareAndSwap(c, ver) {
			break
		}
	}
	return s.put(key, v, size, ver)
}

func (s *Sharded[V]) put(key string, v V, size int64, explicit uint64) (uint64, error) {
	if size < 0 {
		size = 0
	}
	if s.shardMax > 0 && size > s.shardMax {
		return 0, ErrTooLarge
	}
	sh := &s.shards[s.ShardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()

	el, replacing := sh.items[key]
	if replacing && explicit > 0 && el.Value.(*shardEntry[V]).ver >= explicit {
		return el.Value.(*shardEntry[V]).ver, nil // stale mirror write
	}
	if !replacing && s.cfg.MaxEntries > 0 {
		// Reserve a slot in the global entry count; CAS so concurrent
		// Puts on different shards cannot both squeeze past the cap.
		for {
			n := s.entries.Load()
			if n >= int64(s.cfg.MaxEntries) {
				return 0, ErrFull
			}
			if s.entries.CompareAndSwap(n, n+1) {
				break
			}
		}
	}
	prev := int64(0)
	if replacing {
		prev = el.Value.(*shardEntry[V]).size
	}
	if s.shardMax > 0 && sh.bytes-prev+size > s.shardMax {
		if s.cfg.Policy == EvictReject {
			if !replacing && s.cfg.MaxEntries > 0 {
				s.entries.Add(-1) // release the reserved slot
			}
			return 0, ErrFull
		}
		s.evictLocked(sh, el, s.shardMax-size+prev)
	}
	ver := explicit
	if ver == 0 {
		ver = s.lastVer.Add(1)
	}
	if replacing {
		e := el.Value.(*shardEntry[V])
		sh.bytes += size - e.size
		e.val, e.size, e.ver = v, size, ver
		sh.lru.MoveToFront(el)
		return ver, nil
	}
	sh.items[key] = sh.lru.PushFront(&shardEntry[V]{key: key, val: v, size: size, ver: ver})
	sh.bytes += size
	if s.cfg.MaxEntries <= 0 {
		s.entries.Add(1)
	}
	return ver, nil
}

// LastVersion returns the store-wide version counter: the version most
// recently assigned (or mirrored) by any Put.
func (s *Sharded[V]) LastVersion() uint64 { return s.lastVer.Load() }

// evictLocked removes least-recently-used entries (skipping keep, the
// entry being replaced) until the shard's bytes drop to target.
func (s *Sharded[V]) evictLocked(sh *shard[V], keep *list.Element, target int64) {
	for sh.bytes > target {
		oldest := sh.lru.Back()
		if oldest != nil && oldest == keep {
			oldest = oldest.Prev()
		}
		if oldest == nil {
			return
		}
		e := oldest.Value.(*shardEntry[V])
		sh.lru.Remove(oldest)
		delete(sh.items, e.key)
		sh.bytes -= e.size
		sh.evictions++
		s.entries.Add(-1)
	}
}

// Delete removes key, reporting whether it was present.
func (s *Sharded[V]) Delete(key string) bool {
	return s.DeleteIf(key, nil)
}

// DeleteIf removes key only while cond holds for the currently stored
// value, evaluated under the shard lock — so a caller that snapshotted
// an entry (e.g. the idle janitor) cannot delete a replacement that
// was stored after its snapshot. A nil cond always deletes. It reports
// whether an entry was removed.
func (s *Sharded[V]) DeleteIf(key string, cond func(v V, size int64) bool) bool {
	sh := &s.shards[s.ShardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		return false
	}
	e := el.Value.(*shardEntry[V])
	if cond != nil && !cond(e.val, e.size) {
		return false
	}
	sh.lru.Remove(el)
	delete(sh.items, key)
	sh.bytes -= e.size
	s.entries.Add(-1)
	return true
}

// Range visits entries shard by shard, each with its size and version,
// until f returns false. Each shard is snapshotted under its lock, then
// f runs lock-free, so f may call back into the store; entries added or
// removed while ranging may or may not be visited. The snapshot copies
// the entries: a Put that replaces a key rewrites its entry in place.
func (s *Sharded[V]) Range(f func(key string, v V, size int64, ver uint64) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		snap := make([]shardEntry[V], 0, len(sh.items))
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			snap = append(snap, *el.Value.(*shardEntry[V]))
		}
		sh.mu.Unlock()
		for _, e := range snap {
			if !f(e.key, e.val, e.size, e.ver) {
				return
			}
		}
	}
}

// Stats aggregates current fill and lifetime counters across shards. It
// reads per-shard counters, never walks the entries, so the serving
// layer can call it at every /metrics scrape.
func (s *Sharded[V]) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(s.shards))}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		ss := ShardStats{
			Entries: len(sh.items), Bytes: sh.bytes,
			Hits: sh.hits, Misses: sh.misses, Evictions: sh.evictions,
		}
		sh.mu.Unlock()
		st.Shards[i] = ss
		st.Entries += ss.Entries
		st.Bytes += ss.Bytes
		st.Hits += ss.Hits
		st.Misses += ss.Misses
		st.Evictions += ss.Evictions
	}
	return st
}

// Len returns the current number of entries.
func (s *Sharded[V]) Len() int { return int(s.entries.Load()) }
