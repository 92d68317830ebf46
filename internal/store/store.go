// Package store is the storage layer of the serving stack: a keyed
// document store with explicit memory accounting, decoupled from both
// the HTTP server above it and the evaluation engine below it.
//
// Store gives every entry a monotonic version; its comment states the
// version contract. Values are opaque to the store: the caller
// supplies a size in bytes with every Put and the store enforces its
// configured budgets against that accounting.
package store

import (
	"container/list"
	"errors"

	"repro/internal/guard"
)

// ErrFull is returned by Put when admitting the entry would exceed a
// configured budget (entry count, or bytes under the Reject policy).
// Replacing an existing key is never rejected by the entry-count cap.
var ErrFull = errors.New("store: full")

// ErrTooLarge is returned by Put when a single entry is bigger than the
// whole byte budget, so no amount of eviction could admit it.
var ErrTooLarge = errors.New("store: entry exceeds the store's byte budget")

// EvictionPolicy selects what Put does when the byte budget is
// exhausted.
type EvictionPolicy int

const (
	// EvictLRU evicts the store's least-recently-used entries until the
	// new entry fits. Get refreshes recency.
	EvictLRU EvictionPolicy = iota
	// EvictReject refuses the Put with ErrFull instead of evicting.
	EvictReject
)

// String names the policy as accepted by the -evict flag.
func (p EvictionPolicy) String() string {
	if p == EvictReject {
		return "reject"
	}
	return "lru"
}

// PolicyByName resolves a flag name to an EvictionPolicy.
func PolicyByName(name string) (EvictionPolicy, bool) {
	switch name {
	case "lru":
		return EvictLRU, true
	case "reject":
		return EvictReject, true
	}
	return 0, false
}

// Config sizes a Store. The zero value means no byte or entry budget.
type Config struct {
	// MaxBytes bounds the summed entry sizes (0 = unlimited).
	MaxBytes int64
	// MaxEntries bounds the number of distinct keys (0 = unlimited).
	// Replacements are always admitted.
	MaxEntries int
	// Policy selects eviction behavior when the byte budget is
	// exhausted (default EvictLRU).
	Policy EvictionPolicy
}

// Stats is the store's current fill and lifetime counters. Beyond
// /stats, the serving layer reads Entries and Bytes at every /metrics
// scrape (the xpath_documents and xpath_store_bytes gauges).
type Stats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Store is the document store: one mutex-guarded map plus an LRU list,
// with one byte count against Config.MaxBytes. All methods are safe for
// concurrent use.
//
// Every entry carries a monotonic version: Put assigns the next value
// of a store-wide counter, so for a fixed key versions strictly
// increase across replacements (and even across a Delete followed by a
// re-Put — the counter never goes backwards). The version is the
// staleness signal of the replication layer: a replica or cache
// holding version v of a document knows it is stale the moment it
// sees a version > v for the same key. Get and Range hand out a value
// together with the version it was stored under, read under the lock,
// so a caller can never pair a value with another entry's version.
type Store[V any] struct {
	cfg   Config
	state guard.Locked[storeState[V]]
}

// storeState is what the store's lock guards.
type storeState[V any] struct {
	items   map[string]*list.Element
	lru     *list.List // of *entry[V]; front = most recently used
	bytes   int64
	lastVer uint64 // the version most recently assigned or mirrored

	hits, misses, evictions uint64
}

// entry is never changed once stored: a replacement stores a new one,
// so Range can hand entries out after releasing the lock.
type entry[V any] struct {
	key  string
	val  V
	size int64
	ver  uint64
}

// New creates an empty store with the budgets of cfg.
func New[V any](cfg Config) *Store[V] {
	return &Store[V]{cfg: cfg, state: guard.New(storeState[V]{items: make(map[string]*list.Element), lru: list.New()})}
}

// Get returns the value stored under key and the version it was
// stored at, refreshing its recency.
func (s *Store[V]) Get(key string) (V, uint64, bool) {
	st := s.state.Lock()
	defer s.state.Unlock()
	el, ok := st.items[key]
	if !ok {
		st.misses++
		var zero V
		return zero, 0, false
	}
	st.hits++
	st.lru.MoveToFront(el)
	e := el.Value.(*entry[V])
	return e.val, e.ver, true
}

// Put stores v under key with the given size in bytes, replacing any
// previous entry, and returns the entry's newly assigned version (the
// next value of the store-wide monotonic counter). Under EvictLRU it
// evicts the store's least-recently-used entries until the new entry
// fits the byte budget; under EvictReject it returns ErrFull instead.
// An entry bigger than the whole budget is ErrTooLarge.
func (s *Store[V]) Put(key string, v V, size int64) (uint64, error) {
	return s.PutAt(key, v, size, 0)
}

// PutAt stores v under key at an explicitly assigned version instead
// of drawing one from the store's counter — the write half of version
// mirroring: a replica stores the owner's document at the owner's
// version, and a reshard writes a migrated document at the version it
// had on the old ring. A PutAt at or below the resident entry's
// version is a stale write and is skipped (the resident entry wins);
// either way the resulting version under key is returned. The store's
// counter is raised to at least ver so later local Puts stay monotonic
// past every mirrored version. A zero ver behaves as Put.
func (s *Store[V]) PutAt(key string, v V, size int64, ver uint64) (uint64, error) {
	size = max(size, 0)
	st := s.state.Lock()
	defer s.state.Unlock()
	st.lastVer = max(st.lastVer, ver)
	if s.cfg.MaxBytes > 0 && size > s.cfg.MaxBytes {
		return 0, ErrTooLarge
	}
	el, replacing := st.items[key]
	prev := int64(0)
	if replacing {
		e := el.Value.(*entry[V])
		if ver > 0 && e.ver >= ver {
			return e.ver, nil // stale mirror write
		}
		prev = e.size
	} else if s.cfg.MaxEntries > 0 && len(st.items) >= s.cfg.MaxEntries {
		return 0, ErrFull
	}
	if s.cfg.MaxBytes > 0 && st.bytes-prev+size > s.cfg.MaxBytes && s.cfg.Policy == EvictReject {
		return 0, ErrFull
	}
	if replacing {
		st.remove(el)
	}
	// size ≤ MaxBytes, so the loop ends at the latest with the store
	// empty; while bytes > MaxBytes-size ≥ 0 there is an entry to evict.
	for s.cfg.MaxBytes > 0 && st.bytes+size > s.cfg.MaxBytes {
		st.remove(st.lru.Back())
		st.evictions++
	}
	if ver == 0 {
		st.lastVer++
		ver = st.lastVer
	}
	st.items[key] = st.lru.PushFront(&entry[V]{key: key, val: v, size: size, ver: ver})
	st.bytes += size
	return ver, nil
}

// remove unlinks el from the map, the LRU list and the byte count.
func (st *storeState[V]) remove(el *list.Element) {
	e := st.lru.Remove(el).(*entry[V])
	delete(st.items, e.key)
	st.bytes -= e.size
}

// Delete removes key, reporting whether it was present.
func (s *Store[V]) Delete(key string) bool {
	return s.DeleteIf(key, nil)
}

// DeleteIf removes key only while cond holds for the currently stored
// value, evaluated under the lock — so a caller that snapshotted an
// entry (e.g. the idle janitor) cannot delete a replacement that was
// stored after its snapshot. A nil cond always deletes. It reports
// whether an entry was removed.
func (s *Store[V]) DeleteIf(key string, cond func(v V, size int64) bool) bool {
	st := s.state.Lock()
	defer s.state.Unlock()
	el, ok := st.items[key]
	if !ok {
		return false
	}
	if e := el.Value.(*entry[V]); cond != nil && !cond(e.val, e.size) {
		return false
	}
	st.remove(el)
	return true
}

// Range visits entries, most recently used first, each with its size
// and version, until f returns false. The entries are snapshotted under
// the lock, then f runs without it, so f may call back into the store;
// entries added or removed while ranging are not visited, and a removed
// one may still be.
func (s *Store[V]) Range(f func(key string, v V, size int64, ver uint64) bool) {
	st := s.state.Lock()
	snap := make([]*entry[V], 0, len(st.items))
	for el := st.lru.Front(); el != nil; el = el.Next() {
		snap = append(snap, el.Value.(*entry[V]))
	}
	s.state.Unlock()
	for _, e := range snap {
		if !f(e.key, e.val, e.size, e.ver) {
			return
		}
	}
}

// Stats reads the current fill and lifetime counters. It never walks
// the entries, so the serving layer can call it at every /metrics
// scrape.
func (s *Store[V]) Stats() Stats {
	st := s.state.Lock()
	defer s.state.Unlock()
	return Stats{Entries: len(st.items), Bytes: st.bytes, Hits: st.hits, Misses: st.misses, Evictions: st.evictions}
}
