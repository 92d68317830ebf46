// Package store is the storage layer of the serving stack: a keyed
// document store with explicit memory accounting, decoupled from both
// the HTTP server above it and the evaluation engine below it.
//
// Sharded (sharded.go) spreads entries over N independently locked
// shards with FNV-1a routing and gives every entry a monotonic version;
// its comment states the version contract. Values are opaque to the
// store: the caller supplies a size in bytes with every Put and the
// store enforces its configured budgets against that accounting.
package store

import "errors"

// ErrFull is returned by Put when admitting the entry would exceed a
// configured budget (entry count, or bytes under the Reject policy).
// Replacing an existing key is never rejected by the entry-count cap.
var ErrFull = errors.New("store: full")

// ErrTooLarge is returned by Put when a single entry is bigger than a
// whole shard's byte budget, so no amount of eviction could admit it.
var ErrTooLarge = errors.New("store: entry exceeds shard byte budget")

// EvictionPolicy selects what Put does when a shard's byte budget is
// exhausted.
type EvictionPolicy int

const (
	// EvictLRU evicts least-recently-used entries from the shard until
	// the new entry fits. Get refreshes recency.
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

// ShardStats describes one shard's current fill and lifetime counters.
type ShardStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats aggregates the store: totals plus the per-shard breakdown (the
// routing quality is visible as the spread of Entries across Shards).
// Beyond /stats, the serving layer reads Entries and Bytes at every
// /metrics scrape (the xpath_documents and xpath_store_bytes gauges).
type Stats struct {
	Entries   int          `json:"entries"`
	Bytes     int64        `json:"bytes"`
	Hits      uint64       `json:"hits"`
	Misses    uint64       `json:"misses"`
	Evictions uint64       `json:"evictions"`
	Shards    []ShardStats `json:"shards"`
}
