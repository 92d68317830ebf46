package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ParsePeers turns a comma-separated list of backend base URLs (the
// -peers / -from / -to flag form) into Nodes, rejecting empties and
// duplicates (a duplicate peer would silently skew the partitioning).
func ParsePeers(spec string, timeout time.Duration) ([]*Node, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("empty peer list (want comma-separated backend URLs)")
	}
	seen := map[string]bool{}
	var nodes []*Node
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		n, err := NewNode(raw, timeout)
		if err != nil {
			return nil, err
		}
		if seen[n.URL()] {
			return nil, fmt.Errorf("duplicate peer %s", n.URL())
		}
		seen[n.URL()] = true
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("no usable URLs in %q", spec)
	}
	return nodes, nil
}

// Ring is the cluster's explicit placement abstraction: an ordered
// peer list plus a generation number. Ownership is computed, never
// looked up — KeyShard picks a document's owning slot, and the peers
// after that slot in ring order are its replica successors.
//
// Peers are canonically ordered (sorted by URL) at construction, so a
// ring is a value: two rings built from the same peer set in any
// argument order compute identical owners and successors. That makes
// placement stable under -peers reordering — only adding or removing
// a peer changes where documents live, which is exactly the event the
// reshard tool (cmd/xpathreshard) exists for. The generation number
// names a placement epoch: operators bump it when the peer set
// changes, and /healthz exposes it so a drain-mode router and its old
// ring are distinguishable at a glance.
type Ring struct {
	peers []*Node
	gen   uint64
}

// NewRing builds a ring over the given peers (at least one), sorted
// into canonical order, stamped with the given placement generation.
func NewRing(peers []*Node, gen uint64) (*Ring, error) {
	if len(peers) == 0 {
		return nil, errors.New("cluster: ring needs at least one peer")
	}
	sorted := make([]*Node, len(peers))
	copy(sorted, peers)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].URL() < sorted[j].URL() })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].URL() == sorted[i-1].URL() {
			return nil, errors.New("cluster: duplicate peer " + sorted[i].URL())
		}
	}
	return &Ring{peers: sorted, gen: gen}, nil
}

// Len returns the number of peers on the ring.
func (r *Ring) Len() int { return len(r.peers) }

// Generation returns the ring's placement generation.
func (r *Ring) Generation() uint64 { return r.gen }

// Peers returns the peers in canonical ring order. The slice is the
// ring's own; callers must not mutate it.
func (r *Ring) Peers() []*Node { return r.peers }

// KeyShard returns the bucket in [0, n) that key routes to under
// FNV-1a. It is the cluster's one placement function: Ring.Owner picks
// a document's owning peer with it, and the answer cache its floor
// bucket.
func KeyShard(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// OwnerIndex returns the ring slot that owns doc.
func (r *Ring) OwnerIndex(doc string) int {
	return KeyShard(doc, len(r.peers))
}

// Owner returns the peer that owns doc.
func (r *Ring) Owner(doc string) *Node {
	return r.peers[r.OwnerIndex(doc)]
}

// At returns the peer k slots after doc's owner in ring order (k = 0
// is the owner itself, k = 1 the first replica successor, and so on,
// wrapping around the ring).
func (r *Ring) At(doc string, k int) *Node {
	return r.peers[(r.OwnerIndex(doc)+k)%len(r.peers)]
}

// Replicas returns the distinct peers that should hold doc under an
// n-replica policy: the owner followed by its next n ring successors.
// On a ring smaller than n+1 peers the whole ring is returned; n is
// clamped to [0, len-1], so the owner is always included — a caller
// computing placement from a bad flag must never see an empty
// placement (the reshard planner would read that as "prune every
// copy").
func (r *Ring) Replicas(doc string, n int) []*Node {
	if n < 0 {
		n = 0
	}
	if n > len(r.peers)-1 {
		n = len(r.peers) - 1
	}
	out := make([]*Node, 0, n+1)
	for k := 0; k <= n; k++ {
		out = append(out, r.At(doc, k))
	}
	return out
}

// RingPeer is one peer of a ring description.
type RingPeer struct {
	Node string `json:"node"`
	URL  string `json:"url"`
}

// RingDesc is the JSON-serializable description of a ring — the
// placement contract a router exposes on /healthz, precise enough for
// an external client (or the reshard tool) to recompute every
// document's owner: peers in canonical ring order, the generation,
// and the partitioning function's name.
type RingDesc struct {
	Generation uint64     `json:"generation"`
	Placement  string     `json:"placement"`
	Peers      []RingPeer `json:"peers"`
}

// Describe returns the ring's serializable description.
func (r *Ring) Describe() RingDesc {
	d := RingDesc{Generation: r.gen, Placement: "fnv1a mod " + strconv.Itoa(len(r.peers)), Peers: make([]RingPeer, len(r.peers))}
	for i, n := range r.peers {
		d.Peers[i] = RingPeer{Node: n.Name(), URL: n.URL()}
	}
	return d
}
