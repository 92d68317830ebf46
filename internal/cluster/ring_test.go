package cluster

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

func testNodes(t *testing.T, urls ...string) []*Node {
	t.Helper()
	nodes := make([]*Node, len(urls))
	for i, u := range urls {
		n, err := NewNode(u, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	return nodes
}

// TestRingStableUnderReordering is the placement-stability contract:
// rings built from the same peer set in any argument order must
// compute identical owners and successors for every document — a
// reordered -peers flag must never silently move the corpus.
func TestRingStableUnderReordering(t *testing.T) {
	urls := []string{"http://nodeb:8080", "http://nodea:8080", "http://nodec:8080"}
	perms := [][]string{
		{urls[0], urls[1], urls[2]},
		{urls[2], urls[0], urls[1]},
		{urls[1], urls[2], urls[0]},
		{urls[2], urls[1], urls[0]},
	}
	rings := make([]*Ring, len(perms))
	for i, p := range perms {
		r, err := NewRing(testNodes(t, p...), 1)
		if err != nil {
			t.Fatal(err)
		}
		rings[i] = r
	}
	for i := 0; i < 50; i++ {
		doc := fmt.Sprintf("doc-%d", i)
		owner := rings[0].Owner(doc).URL()
		succ := rings[0].At(doc, 1).URL()
		for _, r := range rings[1:] {
			if r.Owner(doc).URL() != owner {
				t.Fatalf("owner of %s differs across peer orders: %s vs %s", doc, r.Owner(doc).URL(), owner)
			}
			if r.At(doc, 1).URL() != succ {
				t.Fatalf("successor of %s differs across peer orders: %s vs %s", doc, r.At(doc, 1).URL(), succ)
			}
		}
	}
}

// TestRingReplicasAndWraparound pins the replica set: owner plus n
// distinct successors in ring order, wrapping, and clamped to the
// ring size.
func TestRingReplicasAndWraparound(t *testing.T) {
	ring, err := NewRing(testNodes(t, "http://a:1", "http://b:1", "http://c:1"), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		doc := fmt.Sprintf("doc-%d", i)
		reps := ring.Replicas(doc, 1)
		if len(reps) != 2 {
			t.Fatalf("Replicas(%s, 1) has %d nodes, want 2", doc, len(reps))
		}
		if reps[0] != ring.Owner(doc) {
			t.Fatalf("first replica of %s is not its owner", doc)
		}
		if reps[1] == reps[0] {
			t.Fatalf("successor of %s duplicates the owner", doc)
		}
		// A replica budget past the ring size returns the whole ring.
		if all := ring.Replicas(doc, 7); len(all) != 3 {
			t.Fatalf("Replicas(%s, 7) has %d nodes, want the whole 3-ring", doc, len(all))
		}
	}
	// The successor wraps: the last ring slot's successor is slot 0.
	last := ring.Peers()[2]
	for i := 0; ; i++ {
		doc := fmt.Sprintf("wrap-%d", i)
		if ring.Owner(doc) == last {
			if ring.At(doc, 1) != ring.Peers()[0] {
				t.Fatalf("successor past the last slot did not wrap to slot 0")
			}
			break
		}
		if i > 1000 {
			t.Fatal("no document owned by the last slot in 1000 tries")
		}
	}
}

// TestRingValidationAndDescribe covers construction errors and the
// JSON description /healthz exposes.
func TestRingValidationAndDescribe(t *testing.T) {
	if _, err := NewRing(nil, 1); err == nil {
		t.Fatal("empty ring accepted")
	}
	dup := testNodes(t, "http://a:1", "http://a:1")
	if _, err := NewRing(dup, 1); err == nil {
		t.Fatal("duplicate peer accepted")
	}
	ring, err := NewRing(testNodes(t, "http://b:1", "http://a:1"), 7)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Generation() != 7 {
		t.Fatalf("Generation = %d, want 7", ring.Generation())
	}
	desc := ring.Describe()
	buf, err := json.Marshal(desc)
	if err != nil {
		t.Fatal(err)
	}
	var back RingDesc
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Generation != 7 || len(back.Peers) != 2 {
		t.Fatalf("round-tripped description = %+v", back)
	}
	// Canonical order: sorted by URL regardless of argument order.
	if back.Peers[0].URL != "http://a:1" || back.Peers[1].URL != "http://b:1" {
		t.Fatalf("peers not in canonical order: %+v", back.Peers)
	}
}

// TestKeyShardRange pins the placement function: FNV-1a, so a
// document's owner never moves between releases (the values below are
// fixed), and every key routes to a bucket in [0, n).
func TestKeyShardRange(t *testing.T) {
	for key, want := range map[string]int{"d0": 1, "d1": 6, "d7": 4, "d8": 1} {
		if got := KeyShard(key, 8); got != want {
			t.Errorf("KeyShard(%q, 8) = %d, want %d", key, got, want)
		}
	}
	for _, n := range []int{1, 2, 3, 8} {
		if k := KeyShard("anything", n); k < 0 || k >= n {
			t.Fatalf("KeyShard(_, %d) = %d out of range", n, k)
		}
	}
}

// TestShardDistribution checks that a realistic population of document
// names reaches every bucket and that routing is stable per key.
func TestShardDistribution(t *testing.T) {
	var per [8]int
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("doc-%d", i)
		if KeyShard(key, 8) != KeyShard(key, 8) {
			t.Fatalf("routing for %q is not stable", key)
		}
		per[KeyShard(key, 8)]++
	}
	for b, n := range per {
		if n == 0 {
			t.Fatalf("bucket %d is empty: distribution %v", b, per)
		}
	}
}
