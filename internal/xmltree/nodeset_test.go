package xmltree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNodeSetBasics(t *testing.T) {
	s := NewNodeSet(5, 3, 5, 1)
	if len(s) != 3 || s[0] != 1 || s[1] != 3 || s[2] != 5 {
		t.Fatalf("NewNodeSet dedup/sort failed: %v", s)
	}
	if !s.Contains(3) || s.Contains(2) {
		t.Error("Contains wrong")
	}
	if s.First() != 1 {
		t.Error("First wrong")
	}
	var empty NodeSet
	if !empty.IsEmpty() || empty.First() != NilNode {
		t.Error("empty set behaviour wrong")
	}
}

func TestNodeSetOps(t *testing.T) {
	a := NewNodeSet(1, 2, 3, 4)
	b := NewNodeSet(3, 4, 5)
	if got := a.Union(b); !got.Equal(NewNodeSet(1, 2, 3, 4, 5)) {
		t.Errorf("union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewNodeSet(3, 4)) {
		t.Errorf("intersect = %v", got)
	}
	if got := a.Minus(b); !got.Equal(NewNodeSet(1, 2)) {
		t.Errorf("minus = %v", got)
	}
	if got := b.Minus(a); !got.Equal(NewNodeSet(5)) {
		t.Errorf("minus = %v", got)
	}
	var empty NodeSet
	if got := a.Union(empty); !got.Equal(a) {
		t.Errorf("union empty = %v", got)
	}
	if got := empty.Union(a); !got.Equal(a) {
		t.Errorf("empty union = %v", got)
	}
	if got := a.Intersect(empty); !got.IsEmpty() {
		t.Errorf("intersect empty = %v", got)
	}
}

// genSet produces a random small NodeSet for property tests.
func genSet(r *rand.Rand) NodeSet {
	n := r.Intn(12)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(r.Intn(20))
	}
	return NewNodeSet(ids...)
}

func TestNodeSetAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(genSet(r))
			}
		},
	}
	// Union is commutative and idempotent; De Morgan-ish identities via
	// Minus; Intersect distributes over Union on these finite sets.
	if err := quick.Check(func(a, b, c NodeSet) bool {
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Union(a).Equal(a) {
			return false
		}
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		// a − b ⊆ a and disjoint from b
		m := a.Minus(b)
		if !m.Intersect(b).IsEmpty() {
			return false
		}
		if !m.Union(a.Intersect(b)).Equal(a) {
			return false
		}
		// distributivity: a ∩ (b ∪ c) = (a∩b) ∪ (a∩c)
		l := a.Intersect(b.Union(c))
		rr := a.Intersect(b).Union(a.Intersect(c))
		return l.Equal(rr)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestNodeSetRange: Range is the sub-slice of members in [lo, hi),
// empty — never a panic — when the interval is empty or inverted.
func TestNodeSetRange(t *testing.T) {
	s := NodeSet{2, 3, 5, 8, 13}
	for _, tc := range []struct {
		lo, hi NodeID
		want   NodeSet
	}{
		{0, 100, s},
		{3, 8, NodeSet{3, 5}},
		{4, 5, nil},
		{5, 6, NodeSet{5}},
		{13, 14, NodeSet{13}},
		{14, 20, nil},
		{8, 3, nil},
		{0, 2, nil},
	} {
		if got := s.Range(tc.lo, tc.hi); !got.Equal(tc.want) {
			t.Errorf("Range(%d, %d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
	if got := NodeSet(nil).Range(0, 5); len(got) != 0 {
		t.Errorf("nil.Range = %v", got)
	}
	if r := s.Range(3, 8); &r[0] != &s[1] {
		t.Error("Range must return a sub-slice, not a copy")
	}
}

// TestIntersectLopsided drives both Intersect strategies (merge and
// search-the-smaller-in-the-larger) and Intersects against a map-based
// reference, with sizes on both sides of the lopsided threshold and the
// smaller set on either side.
func TestIntersectLopsided(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	draw := func(n, universe int) NodeSet {
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = NodeID(r.Intn(universe))
		}
		return NewNodeSet(ids...)
	}
	for round := 0; round < 300; round++ {
		small, large := draw(r.Intn(6), 2000), draw(r.Intn(600), 2000)
		in := map[NodeID]bool{}
		for _, id := range large {
			in[id] = true
		}
		var want NodeSet
		for _, id := range small {
			if in[id] {
				want = append(want, id)
			}
		}
		for _, pair := range [][2]NodeSet{{small, large}, {large, small}} {
			if got := pair[0].Intersect(pair[1]); !got.Equal(want) {
				t.Fatalf("round %d: %v ∩ %v = %v, want %v", round, pair[0], pair[1], got, want)
			}
			if got := pair[0].Intersects(pair[1]); got != (len(want) > 0) {
				t.Fatalf("round %d: Intersects = %v, want %v", round, got, len(want) > 0)
			}
		}
	}
}

func TestBitsetRoundTrip(t *testing.T) {
	if err := quick.Check(func(raw []uint8) bool {
		var ids []NodeID
		for _, v := range raw {
			ids = append(ids, NodeID(v)) // universe of 256 spans >1 word
		}
		s := NewNodeSet(ids...)
		b := NewBitset(256).FromNodeSet(s)
		return b.ToNodeSet().Equal(s)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSeek: Seek(from, id) is the first index at or after from whose
// member is at least id, from every starting point.
func TestSeek(t *testing.T) {
	s := NodeSet{2, 3, 5, 8, 13, 21, 34, 55, 89}
	for from := 0; from <= len(s); from++ {
		for id := NodeID(0); id < 100; id++ {
			want := from
			for want < len(s) && s[want] < id {
				want++
			}
			if got := s.Seek(from, id); got != want {
				t.Fatalf("Seek(%d, %d) = %d, want %d", from, id, got, want)
			}
		}
	}
	if got := (NodeSet{}).Seek(0, 7); got != 0 {
		t.Errorf("Seek on the empty set = %d", got)
	}
}
