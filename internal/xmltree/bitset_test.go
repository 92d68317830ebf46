package xmltree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// setFromBytes builds a NodeSet over a 256-bit universe from raw fuzz
// bytes, so every byte is a valid member.
func setFromBytes(raw []byte) NodeSet {
	var ids []NodeID
	for _, v := range raw {
		ids = append(ids, NodeID(v))
	}
	return NewNodeSet(ids...)
}

// TestBitsetOpsMatchNodeSet asserts the word-parallel operations agree
// exactly with the sorted-merge NodeSet reference implementations.
func TestBitsetOpsMatchNodeSet(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	check := func(name string, f func(a, b []byte) bool) {
		t.Helper()
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	const n = 256
	check("union", func(a, b []byte) bool {
		sa, sb := setFromBytes(a), setFromBytes(b)
		ba := NewBitset(n).FromNodeSet(sa)
		ba.UnionWith(NewBitset(n).FromNodeSet(sb))
		return ba.ToNodeSet().Equal(sa.Union(sb))
	})
	check("intersect", func(a, b []byte) bool {
		sa, sb := setFromBytes(a), setFromBytes(b)
		ba := NewBitset(n).FromNodeSet(sa)
		ba.IntersectWith(NewBitset(n).FromNodeSet(sb))
		return ba.ToNodeSet().Equal(sa.Intersect(sb))
	})
	check("minus", func(a, b []byte) bool {
		sa, sb := setFromBytes(a), setFromBytes(b)
		ba := NewBitset(n).FromNodeSet(sa)
		ba.MinusWith(NewBitset(n).FromNodeSet(sb))
		return ba.ToNodeSet().Equal(sa.Minus(sb))
	})
	check("count-any", func(a, _ []byte) bool {
		sa := setFromBytes(a)
		ba := NewBitset(n).FromNodeSet(sa)
		return ba.Count() == len(sa) && ba.Any() == (len(sa) > 0)
	})
	check("intersect-set", func(a, b []byte) bool {
		sa, sb := setFromBytes(a), setFromBytes(b)
		bb := NewBitset(n).FromNodeSet(sb)
		return bb.IntersectSet(sa, nil).Equal(sa.Intersect(sb))
	})
}

// TestAccumulatorMatchesUnion runs one accumulator through rounds of
// n-way unions against chained NodeSet.Union: every flush (Result, and
// AppendTo behind a prefix the caller keeps) must leave it clean for the
// next round.
func TestAccumulatorMatchesUnion(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 100, 5000} {
		acc := NewAccumulator(n)
		if got := acc.Result(nil); got != nil {
			t.Fatalf("n=%d: empty accumulator yields %v", n, got)
		}
		for round := 0; round < 6; round++ {
			var want NodeSet
			for add := 0; add < 4; add++ {
				var s NodeSet
				for i := 0; i < n; i++ {
					if r.Intn(16) == 0 {
						s = append(s, NodeID(i))
					}
				}
				acc.Add(s)
				want = want.Union(s)
			}
			var got NodeSet
			if round%2 == 0 {
				got = acc.Result(nil)
			} else {
				got = acc.AppendTo(NodeSet{0})[1:]
			}
			if !got.Equal(want) {
				t.Fatalf("n=%d round %d: %d nodes, want %d", n, round, len(got), len(want))
			}
		}
	}
}

// TestBitsetComplementFill pins the tail-masking invariant on universes
// that do not fall on word boundaries.
func TestBitsetComplementFill(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 127, 128, 200} {
		b := NewBitset(n)
		b.Fill()
		if b.Count() != n {
			t.Fatalf("Fill on n=%d: count %d", n, b.Count())
		}
		b.Complement()
		if b.Any() {
			t.Fatalf("Complement of full n=%d not empty", n)
		}
		b.Add(0)
		b.Complement()
		if b.Count() != n-1 || b.Has(0) {
			t.Fatalf("Complement on n=%d wrong: count=%d has0=%v", n, b.Count(), b.Has(0))
		}
	}
}

// FuzzBitsetAlgebra cross-checks the packed ops against the NodeSet
// sorted-merge reference on fuzzer-chosen inputs.
func FuzzBitsetAlgebra(f *testing.F) {
	f.Add([]byte{0, 1, 2}, []byte{2, 3})
	f.Add([]byte{}, []byte{255})
	f.Add([]byte{63, 64, 65, 127, 128}, []byte{64, 128, 192})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		sa, sb := setFromBytes(a), setFromBytes(b)
		const n = 256
		ba, bb := NewBitset(n).FromNodeSet(sa), NewBitset(n).FromNodeSet(sb)
		u := ba.Clone()
		u.UnionWith(bb)
		if !u.ToNodeSet().Equal(sa.Union(sb)) {
			t.Fatalf("union mismatch: %v ∪ %v", sa, sb)
		}
		i := ba.Clone()
		i.IntersectWith(bb)
		if !i.ToNodeSet().Equal(sa.Intersect(sb)) {
			t.Fatalf("intersect mismatch: %v ∩ %v", sa, sb)
		}
		m := ba.Clone()
		m.MinusWith(bb)
		if !m.ToNodeSet().Equal(sa.Minus(sb)) {
			t.Fatalf("minus mismatch: %v − %v", sa, sb)
		}
		nb := ba.Clone()
		nb.Complement()
		var dom NodeSet
		for id := 0; id < n; id++ {
			dom = append(dom, NodeID(id))
		}
		if !nb.ToNodeSet().Equal(dom.Minus(sa)) {
			t.Fatalf("complement mismatch: dom − %v", sa)
		}
	})
}
