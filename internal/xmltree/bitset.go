package xmltree

import "math/bits"

// Bitset is a packed, word-parallel boolean set over dom: bit i is node
// i. It replaces the earlier []bool bitmap and is the workhorse set
// representation of the linear-time Core XPath algebra (Section 10.1),
// where every set operation must run in O(|dom|) — the packed form runs
// them in O(|dom|/64) machine words. A Bitset is created for a fixed
// universe size and all binary operations require both operands to share
// that size.
type Bitset struct {
	words []uint64
	n     int // universe size |dom| in bits
}

const wordBits = 64

// NewBitset returns an empty bitset over a universe of n nodes.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the universe size |dom| the bitset ranges over.
func (b *Bitset) Len() int { return b.n }

// Reset grows (or re-slices) the bitset to a universe of n nodes and
// clears it. The backing array is reused when capacity allows, which is
// what keeps pooled evaluator scratch allocation-free in steady state.
func (b *Bitset) Reset(n int) {
	w := (n + wordBits - 1) / wordBits
	if cap(b.words) < w {
		b.words = make([]uint64, w)
	} else {
		b.words = b.words[:w]
		for i := range b.words {
			b.words[i] = 0
		}
	}
	b.n = n
}

// Add inserts id into the set.
func (b *Bitset) Add(id NodeID) { b.words[id/wordBits] |= 1 << (uint(id) % wordBits) }

// Remove deletes id from the set.
func (b *Bitset) Remove(id NodeID) { b.words[id/wordBits] &^= 1 << (uint(id) % wordBits) }

// Has reports membership in constant time.
func (b *Bitset) Has(id NodeID) bool {
	return b.words[id/wordBits]&(1<<(uint(id)%wordBits)) != 0
}

// Clear empties the set, keeping its universe size.
func (b *Bitset) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Fill makes the set equal to dom (all n bits set).
func (b *Bitset) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// trim zeroes the tail bits of the last word beyond the universe size,
// the invariant every word-parallel operation relies on for Count/Any.
func (b *Bitset) trim() {
	if tail := uint(b.n) % wordBits; tail != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << tail) - 1
	}
}

// UnionWith sets b = b ∪ c word-parallel.
func (b *Bitset) UnionWith(c *Bitset) {
	for i, w := range c.words {
		b.words[i] |= w
	}
}

// IntersectWith sets b = b ∩ c word-parallel.
func (b *Bitset) IntersectWith(c *Bitset) {
	for i, w := range c.words {
		b.words[i] &= w
	}
}

// MinusWith sets b = b − c word-parallel.
func (b *Bitset) MinusWith(c *Bitset) {
	for i, w := range c.words {
		b.words[i] &^= w
	}
}

// Complement sets b = dom − b word-parallel.
func (b *Bitset) Complement() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.trim()
}

// Any reports whether the set is non-empty.
func (b *Bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns |b| via per-word popcount.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports set equality. The universes must match.
func (b *Bitset) Equal(c *Bitset) bool {
	if b.n != c.n {
		return false
	}
	for i, w := range b.words {
		if w != c.words[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the set.
func (b *Bitset) Clone() *Bitset {
	return &Bitset{words: append([]uint64(nil), b.words...), n: b.n}
}

// AddRange inserts the half-open interval [lo, hi) word-parallel: full
// interior words are set with one store each, so an interval fill costs
// O(len/64) — the bitset form of a subtree-interval fill, for callers
// that consume axis images as bitsets rather than ordered NodeSets.
func (b *Bitset) AddRange(lo, hi NodeID) {
	if lo >= hi {
		return
	}
	lw, hw := int(lo)/wordBits, int(hi-1)/wordBits
	lmask := ^uint64(0) << (uint(lo) % wordBits)
	hmask := ^uint64(0) >> (wordBits - 1 - uint(hi-1)%wordBits)
	if lw == hw {
		b.words[lw] |= lmask & hmask
		return
	}
	b.words[lw] |= lmask
	for i := lw + 1; i < hw; i++ {
		b.words[i] = ^uint64(0)
	}
	b.words[hw] |= hmask
}

// AddSet inserts every member of s.
func (b *Bitset) AddSet(s NodeSet) {
	for _, id := range s {
		b.Add(id)
	}
}

// FromNodeSet clears the set and fills it with the members of s.
func (b *Bitset) FromNodeSet(s NodeSet) *Bitset {
	b.Clear()
	b.AddSet(s)
	return b
}

// AppendTo appends the members in ascending (document) order to dst via
// a trailing-zero scan — O(|dom|/64 + output) — and returns the
// extended slice. Passing a reused dst[:0] keeps the conversion
// allocation-free in steady state.
func (b *Bitset) AppendTo(dst NodeSet) NodeSet {
	for i, w := range b.words {
		base := NodeID(i * wordBits)
		for w != 0 {
			dst = append(dst, base+NodeID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// ToNodeSet converts the bitset to a freshly allocated sorted NodeSet.
func (b *Bitset) ToNodeSet() NodeSet {
	return b.AppendTo(make(NodeSet, 0, b.Count()))
}

// IntersectSet returns s ∩ b, preserving s's order, appending to dst
// (which may be s[:0] when s is dead after the call).
func (b *Bitset) IntersectSet(s NodeSet, dst NodeSet) NodeSet {
	for _, id := range s {
		if b.Has(id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Accumulator unions many NodeSets through a bitset: n-way unions cost
// O(Σ|sᵢ| + |dom|/64) instead of the O(Σᵢ i·|sᵢ|) of chained sorted
// merges. The context-value-table engines use it to compose step
// relations. The zero value is unusable; make one with NewAccumulator
// and Reset it between unions (Reset cost is proportional to the words
// the previous union touched, via the tracked word range).
type Accumulator struct {
	b        Bitset
	total    int
	loW, hiW int // touched word range [loW, hiW)
}

// NewAccumulator returns an accumulator over a universe of n nodes.
func NewAccumulator(n int) *Accumulator {
	a := &Accumulator{}
	a.b.Reset(n)
	a.loW = len(a.b.words)
	return a
}

// Reset clears the accumulator for the next union.
func (a *Accumulator) Reset() {
	for i := a.loW; i < a.hiW; i++ {
		a.b.words[i] = 0
	}
	a.total, a.loW, a.hiW = 0, len(a.b.words), 0
}

// Add unions s into the accumulator.
func (a *Accumulator) Add(s NodeSet) {
	if len(s) == 0 {
		return
	}
	a.total += len(s)
	if w := int(s[0]) / wordBits; w < a.loW {
		a.loW = w
	}
	if w := int(s[len(s)-1])/wordBits + 1; w > a.hiW {
		a.hiW = w
	}
	for _, id := range s {
		a.b.Add(id)
	}
}

// Result materializes the union as a freshly allocated sorted NodeSet
// and resets the accumulator. Capacity is sized by the (duplicate
// counting) running total, an upper bound on the union's size.
func (a *Accumulator) Result() NodeSet {
	if a.total == 0 {
		a.Reset()
		return nil
	}
	return a.AppendTo(make(NodeSet, 0, a.total))
}

// AppendTo appends the union to dst in document order and resets the
// accumulator: Result into a buffer the caller keeps, such as the flat
// member list of a relation.
func (a *Accumulator) AppendTo(dst NodeSet) NodeSet {
	for i := a.loW; i < a.hiW; i++ {
		w := a.b.words[i]
		base := NodeID(i * wordBits)
		for w != 0 {
			dst = append(dst, base+NodeID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	a.Reset()
	return dst
}
