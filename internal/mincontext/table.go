package mincontext

import (
	"fmt"
	"slices"

	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// table is the context-value table of one parse-tree node, found by the
// node's slot; "How tables are stored" in the package comment has the
// layout and the reasons.
type table struct {
	one semantics.Value // the only row when Relev(N) lacks cn, once has is set
	has bool
	// asked is set once the run's bottom-up test has been put to the node,
	// whole once truth holds the table, computed at once (fillBottomUp).
	asked, whole bool
	truth        ext
	// cols are the rows by context node: one column, and further ones
	// only while nodes asked for out of document order await merging (add).
	cols []column
}

// column holds the values at an ascending list of context nodes in the
// array its node's static type picks.
type column struct {
	kind  xpath.Type
	nodes xmltree.NodeSet // shared with whoever asked; neither side writes it
	cur   int             // row of the last lookup

	nums  []float64
	bits  []uint64 // nbits of them pushed
	nbits int
	strs  []string
	off   []int32 // node sets (CSR): row i is flat[off[i]:off[i+1]]
	flat  xmltree.NodeSet
}

// newColumn returns a column over the context nodes X, ready for one
// push per node, its arrays from the run's slabs.
func (st *Run) newColumn(kind xpath.Type, x xmltree.NodeSet) column {
	c := column{kind: kind, nodes: x[:len(x):len(x)]}
	switch kind {
	case xpath.TypeNumber:
		c.nums = st.ar.Float64s().Make(len(x))
	case xpath.TypeBoolean:
		c.bits = st.ar.Words().Zeros((len(x) + 63) / 64)
	case xpath.TypeString:
		c.strs = st.ar.Strings().Make(len(x))
	default:
		c.off = append(st.ar.Int32s().Make(len(x)+1), 0)
	}
	return c
}

// push appends the row of the next context node. XPath 1.0 types
// statically, so a value of another kind than the column's is a bug,
// reported rather than stored out of step with the other rows.
func (st *Run) push(c *column, v semantics.Value) error {
	switch {
	case v.Kind != c.kind:
		return fmt.Errorf("mincontext: %v value in the table of a %v expression", v.Kind, c.kind)
	case c.kind == xpath.TypeNumber:
		c.nums = st.ar.Float64s().Append(c.nums, v.Num)
	case c.kind == xpath.TypeString:
		c.strs = st.ar.Strings().Append(c.strs, v.Str)
	case c.kind == xpath.TypeNodeSet:
		st.appendRow(c, v.Set)
	default:
		if c.nbits/64 == len(c.bits) {
			c.bits = st.ar.Words().Append(c.bits, 0)
		}
		if v.Bool {
			c.bits[c.nbits/64] |= 1 << (c.nbits % 64)
		}
		c.nbits++
	}
	return nil
}

// appendRow appends s as the next row of a node-set column.
func (st *Run) appendRow(c *column, s xmltree.NodeSet) {
	c.flat = st.ar.Append(c.flat, s...)
	c.off = st.ar.Int32s().Append(c.off, int32(len(c.flat)))
}

// row returns row i of a node-set column: a stretch of flat, shared and
// never written.
func (c *column) row(i int) xmltree.NodeSet {
	lo, hi := c.off[i], c.off[i+1]
	return c.flat[lo:hi:hi]
}

func (c *column) value(i int) semantics.Value {
	switch c.kind {
	case xpath.TypeNumber:
		return semantics.Number(c.nums[i])
	case xpath.TypeBoolean:
		return semantics.Boolean(c.bits[i/64]>>(i%64)&1 != 0)
	case xpath.TypeString:
		return semantics.String(c.strs[i])
	default:
		return semantics.NodeSet(c.row(i))
	}
}

// index returns the row of context node n, −1 if the column has none.
// The loops that read a table visit its context nodes in the order they
// tabulated them, so the row is usually the one after the last lookup;
// anything else is a binary search.
func (c *column) index(n xmltree.NodeID) int {
	if i := c.cur; c.nodes[i] == n {
		return i
	} else if i+1 < len(c.nodes) && c.nodes[i+1] == n {
		c.cur = i + 1
		return i + 1
	}
	i, ok := slices.BinarySearch(c.nodes, n)
	if !ok {
		return -1
	}
	c.cur = i
	return i
}

// take appends row i of src, context node and value, to c.
func (st *Run) take(c, src *column, i int) error {
	c.nodes = st.ar.Append(c.nodes, src.nodes[i])
	return st.push(c, src.value(i))
}

// add stores a filled column, whose context nodes the table has no row
// for yet: appended to the last column when they lie behind that one's.
// Nodes asked for out of document order start a column of their own,
// merged into its predecessor while that one is at most twice as long:
// lengths more than double towards the front, so n rows are at most
// log₂ n + 1 columns however the requests arrive, and a row is moved
// O(log n) times.
func (st *Run) add(t *table, c column) error {
	if len(c.nodes) == 0 {
		return nil
	}
	if err := st.cancel.CheckN(len(c.nodes)); err != nil {
		return err
	}
	k := len(t.cols) - 1
	if k >= 0 && t.cols[k].nodes[len(t.cols[k].nodes)-1] < c.nodes[0] {
		for i := range c.nodes {
			if err := st.take(&t.cols[k], &c, i); err != nil {
				return err
			}
		}
		return nil
	}
	t.cols = append(t.cols, c)
	for k++; k > 0 && len(t.cols[k-1].nodes) <= 2*len(t.cols[k].nodes); k-- {
		a, b := &t.cols[k-1], &t.cols[k]
		if err := st.cancel.CheckN(len(a.nodes) + len(b.nodes)); err != nil {
			return err
		}
		m := st.newColumn(a.kind, nil)
		for i, j := 0, 0; i < len(a.nodes) || j < len(b.nodes); {
			src, at := a, &i // whichever is behind; the two share no node
			if i == len(a.nodes) || j < len(b.nodes) && b.nodes[j] < a.nodes[i] {
				src, at = b, &j
			}
			if err := st.take(&m, src, *at); err != nil {
				return err
			}
			*at++
		}
		t.cols[k-1], t.cols = m, t.cols[:k]
	}
	return nil
}

// find returns the column and row holding context node n, a nil column
// if n has not been tabulated.
func (t *table) find(n xmltree.NodeID) (*column, int) {
	for k := len(t.cols) - 1; k >= 0; k-- {
		if i := t.cols[k].index(n); i >= 0 {
			return &t.cols[k], i
		}
	}
	return nil, -1
}

// lookup returns the table's value at context node n.
func (t *table) lookup(n xmltree.NodeID) (semantics.Value, bool) {
	if t.has {
		return t.one, true
	}
	if t.whole {
		// Under the context-free sentinel the node is itself context
		// independent — the table is uniform, any row serves.
		return semantics.Boolean(t.truth.holds(max(n, 0))), true
	}
	if c, i := t.find(n); c != nil {
		return c.value(i), true
	}
	return semantics.Value{}, false
}

// ext is a table the run computed whole (fillBottomUp): the nodes where
// its node holds, a sorted set, or its complement (neg). not() flips
// neg and and/or merge sets (compose), so a table costs the sets it is
// made of, never |D|: true() is the complement of the empty set.
type ext struct {
	set xmltree.NodeSet
	neg bool
}

// reached sets x to what the backward kernel returned: a path that holds
// everywhere arrives as the flag.
func (x *ext) reached(reach xmltree.NodeSet, everywhere bool, err error) error {
	*x = ext{set: reach, neg: everywhere}
	return err
}

// holds reports whether the node holds at n.
func (x ext) holds(n xmltree.NodeID) bool { return x.set.Contains(n) != x.neg }

// keep filters s, a sorted set, in place to s ∩ set, or to s − set; a
// tail past the set's last member stays where it lies if it can.
func (x ext) keep(s xmltree.NodeSet) xmltree.NodeSet {
	set, n, j := x.set, 0, 0
	if !x.neg {
		for _, y := range s {
			for j < len(set) && set[j] < y {
				j++
			}
			if j == len(set) {
				break
			}
			if set[j] == y {
				s[n] = y
				n++
			}
		}
		return s[:n]
	}
	for i, y := range s {
		for j < len(set) && set[j] < y {
			j++
		}
		if j == len(set) {
			if n == i {
				return s
			}
			return s[:n+copy(s[n:], s[i:])]
		}
		if set[j] != y {
			s[n] = y
			n++
		}
	}
	return s[:n]
}
