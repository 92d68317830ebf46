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
	// truth is a table complete on arrival (SetTruth): the context nodes
	// at which a boolean node is true.
	truth *xmltree.Bitset
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
// push per node.
func newColumn(kind xpath.Type, x xmltree.NodeSet) column {
	c := column{kind: kind, nodes: x[:len(x):len(x)]}
	switch kind {
	case xpath.TypeNumber:
		c.nums = make([]float64, 0, len(x))
	case xpath.TypeBoolean:
		c.bits = make([]uint64, (len(x)+63)/64)
	case xpath.TypeString:
		c.strs = make([]string, 0, len(x))
	default:
		c.off = make([]int32, 1, len(x)+1)
	}
	return c
}

// push appends the row of the next context node. XPath 1.0 types
// statically, so a value of another kind than the column's is a bug,
// reported rather than stored out of step with the other rows.
func (c *column) push(v semantics.Value) error {
	switch {
	case v.Kind != c.kind:
		return fmt.Errorf("mincontext: %v value in the table of a %v expression", v.Kind, c.kind)
	case c.kind == xpath.TypeNumber:
		c.nums = append(c.nums, v.Num)
	case c.kind == xpath.TypeString:
		c.strs = append(c.strs, v.Str)
	case c.kind == xpath.TypeNodeSet:
		c.appendRow(v.Set)
	default:
		if c.nbits/64 == len(c.bits) {
			c.bits = append(c.bits, 0)
		}
		if v.Bool {
			c.bits[c.nbits/64] |= 1 << (c.nbits % 64)
		}
		c.nbits++
	}
	return nil
}

// appendRow appends s as the next row of a node-set column.
func (c *column) appendRow(s xmltree.NodeSet) {
	c.flat = append(c.flat, s...)
	c.off = append(c.off, int32(len(c.flat)))
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

// take appends row i of src, context node and value.
func (c *column) take(src *column, i int) error {
	c.nodes = append(c.nodes, src.nodes[i])
	return c.push(src.value(i))
}

// add stores a filled column, whose context nodes the table has no row
// for yet: appended to the last column when they lie behind that one's.
// Nodes asked for out of document order start a column of their own,
// merged into its predecessor while that one is at most twice as long:
// lengths more than double towards the front, so n rows are at most
// log₂ n + 1 columns however the requests arrive, and a row is moved
// O(log n) times.
func (t *table) add(c column) error {
	if len(c.nodes) == 0 {
		return nil
	}
	k := len(t.cols) - 1
	if k >= 0 && t.cols[k].nodes[len(t.cols[k].nodes)-1] < c.nodes[0] {
		for i := range c.nodes {
			if err := t.cols[k].take(&c, i); err != nil {
				return err
			}
		}
		return nil
	}
	t.cols = append(t.cols, c)
	for k++; k > 0 && len(t.cols[k-1].nodes) <= 2*len(t.cols[k].nodes); k-- {
		a, b := &t.cols[k-1], &t.cols[k]
		m := newColumn(a.kind, nil)
		for i, j := 0, 0; i < len(a.nodes) || j < len(b.nodes); {
			src, at := a, &i // whichever is behind; the two share no node
			if i == len(a.nodes) || j < len(b.nodes) && b.nodes[j] < a.nodes[i] {
				src, at = b, &j
			}
			if err := m.take(src, *at); err != nil {
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
	if t.truth != nil {
		// Under the context-free sentinel the node is itself context
		// independent — the table is uniform, any row serves.
		return semantics.Boolean(t.truth.Has(max(n, 0))), true
	}
	if c, i := t.find(n); c != nil {
		return c.value(i), true
	}
	return semantics.Value{}, false
}
