package naive

import (
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// DataPool is the data pool of Section 9 (Algorithm 9.1), the evaluator's
// memo: a table of ⟨expression, context, value⟩ triples with a retrieval
// procedure consulted before every basic evaluation step and a storage
// procedure run after it. It bounds the number of distinct (recursive)
// calls by O(|D|³·|Q|) and so turns the exponential evaluator into a
// polynomial one (Theorem 9.2) — the paper demonstrates exactly this by
// patching Xalan (Table V, Figure 12). A nil pool remembers nothing.
type DataPool struct {
	tables map[xpath.Expr]*exprTable

	// sizeHint pre-sizes dense node-keyed tables to the document; 0
	// means tables grow on demand.
	sizeHint int

	// Hits and Misses count retrieval-procedure outcomes, exposing the
	// sharing the pool achieves.
	Hits, Misses int64
}

// NewPooled returns an evaluator that memoizes through a fresh data
// pool, i.e. the paper's "Xalan + data pool" configuration, and the
// pool.
func NewPooled(d *xmltree.Document) (*Evaluator, *DataPool) {
	p := &DataPool{sizeHint: d.Len()}
	return &Evaluator{doc: d, pool: p}, p
}

// ctxKey identifies a context for position/size-dependent expressions.
type ctxKey struct {
	node      xmltree.NodeID
	pos, size int
}

// exprTable stores the pooled values of one expression, projected onto
// the relevant context columns (the Section 9.2 refinement for location
// paths, generalized through Relev, Section 8.2):
//
//   - no relevant columns: one value (cval);
//   - node-only (the overwhelmingly common case): a dense array indexed
//     by NodeID — O(1) retrieval with no hashing and one allocation for
//     the whole table;
//   - position/size-dependent: a map keyed by the projected context.
type exprTable struct {
	relev   xpath.Relev
	vals    []semantics.Value
	present []bool
	m       map[ctxKey]semantics.Value
	cval    semantics.Value
	cset    bool
}

func (t *exprTable) key(c semantics.Context) ctxKey {
	k := ctxKey{node: xmltree.NilNode, pos: -1, size: -1}
	if t.relev.Has(xpath.RelevNode) {
		k.node = c.Node
	}
	if t.relev.Has(xpath.RelevPos) {
		k.pos = c.Pos
	}
	if t.relev.Has(xpath.RelevSize) {
		k.size = c.Size
	}
	return k
}

// lookup is the retrieval procedure: it returns the stored value of e in
// context c, if any.
func (p *DataPool) lookup(e xpath.Expr, c semantics.Context) (semantics.Value, bool) {
	if p == nil {
		return semantics.Value{}, false
	}
	v, ok := p.find(e, c)
	if ok {
		p.Hits++
	} else {
		p.Misses++
	}
	return v, ok
}

func (p *DataPool) find(e xpath.Expr, c semantics.Context) (semantics.Value, bool) {
	t, ok := p.tables[e]
	switch {
	case !ok:
		return semantics.Value{}, false
	case t.m != nil:
		v, ok := t.m[t.key(c)]
		return v, ok
	case !t.relev.Has(xpath.RelevNode):
		return t.cval, t.cset
	}
	if n := int(c.Node); n >= 0 && n < len(t.vals) && t.present[n] {
		return t.vals[n], true
	}
	return semantics.Value{}, false
}

// store is the storage procedure: it records ⟨e, c, v⟩ in the pool.
func (p *DataPool) store(e xpath.Expr, c semantics.Context, v semantics.Value) {
	if p == nil {
		return
	}
	t, ok := p.tables[e]
	if !ok {
		t = &exprTable{relev: xpath.RelevantContext(e)}
		if t.relev&(xpath.RelevPos|xpath.RelevSize) != 0 {
			t.m = map[ctxKey]semantics.Value{}
		}
		if p.tables == nil {
			p.tables = map[xpath.Expr]*exprTable{}
		}
		p.tables[e] = t
	}
	switch {
	case t.m != nil:
		t.m[t.key(c)] = v
	case !t.relev.Has(xpath.RelevNode):
		t.cval, t.cset = v, true
	default:
		n := int(c.Node)
		if n < 0 {
			return
		}
		if n >= len(t.vals) {
			size := max(len(t.vals)*2, n+1, p.sizeHint)
			vals := make([]semantics.Value, size)
			copy(vals, t.vals)
			present := make([]bool, size)
			copy(present, t.present)
			t.vals, t.present = vals, present
		}
		t.vals[n], t.present[n] = v, true
	}
}

// Size returns the total number of stored triples.
func (p *DataPool) Size() int {
	n := 0
	for _, t := range p.tables {
		switch {
		case t.m != nil:
			n += len(t.m)
		case !t.relev.Has(xpath.RelevNode):
			if t.cset {
				n++
			}
		default:
			for _, ok := range t.present {
				if ok {
					n++
				}
			}
		}
	}
	return n
}
