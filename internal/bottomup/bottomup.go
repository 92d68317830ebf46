// Package bottomup implements the bottom-up context-value-table
// evaluation of Section 6 (Definition 6.1, Algorithm 6.3). For every
// node of the query parse tree — visited leaves-first — it materializes
// the complete context-value table E↑[[e]]: the relation associating
// every context ⟨x, k, n⟩ with the value of e in that context. The final
// answer is read out of the root table.
//
// Tables are stored with the column omission the paper itself applies in
// its examples (footnote 8 and Figure 9): columns of the context a
// subexpression provably cannot observe — per the Relev analysis of
// Section 8.2 — are not materialized, and lookups project onto the
// stored columns. Expressions that depend on the full context ⟨x, k, n⟩
// still enumerate O(|D|³) rows, which is the honest cost of Algorithm
// 6.3; the improved engines of Sections 7 and 8 exist precisely to avoid
// it. Use this engine on small documents.
package bottomup

import (
	"context"
	"fmt"

	"repro/internal/axes"
	"repro/internal/evalutil"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Evaluator evaluates XPath queries by materializing context-value
// tables bottom-up.
type Evaluator struct {
	doc *xmltree.Document

	// cancel is the throttled checkpoint consulted inside every
	// table-materialization loop; nil (the Evaluate path) never fires.
	cancel *evalutil.Canceller
}

// New returns a bottom-up evaluator for the document.
func New(d *xmltree.Document) *Evaluator { return &Evaluator{doc: d} }

// ctxKey is a context projected onto the relevant columns; irrelevant
// columns are fixed sentinels so all contexts agreeing on the relevant
// part share one row.
type ctxKey struct {
	node      xmltree.NodeID
	pos, size int32
}

// table is a context-value table E↑[[e]] (Table III): a relation with a
// functional dependency from context to value, stored sparsely on the
// relevant columns.
type table struct {
	relev xpath.Relev
	vals  map[ctxKey]semantics.Value
}

func (t *table) key(c semantics.Context) ctxKey {
	k := ctxKey{node: xmltree.NilNode, pos: -1, size: -1}
	if t.relev.Has(xpath.RelevNode) {
		k.node = c.Node
	}
	if t.relev.Has(xpath.RelevPos) {
		k.pos = int32(c.Pos)
	}
	if t.relev.Has(xpath.RelevSize) {
		k.size = int32(c.Size)
	}
	return k
}

// get looks up the value of the table's expression in context c.
func (t *table) get(c semantics.Context) (semantics.Value, bool) {
	v, ok := t.vals[t.key(c)]
	return v, ok
}

// Evaluate runs Algorithm 6.3 and reads the result for context c out of
// the root table.
func (ev *Evaluator) Evaluate(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	return ev.EvaluateContext(context.Background(), e, c)
}

// EvaluateContext is Evaluate with cancellation: the table-building
// loops check ctx at throttled checkpoints and abandon the evaluation
// with ctx's error (context.Canceled or DeadlineExceeded) once it is
// done. Table materialization enumerates up to |D|³ contexts, so this
// is the difference between an abandoned request releasing its CPU in
// microseconds and burning minutes.
func (ev *Evaluator) EvaluateContext(ctx context.Context, e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	ev.cancel = evalutil.NewCanceller(ctx)
	t, err := ev.buildTable(e)
	if err != nil {
		return semantics.Value{}, err
	}
	v, ok := t.get(c)
	if !ok {
		return semantics.Value{}, fmt.Errorf("bottomup: context ⟨%d,%d,%d⟩ not covered", c.Node, c.Pos, c.Size)
	}
	return v, nil
}

// Table exposes the complete context-value table of an expression for
// inspection (used by tests reproducing Figures 6 and 9).
func (ev *Evaluator) Table(e xpath.Expr) (map[semantics.Context]semantics.Value, error) {
	t, err := ev.buildTable(e)
	if err != nil {
		return nil, err
	}
	out := make(map[semantics.Context]semantics.Value, len(t.vals))
	for k, v := range t.vals {
		out[semantics.Context{Node: k.node, Pos: int(k.pos), Size: int(k.size)}] = v
	}
	return out, nil
}

// contexts enumerates the projected context domain for a relevance set:
// nodes if cn is relevant, positions 1..|dom| if cp, sizes 1..|dom| if
// cs, with k ≤ n when both are relevant (the domain of contexts C of
// Section 5).
func (ev *Evaluator) contexts(r xpath.Relev) ([]semantics.Context, error) {
	n := ev.doc.Len()
	if err := ev.cancel.CheckN(n); err != nil {
		return nil, err
	}
	nodes := []xmltree.NodeID{xmltree.NilNode}
	if r.Has(xpath.RelevNode) {
		nodes = make([]xmltree.NodeID, n)
		for i := range nodes {
			nodes[i] = xmltree.NodeID(i)
		}
	}
	type ps struct{ p, s int }
	pss := []ps{{-1, -1}}
	switch {
	case r.Has(xpath.RelevPos) && r.Has(xpath.RelevSize):
		pss = nil
		for s := 1; s <= n; s++ {
			for p := 1; p <= s; p++ {
				pss = append(pss, ps{p, s})
			}
		}
	case r.Has(xpath.RelevPos):
		pss = nil
		for p := 1; p <= n; p++ {
			pss = append(pss, ps{p, -1})
		}
	case r.Has(xpath.RelevSize):
		pss = nil
		for s := 1; s <= n; s++ {
			pss = append(pss, ps{-1, s})
		}
	}
	out := make([]semantics.Context, 0, len(nodes)*len(pss))
	for _, x := range nodes {
		if err := ev.cancel.Check(); err != nil {
			return nil, err
		}
		for _, kn := range pss {
			out = append(out, semantics.Context{Node: x, Pos: kn.p, Size: kn.s})
		}
	}
	return out, nil
}

// buildTable computes E↑[[e]] by first computing the tables of all direct
// subexpressions (the while-loop of Algorithm 6.3 realized as structural
// recursion, which visits parse-tree nodes in a valid bottom-up order).
func (ev *Evaluator) buildTable(e xpath.Expr) (*table, error) {
	switch x := e.(type) {
	case *xpath.Path:
		return ev.pathTable(x)
	case *xpath.FilterExpr:
		return ev.filterTable(x)
	}
	ops := xpath.Operands(e, nil)
	subs := make([]*table, len(ops))
	for i, o := range ops {
		t, err := ev.buildTable(o)
		if err != nil {
			return nil, err
		}
		subs[i] = t
	}
	return ev.mapTables(xpath.RelevantContext(e), subs, func(c semantics.Context, vs []semantics.Value) (semantics.Value, error) {
		return semantics.Eval(ev.doc, nil, e, c, vs)
	})
}

// mapTables builds a table for an m-ary operation from its children's
// tables: for every context in the projected domain, child values are
// looked up (each child projecting further onto its own columns) and
// combined. This is the generic
//
//	E↑[[Op(e1,…,em)]] = {⟨c, F[[Op]](v1,…,vm)⟩ | ⟨c,vi⟩ ∈ E↑[[ei]]}
//
// rule of Definition 6.1.
func (ev *Evaluator) mapTables(r xpath.Relev, subs []*table, f func(semantics.Context, []semantics.Value) (semantics.Value, error)) (*table, error) {
	ctxs, err := ev.contexts(r)
	if err != nil {
		return nil, err
	}
	t := &table{relev: r, vals: make(map[ctxKey]semantics.Value, len(ctxs))}
	vs := make([]semantics.Value, len(subs))
	for _, c := range ctxs {
		if err := ev.cancel.Check(); err != nil {
			return nil, err
		}
		for i, sub := range subs {
			v, ok := sub.get(c)
			if !ok {
				return nil, fmt.Errorf("bottomup: child table missing context ⟨%d,%d,%d⟩", c.Node, c.Pos, c.Size)
			}
			vs[i] = v
		}
		v, err := f(c, vs)
		if err != nil {
			return nil, err
		}
		t.vals[t.key(c)] = v
	}
	return t, nil
}

// predTables builds the table of every predicate, once per predicate
// (bottom-up!), and returns what reads a predicate's value out of its
// table.
func (ev *Evaluator) predTables(preds []xpath.Expr) (evalutil.PredEval, error) {
	tabs := make(map[xpath.Expr]*table, len(preds))
	for _, p := range preds {
		t, err := ev.buildTable(p)
		if err != nil {
			return nil, err
		}
		tabs[p] = t
	}
	return func(p xpath.Expr, c semantics.Context) (semantics.Value, error) {
		if v, ok := tabs[p].get(c); ok {
			return v, nil
		}
		return semantics.Value{}, fmt.Errorf("bottomup: table of %s missing context ⟨%d,%d,%d⟩", p, c.Node, c.Pos, c.Size)
	}, nil
}

// relation is the relation of one location step, its predicates read
// from their tables.
func (ev *Evaluator) relation(step *xpath.Step) ([]xmltree.NodeSet, error) {
	pred, err := ev.predTables(step.Preds)
	if err != nil {
		return nil, err
	}
	return stepRelation(ev.doc, ev.cancel, step, pred)
}

// stepRelation computes the relation of one location step with its
// predicates applied at every node x of the document, rel[x] = {y | x χ
// y, y ∈ T(t)} filtered by each predicate in turn, pred reading it at
// ⟨y, idx_χ(y, S), |S|⟩. The location-step rows of Table IV:
//
//	E↑[[χ::t]]  = {⟨x,k,n, {y | xχy, y∈T(t)}⟩}
//	E↑[[E[e]]] = {⟨x,k,n, {y ∈ S | ⟨y, idx_χ(y,S), |S|, true⟩ ∈ E↑[[e]]}⟩}
func stepRelation(d *xmltree.Document, cancel *evalutil.Canceller, step *xpath.Step, pred evalutil.PredEval) ([]xmltree.NodeSet, error) {
	rel := make([]xmltree.NodeSet, d.Len())
	for i := range rel {
		if err := cancel.Check(); err != nil {
			return nil, err
		}
		s := evalutil.StepCandidates(d, step.Axis, step.Test, xmltree.NodeID(i))
		for _, p := range step.Preds {
			var err error
			if s, err = evalutil.FilterPositions(step.Axis, p, s, s[:0], pred, nil); err != nil {
				return nil, err
			}
		}
		rel[i] = s
	}
	return rel, nil
}

// follow composes every row with the relation of each step in turn, the
// location-path rows of Table IV: a row R(x) becomes ⋃{S(y) | y ∈ R(x)}.
func follow(d *xmltree.Document, cancel *evalutil.Canceller, rows []xmltree.NodeSet, steps []*xpath.Step, relation func(*xpath.Step) ([]xmltree.NodeSet, error)) error {
	acc := xmltree.NewAccumulator(d.Len())
	for _, step := range steps {
		rel, err := relation(step)
		if err != nil {
			return err
		}
		// Values are treated as immutable, so a row may alias rel's.
		relRow := func(y xmltree.NodeID) xmltree.NodeSet { return rel[y] }
		for i, r := range rows {
			if err := cancel.Check(); err != nil {
				return err
			}
			rows[i] = evalutil.ComposeRow(nil, acc, r, relRow)
		}
	}
	return nil
}

// pathTable is E↑ of a location path: its start at every context of its
// relevant domain — the context node, the root, or the head's value
// there — composed with the relation of each step (follow).
func (ev *Evaluator) pathTable(p *xpath.Path) (*table, error) {
	relev := xpath.RelevantContext(p)
	ctxs, err := ev.contexts(relev)
	if err != nil {
		return nil, err
	}
	var head *table
	if p.Filter != nil {
		if head, err = ev.buildTable(p.Filter); err != nil {
			return nil, err
		}
	}
	rows := make([]xmltree.NodeSet, len(ctxs))
	for i, c := range ctxs {
		switch {
		case head != nil:
			v, ok := head.get(c)
			if !ok || v.Kind != xpath.TypeNodeSet {
				return nil, fmt.Errorf("bottomup: path head is not a node set")
			}
			rows[i] = v.Set
		case p.Absolute:
			rows[i] = xmltree.NodeSet{ev.doc.RootID()}
		default:
			rows[i] = xmltree.NodeSet{c.Node}
		}
	}
	if err := follow(ev.doc, ev.cancel, rows, p.Steps, ev.relation); err != nil {
		return nil, err
	}
	t := &table{relev: relev, vals: make(map[ctxKey]semantics.Value, len(ctxs))}
	for i, c := range ctxs {
		t.vals[t.key(c)] = semantics.NodeSet(rows[i])
	}
	return t, nil
}

// filterTable evaluates a filter expression (primary + predicates) as a
// table; positions are forward document order.
func (ev *Evaluator) filterTable(f *xpath.FilterExpr) (*table, error) {
	pt, err := ev.buildTable(f.Primary)
	if err != nil {
		return nil, err
	}
	pred, err := ev.predTables(f.Preds)
	if err != nil {
		return nil, err
	}
	return ev.mapTables(xpath.RelevantContext(f), []*table{pt}, func(_ semantics.Context, vs []semantics.Value) (semantics.Value, error) {
		return filter(vs[0], f.Preds, pred)
	})
}

// filter keeps the members of a node set at which every predicate holds
// in turn, at its position in document order, pred reading it.
func filter(v semantics.Value, preds []xpath.Expr, pred evalutil.PredEval) (semantics.Value, error) {
	if v.Kind != xpath.TypeNodeSet {
		return semantics.Value{}, fmt.Errorf("bottomup: predicates on %v", v.Kind)
	}
	s := v.Set
	for _, p := range preds {
		var err error
		if s, err = evalutil.FilterPositions(axes.Self, p, s, nil, pred, nil); err != nil {
			return semantics.Value{}, err
		}
	}
	return semantics.NodeSet(s), nil
}
