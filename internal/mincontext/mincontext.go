// Package mincontext implements the MinContext algorithm of Section 8
// and Appendix A. It improves on the plain context-value-table engines
// by combining three ideas:
//
//  1. Restriction to the relevant context (Section 8.2): the
//     context-value table at each parse-tree node N only materializes
//     the columns in Relev(N) ⊆ {cn, cp, cs}.
//  2. Special treatment of location paths whose value is one row: their
//     intermediate results are node *sets* (⊆ dom) instead of relations
//     (⊆ dom×2^dom).
//  3. Position and size are handled in a loop: a predicate that depends
//     on cp/cs is evaluated per candidate context on demand
//     (eval_single_context) after its cp/cs-independent subtrees have
//     been tabulated once (eval_by_cnode_only).
//
// The result is O(|D|²·|Q|²) space at O(|D|⁴·|Q|²) time (Theorem 8.6).
//
// The four procedures eval_outermost_locpath, eval_by_cnode_only,
// eval_single_context and eval_inner_locpath follow the pseudocode of
// Appendix A; the per-node tables are carried in a Run.
//
// # How tables are stored
//
// Relev(N) depends on the query alone, so the tree arrives numbered
// (xpath.Slot) with Relev recorded in each node, and the table of node N
// is element Slot(N) of one slice — no map from expressions to anything.
// Only nodes whose Relev lacks cp and cs are ever tabulated (idea 3), so
// position and size never key a table; what is left of the context is
// the node, or nothing:
//
//   - cn ∉ Relev(N): a single value;
//   - otherwise a column: the ascending list of the context nodes
//     tabulated so far — the set eval_by_cnode_only was handed, shared
//     and not copied — and, aligned with it, one array chosen by N's
//     static type: []float64, a bitset, []string, or for node sets CSR
//     (one offsets slice into one flat NodeSet), which is also what
//     eval_inner_locpath builds a relation as, row by row from the
//     posting lists. Rows are read where the last read left off, by
//     binary search otherwise. Context nodes asked for later are appended
//     when they lie behind the last one; asked for out of document order
//     they start a further column, merged into its predecessor once that
//     is no more than twice as long, so there are O(log) columns at worst
//     and one in the common case (table.add);
//   - a table another evaluator computed whole (SetTruth) stays the set
//     of nodes it arrived as.
//
// An operator whose operands are such arrays over the very nodes being
// tabulated — count() of a relation, arithmetic and comparison of
// numbers, a filter by a boolean column or node set — loops over the
// arrays (vector, FilterCandidates); everything else is computed row by
// row through eval_single_context.
//
// # Which paths are node sets
//
// The paper applies idea 2 to the outermost path because that path is
// wanted at exactly one context. Idea 1 says the same of more paths, and
// this package follows it wherever it applies — the rule is the paper's
// projection of a context-value table onto Relev(N), not a heuristic:
//
//   - the outermost path (Algorithm 8.5);
//   - every inner path π with cn ∉ Relev(π) — absolute, or headed by a
//     context-free expression such as id('c'): projected onto Relev(π) =
//     ∅ its table has a single row, whatever the number of context nodes
//     it is asked at, so count(//a), sum(//a/b) and //a[b = //c] evaluate
//     //… once, as a set;
//   - every inner path requested at a single context node.
//
// Only paths that do depend on the context node and are wanted at
// several of them — the bidder of //open_auction[count(bidder) > 2] —
// are relations, built by eval_inner_locpath.
//
// Both the set and the relation code visit, at a step χ::t, only the
// previous context nodes that can reach a candidate, X ∩ χ⁻¹(Y): the
// others contribute the empty set. (For child::name with Y every
// candidate of the step, a node's stretch of the posting list says as
// much, cheaper than the inverse axis: evalutil.PairLoop.Reaching.) The
// loops over ⟨previous, current⟩ pairs that cp/cs-dependent predicates
// need take each node's candidate list from the index (for child::name
// the label's posting-list slice under the node, already in axis order)
// and merge the survivors through a bitset accumulator, so a positional
// step costs O(|X ∩ χ⁻¹(Y)| + Σ candidates), not O(|X|·|result|).
// Inside such a loop a predicate whose Relev lacks cn — [1], [last()],
// [position() mod 2 = 0] — has one table row per ⟨cp, cs⟩, not per ⟨cn,
// cp, cs⟩ (Section 8.2 again): compiled once per step to a test over ⟨cp,
// cs⟩ when built of position(), last() and numbers, else evaluated here
// once per position and size for all previous context nodes (Verdicts).
//
// # //name[position() …]
//
// Queries arrive through xpath.Optimize, which fuses
// descendant-or-self::node()/child::name[p] into descendant::name[p]
// unless p reads cp or cs. The pair that stays is not evaluated step by
// step either: the previous context nodes of the child step are
// descendant-or-self(X) ∩ child⁻¹(T(name)) = parent(descendant::name(X)),
// read off name's posting list, so descendant-or-self::node() is never
// materialized (namedChildAfterDescendants, in the set and in the
// relation code).
package mincontext

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/axes"
	"repro/internal/evalutil"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Evaluator evaluates XPath queries with the MinContext algorithm.
type Evaluator struct{ doc *xmltree.Document }

// New returns a MinContext evaluator for the document.
func New(d *xmltree.Document) *Evaluator { return &Evaluator{doc: d} }

// Evaluate implements Algorithm 8.5 (MinContext): location paths go
// through eval_outermost_locpath; any other query is tabulated by
// eval_by_cnode_only and then read off with eval_single_context.
func (ev *Evaluator) Evaluate(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	return ev.EvaluateContext(context.Background(), e, c)
}

// EvaluateContext is Evaluate with cancellation: the tabulation and
// per-pair position loops check ctx at throttled checkpoints and
// abandon the evaluation with ctx's error once it is done.
func (ev *Evaluator) EvaluateContext(ctx context.Context, e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	st, err := ev.Begin(ctx, e)
	if err != nil {
		return semantics.Value{}, err
	}
	return st.Evaluate(c)
}

// Run is one evaluation in progress: the context-value table of every
// parse-tree node, by slot. A fragment optimizer (OptMinContext, Section
// 11.2) begins a run, installs the tables it computes bottom-up
// (SetTruth, reading through EvalSingleContext) and leaves the rest to
// Evaluate.
type Run struct {
	expr xpath.Expr
	doc  *xmltree.Document
	tabs []table

	// cancel is the throttled cancellation checkpoint for this query.
	cancel *evalutil.Canceller
}

// Begin starts an evaluation of e, which must be numbered: a tree put
// together by hand has no slots to keep tables under.
func (ev *Evaluator) Begin(ctx context.Context, e xpath.Expr) (*Run, error) {
	n := xpath.Slots(e)
	if n == 0 {
		return nil, fmt.Errorf("mincontext: %s is not numbered (trees come from xpath.Parse, Substitute or Optimize)", e)
	}
	return &Run{expr: e, doc: ev.doc, tabs: make([]table, n), cancel: evalutil.NewCanceller(ctx)}, nil
}

// SetTruth installs the complete table of a boolean subexpression that
// does not depend on cp or cs: true at the context nodes of at, which
// spans the document, or — at nil, Relev lacking cn as well — all at
// every context node ("subexpressions that have already been evaluated
// bottom-up are not evaluated again", Algorithm 11.1).
func (st *Run) SetTruth(e xpath.Expr, at *xmltree.Bitset, all bool) {
	st.tabs[xpath.Slot(e)] = table{truth: at, one: semantics.Boolean(all), has: at == nil}
}

// Known reports whether e's table is complete: installed by SetTruth, or
// the single row of an expression whose Relev lacks cn.
func (st *Run) Known(e xpath.Expr) bool {
	t := &st.tabs[xpath.Slot(e)]
	return t.has || t.truth != nil
}

// Evaluate returns the value of the run's expression at context c.
func (st *Run) Evaluate(c semantics.Context) (semantics.Value, error) {
	e := st.expr
	if isLocationPath(e) {
		s, err := st.evalOutermostLocpath(e, xmltree.NodeSet{c.Node})
		if err != nil {
			return semantics.Value{}, err
		}
		return semantics.NodeSet(s), nil
	}
	if err := st.evalByCnodeOnly(e, xmltree.NodeSet{c.Node}); err != nil {
		return semantics.Value{}, err
	}
	return st.EvalSingleContext(e, c)
}

// isLocationPath reports whether the query is a location path in the
// paper's sense: a Path or a union of location paths.
func isLocationPath(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Path:
		return true
	case *xpath.Binary:
		return x.Op == xpath.OpUnion && isLocationPath(x.Left) && isLocationPath(x.Right)
	default:
		return false
	}
}

// uncovered returns the context nodes of X that t has no row for yet.
// For context-insensitive expressions (Relev(N) ∩ {cn} = ∅) all
// contexts are one. An empty X covers nothing: there is no context to
// tabulate the expression at. A table without rows has all of X to
// fill; otherwise the scan can touch up to |D| nodes, so it bills the
// cancellation checkpoint.
func (st *Run) uncovered(t *table, r xpath.Relev, x xmltree.NodeSet) (xmltree.NodeSet, error) {
	switch {
	case len(x) == 0 || t.has || t.truth != nil:
		return nil, nil
	case !r.Has(xpath.RelevNode) || len(t.cols) == 0:
		return x, nil
	}
	if err := st.cancel.CheckN(len(x)); err != nil {
		return nil, err
	}
	var todo xmltree.NodeSet
	for _, n := range x {
		if c, _ := t.find(n); c == nil {
			todo = append(todo, n)
		}
	}
	return todo, nil
}

// fill stores at(n) as the row of every context node n of todo — or
// at(NilNode) as the table's one row when Relev(N) lacks cn.
func (st *Run) fill(t *table, r xpath.Relev, kind xpath.Type, todo xmltree.NodeSet, at func(xmltree.NodeID) (semantics.Value, error)) error {
	if !r.Has(xpath.RelevNode) {
		v, err := at(xmltree.NilNode)
		t.one, t.has = v, err == nil
		return err
	}
	col := newColumn(kind, todo)
	for _, n := range todo {
		if err := st.cancel.Check(); err != nil {
			return err
		}
		v, err := at(n)
		if err != nil {
			return err
		}
		if err := col.push(v); err != nil {
			return err
		}
	}
	return t.add(col)
}

// ------------------------------------------------------------------
// eval_outermost_locpath
// ------------------------------------------------------------------

// evalOutermostLocpath evaluates a location path treating intermediate
// results as node sets ⊆ dom (Section 8.2, "special treatment of
// location paths on the outermost level"). Besides the query's own
// outermost path it serves every inner path whose value is a single row
// (fillPath).
func (st *Run) evalOutermostLocpath(e xpath.Expr, x xmltree.NodeSet) (xmltree.NodeSet, error) {
	switch p := e.(type) {
	case *xpath.Binary: // π1 | π2
		y1, err := st.evalOutermostLocpath(p.Left, x)
		if err != nil {
			return nil, err
		}
		y2, err := st.evalOutermostLocpath(p.Right, x)
		if err != nil {
			return nil, err
		}
		return y1.Union(y2), nil
	case *xpath.Path:
		cur := x
		switch {
		case p.Filter != nil:
			// Head expressions (id('c'), (π)[1], …) are evaluated via
			// the table machinery per context node, then flattened.
			heads, err := st.evalHeads(p.Filter, x)
			if err != nil {
				return nil, err
			}
			sc := st.doc.Index().AcquireScratch()
			for _, h := range heads {
				sc.Acc.Add(h)
			}
			cur = sc.Acc.Result()
			st.doc.Index().ReleaseScratch(sc)
		case p.Absolute:
			cur = xmltree.NodeSet{st.doc.RootID()}
		}
		for i, step := range p.Steps {
			if name, ok := namedChildAfterDescendants(p.Steps, i); ok {
				// //name: the next step starts from the nodes that have a
				// name child, not from every node below cur.
				if err := st.cancel.CheckN(len(cur)); err != nil {
					return nil, err
				}
				cur = evalutil.NamedChildParents(st.doc, cur, name)
				continue
			}
			next, err := st.evalOutermostStep(step, cur)
			if err != nil {
				return nil, err
			}
			cur = next
		}
		return cur, nil
	default:
		return nil, fmt.Errorf("mincontext: not a location path: %T", e)
	}
}

// evalHeads returns the value of a path's head expression at every
// context node of X, in X's order.
func (st *Run) evalHeads(head xpath.Expr, x xmltree.NodeSet) ([]xmltree.NodeSet, error) {
	if err := st.evalByCnodeOnly(head, x); err != nil {
		return nil, err
	}
	if err := st.cancel.CheckN(len(x)); err != nil {
		return nil, err
	}
	heads := make([]xmltree.NodeSet, len(x))
	for i, n := range x {
		v, err := st.EvalSingleContext(head, semantics.Context{Node: n, Pos: -1, Size: -1})
		if err != nil {
			return nil, err
		}
		if v.Kind != xpath.TypeNodeSet {
			return nil, fmt.Errorf("mincontext: path head is not a node set")
		}
		heads[i] = v.Set
	}
	return heads, nil
}

// evalOutermostStep applies one location step to a node set, following
// the eval_outermost_locpath pseudocode: when no predicate depends on
// cp/cs the candidates are filtered set-at-a-time; otherwise the
// predicates run in a loop over previous/current context-node pairs —
// over the previous context nodes that have a candidate at all, X ∩
// χ⁻¹(Y).
func (st *Run) evalOutermostStep(step *xpath.Step, x xmltree.NodeSet) (xmltree.NodeSet, error) {
	y := evalutil.StepCandidatesSet(st.doc, step.Axis, step.Test, x)
	if len(step.Preds) == 0 || len(y) == 0 {
		return y, nil
	}
	if !step.Positional() {
		return st.FilterCandidates(step, y)
	}
	if err := st.TabulatePreds(step, y); err != nil {
		return nil, err
	}
	if err := st.cancel.CheckN(len(x) + len(y)); err != nil {
		return nil, err
	}
	// Scratch from the document's pool: the accumulator merges the
	// per-node results in O(Σ|zᵢ|) instead of by repeated Union, the
	// work slice is the candidate list every node reuses. A predicate
	// that starts a loop of its own acquires its own.
	ix := st.doc.Index()
	sc := ix.AcquireScratch()
	defer ix.ReleaseScratch(sc)
	loop := evalutil.NewPairLoop(st.doc, step, st.cancel, st.EvalSingleContext)
	for _, xn := range loop.Reaching(x, y, false) {
		z, err := loop.RankedCandidates(xn, sc.Work)
		if err != nil {
			return nil, err
		}
		sc.Acc.Add(z)
		sc.Work = z
	}
	return sc.Acc.Result(), nil
}

// TabulatePreds runs eval_by_cnode_only for a step's predicates over the
// step's candidates y: what a loop over ⟨previous, current⟩ pairs reads
// through EvalSingleContext afterwards.
func (st *Run) TabulatePreds(step *xpath.Step, y xmltree.NodeSet) error {
	return st.tabulateAll(step.Preds, y)
}

// FilterCandidates returns the candidates y of a step that satisfy its
// predicates, none of which depends on cp/cs, so each candidate is
// judged once whatever previous context node reached it: the predicates
// are tabulated over y, and y is filtered by intersecting with a table
// that is a set of nodes already (SetTruth) or reading off the bits of a
// column over y, else row by row. y itself is left alone: the
// predicates' tables have it as their context nodes.
func (st *Run) FilterCandidates(step *xpath.Step, y xmltree.NodeSet) (xmltree.NodeSet, error) {
	if len(step.Preds) == 0 {
		return y, nil
	}
	if err := st.TabulatePreds(step, y); err != nil {
		return nil, err
	}
	if err := st.cancel.CheckN(len(y)); err != nil {
		return nil, err
	}
	src, keep := y, make(xmltree.NodeSet, 0, len(y))
	for _, pred := range step.Preds {
		keep = keep[:0] // from the second predicate on, src filtered in place
		if truth := st.tabs[xpath.Slot(pred)].truth; truth != nil {
			keep = truth.IntersectSet(src, keep)
		} else if col := st.over(pred, src); col != nil && col.kind == xpath.TypeBoolean {
			for i, n := range src {
				if col.bits[i/64]>>(i%64)&1 != 0 {
					keep = append(keep, n)
				}
			}
		} else {
			for _, n := range src {
				v, err := st.EvalSingleContext(pred, semantics.Context{Node: n, Pos: -1, Size: -1})
				if err != nil {
					return nil, err
				}
				if semantics.ToBoolean(v) {
					keep = append(keep, n)
				}
			}
		}
		src = keep
	}
	return keep, nil
}

// ------------------------------------------------------------------
// eval_by_cnode_only
// ------------------------------------------------------------------

// evalByCnodeOnly fills table(M) for every node M in the subtree rooted
// at e whose expression does not depend on the current context position
// or size, for all context nodes in X.
func (st *Run) evalByCnodeOnly(e xpath.Expr, x xmltree.NodeSet) error {
	r := xpath.RelevantContext(e)
	if r&(xpath.RelevPos|xpath.RelevSize) != 0 {
		// Position/size-dependent: recurse so the cp/cs-independent
		// parts below are tabulated; this node itself is evaluated
		// later, per single context.
		return st.tabulateChildren(e, x)
	}
	t := &st.tabs[xpath.Slot(e)]
	todo, err := st.uncovered(t, r, x)
	if err != nil || len(todo) == 0 {
		return err
	}
	switch n := e.(type) {
	case *xpath.Path:
		return st.fillPath(n, t, r, todo)
	case *xpath.FilterExpr:
		return st.fillFilter(n, t, r, todo)
	}
	// Other compound (or leaf) expression: tabulate children first,
	// then this node for every context in todo.
	if err := st.tabulateChildren(e, todo); err != nil {
		return err
	}
	if r.Has(xpath.RelevNode) {
		if col, ok, err := st.vector(e, todo); ok || err != nil {
			return errors.Join(err, t.add(col))
		}
	}
	return st.fill(t, r, e.Type(), todo, func(n xmltree.NodeID) (semantics.Value, error) {
		return st.apply(e, semantics.Context{Node: n, Pos: -1, Size: -1})
	})
}

// vector computes e's column over todo from the columns of its operands
// for the operators whose operands are arrays as they stand — count() of
// a relation reads row lengths off the offsets, a binary operator on
// numbers loops over []float64 — with no lookup per row. ok is false for
// any other e, and when an operand is not one column over todo (part of
// it was tabulated before): fill computes those row by row.
func (st *Run) vector(e xpath.Expr, todo xmltree.NodeSet) (col column, ok bool, err error) {
	if err := st.cancel.CheckN(len(todo)); err != nil {
		return col, false, err
	}
	switch x := e.(type) {
	case *xpath.Call:
		if x.Name != "count" {
			break
		}
		rel := st.over(x.Args[0], todo)
		if rel == nil || rel.kind != xpath.TypeNodeSet {
			break
		}
		col = newColumn(xpath.TypeNumber, todo)
		for i := range rel.nodes {
			col.nums = append(col.nums, float64(rel.off[i+1]-rel.off[i]))
		}
		return col, true, nil
	case *xpath.Binary:
		l, lc, lok := st.numbers(x.Left, todo)
		r, rc, rok := st.numbers(x.Right, todo)
		if !lok || !rok {
			break
		}
		col = newColumn(e.Type(), todo)
		for i := range todo {
			if l != nil {
				lc = l[i]
			}
			if r != nil {
				rc = r[i]
			}
			v, err := binary(st.doc, x.Op, semantics.Number(lc), semantics.Number(rc))
			if err == nil {
				err = col.push(v)
			}
			if err != nil {
				return col, false, err
			}
		}
		return col, true, nil
	}
	return col, false, nil
}

// over returns e's column if it holds the rows of exactly the context
// nodes todo — as it does when e has just been tabulated over todo for
// the first time — and nil otherwise.
func (st *Run) over(e xpath.Expr, todo xmltree.NodeSet) *column {
	cols := st.tabs[xpath.Slot(e)].cols
	if k := len(cols) - 1; k >= 0 && len(cols[k].nodes) == len(todo) && &cols[k].nodes[0] == &todo[0] {
		return &cols[k]
	}
	return nil
}

// numbers returns a number-valued operand over todo: the values of its
// column, or, vals being nil, the literal c.
func (st *Run) numbers(e xpath.Expr, todo xmltree.NodeSet) (vals []float64, c float64, ok bool) {
	if lit, isLit := e.(*xpath.Number); isLit {
		return nil, lit.Val, true
	}
	if col := st.over(e, todo); col != nil && col.kind == xpath.TypeNumber {
		return col.nums, 0, true
	}
	return nil, 0, false
}

// tabulateChildren runs eval_by_cnode_only for the direct subexpressions
// of e (predicates included for filter expressions; a path's pieces are
// handled by the location-path procedures).
func (st *Run) tabulateChildren(e xpath.Expr, x xmltree.NodeSet) error {
	switch n := e.(type) {
	case *xpath.Negate:
		return st.evalByCnodeOnly(n.X, x)
	case *xpath.Binary:
		if err := st.evalByCnodeOnly(n.Left, x); err != nil {
			return err
		}
		return st.evalByCnodeOnly(n.Right, x)
	case *xpath.Call:
		return st.tabulateAll(n.Args, x)
	case *xpath.FilterExpr:
		if err := st.evalByCnodeOnly(n.Primary, x); err != nil {
			return err
		}
		return st.tabulateAll(n.Preds, x)
	}
	return nil
}

func (st *Run) tabulateAll(es []xpath.Expr, x xmltree.NodeSet) error {
	for _, e := range es {
		if err := st.evalByCnodeOnly(e, x); err != nil {
			return err
		}
	}
	return nil
}

// fillPath computes the rows of a cp/cs-independent inner location path
// for the context nodes todo. The paper's Relev analysis says how many
// rows there are, and a path with one row is a node set ⊆ dom like the
// outermost path, not a relation ⊆ dom×2^dom:
//
//   - Relev(π) ∌ cn (absolute, or headed by a context-free expression):
//     the value is the same at every context node, so it is evaluated
//     once by eval_outermost_locpath and is the table's one row — the
//     projection of the context-value table onto Relev(π) = ∅;
//   - a single context node: the relation's one row is the set
//     eval_outermost_locpath computes from {x};
//   - otherwise the path is a genuine relation and eval_inner_locpath
//     builds it.
func (st *Run) fillPath(p *xpath.Path, t *table, r xpath.Relev, todo xmltree.NodeSet) error {
	if r.Has(xpath.RelevNode) && len(todo) > 1 {
		rel, err := st.evalInnerLocpath(p, todo)
		if err != nil {
			return err
		}
		return t.add(rel)
	}
	s, err := st.evalOutermostLocpath(p, todo[:1])
	if err != nil {
		return err
	}
	if !r.Has(xpath.RelevNode) {
		t.one, t.has = semantics.NodeSet(s), true
		return nil
	}
	return t.add(column{kind: xpath.TypeNodeSet, nodes: todo[:1:1], off: []int32{0, int32(len(s))}, flat: s})
}

// fillFilter tabulates a filter expression (primary plus document-order
// predicates) per context node.
func (st *Run) fillFilter(fe *xpath.FilterExpr, t *table, r xpath.Relev, todo xmltree.NodeSet) error {
	if err := st.evalByCnodeOnly(fe.Primary, todo); err != nil {
		return err
	}
	seen := evalutil.PredVerdicts(fe.Preds)
	return st.fill(t, r, xpath.TypeNodeSet, todo, func(n xmltree.NodeID) (semantics.Value, error) {
		pv, err := st.EvalSingleContext(fe.Primary, semantics.Context{Node: n, Pos: -1, Size: -1})
		if err != nil {
			return semantics.Value{}, err
		}
		if pv.Kind != xpath.TypeNodeSet {
			return semantics.Value{}, fmt.Errorf("mincontext: predicates on %v", pv.Kind)
		}
		// Filter predicates rank in document order whatever axis
		// produced the primary; each pass builds a fresh set, the
		// primary's row is shared.
		s := pv.Set
		for i, pred := range fe.Preds {
			if err := st.evalByCnodeOnly(pred, s); err != nil {
				return semantics.Value{}, err
			}
			if err := st.cancel.CheckN(len(s) + 1); err != nil {
				return semantics.Value{}, err
			}
			if s, err = evalutil.FilterPositions(axes.Self, pred, s, nil, st.EvalSingleContext, seen[i]); err != nil {
				return semantics.Value{}, err
			}
		}
		return semantics.NodeSet(s), nil
	})
}

// apply computes the value of an expression at one context from its
// children's tables. It runs once per context — per ⟨cn, cp, cs⟩ triple
// inside a pair loop — so the cases that need room for several values
// are functions of their own and the others pay for no such frame.
func (st *Run) apply(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	switch x := e.(type) {
	case *xpath.Number:
		return semantics.Number(x.Val), nil
	case *xpath.Literal:
		return semantics.String(x.Val), nil
	case *xpath.VarRef:
		return semantics.Value{}, fmt.Errorf("mincontext: unbound variable $%s", x.Name)
	case *xpath.Negate:
		v, err := st.EvalSingleContext(x.X, c)
		if err != nil {
			return semantics.Value{}, err
		}
		return semantics.Number(-semantics.ToNumber(st.doc, v)), nil
	case *xpath.Binary:
		return st.applyBinary(x, c)
	case *xpath.Call:
		return st.applyCall(x, c)
	default:
		return semantics.Value{}, fmt.Errorf("mincontext: apply on %T", e)
	}
}

func (st *Run) applyCall(x *xpath.Call, c semantics.Context) (semantics.Value, error) {
	var few [3]semantics.Value // the core library's usual arities, on the stack
	args := few[:0]
	for _, a := range x.Args {
		v, err := st.EvalSingleContext(a, c)
		if err != nil {
			return semantics.Value{}, err
		}
		args = append(args, v)
	}
	return semantics.CallFunction(st.doc, x.Name, c, args)
}

func (st *Run) applyBinary(x *xpath.Binary, c semantics.Context) (semantics.Value, error) {
	l, err := st.EvalSingleContext(x.Left, c)
	if err != nil {
		return semantics.Value{}, err
	}
	r, err := st.EvalSingleContext(x.Right, c)
	if err != nil {
		return semantics.Value{}, err
	}
	return binary(st.doc, x.Op, l, r)
}

// binary applies a binary operator to the values of its operands.
func binary(d *xmltree.Document, op xpath.BinOp, l, r semantics.Value) (semantics.Value, error) {
	switch {
	case op == xpath.OpAnd:
		return semantics.Boolean(semantics.ToBoolean(l) && semantics.ToBoolean(r)), nil
	case op == xpath.OpOr:
		return semantics.Boolean(semantics.ToBoolean(l) || semantics.ToBoolean(r)), nil
	case op == xpath.OpUnion:
		if l.Kind != xpath.TypeNodeSet || r.Kind != xpath.TypeNodeSet {
			return semantics.Value{}, fmt.Errorf("mincontext: | on non-node-sets")
		}
		return semantics.NodeSet(l.Set.Union(r.Set)), nil
	case op.IsRelOp():
		return semantics.Boolean(semantics.Compare(d, op, l, r)), nil
	case op.IsArith():
		return semantics.Number(semantics.Arith(op, semantics.ToNumber(d, l), semantics.ToNumber(d, r))), nil
	default:
		return semantics.Value{}, fmt.Errorf("mincontext: unknown operator %v", op)
	}
}

// ------------------------------------------------------------------
// eval_single_context
// ------------------------------------------------------------------

// EvalSingleContext returns the value of e for one context ⟨x, p, s⟩.
// cp/cs-independent nodes are looked up in their tables (which
// eval_by_cnode_only has normally filled); dependent nodes recurse.
func (st *Run) EvalSingleContext(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	switch e.(type) {
	case *xpath.Number, *xpath.Literal:
		return st.apply(e, c) // the table of a literal is written in the query
	}
	if xpath.RelevantContext(e)&(xpath.RelevPos|xpath.RelevSize) != 0 {
		// position() and last() resolve from the supplied context.
		return st.apply(e, c)
	}
	if v, ok := st.tabs[xpath.Slot(e)].lookup(c.Node); ok {
		return v, nil
	}
	switch e.(type) {
	case *xpath.Path, *xpath.FilterExpr:
		return st.evalOnDemand(e, c)
	}
	// Not tabulated at this context (a caller asks for a fresh one):
	// computed from the children, whose tables have the parts that are
	// worth keeping.
	return st.apply(e, c)
}

// evalOnDemand tabulates a node-set expression at a context node
// eval_by_cnode_only has not been given and returns the value there. A
// context-free one asked for under the context-free sentinel is
// evaluated from the root, any node serves.
func (st *Run) evalOnDemand(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	n := c.Node
	if n == xmltree.NilNode {
		n = st.doc.RootID()
	}
	if err := st.evalByCnodeOnly(e, xmltree.NodeSet{n}); err != nil {
		return semantics.Value{}, err
	}
	if v, ok := st.tabs[xpath.Slot(e)].lookup(c.Node); ok {
		return v, nil
	}
	return semantics.Value{}, fmt.Errorf("mincontext: table for %s missing context node %d", e, c.Node)
}

// ------------------------------------------------------------------
// eval_inner_locpath
// ------------------------------------------------------------------

// evalInnerLocpath computes the relation {⟨x, y⟩ | x ∈ X, y reachable
// from x via the path} as a node-set column with a row for every x ∈ X.
// It runs only for paths that depend on the context node and are wanted
// at several of them (fillPath).
func (st *Run) evalInnerLocpath(p *xpath.Path, x xmltree.NodeSet) (column, error) {
	if err := st.cancel.CheckN(len(x)); err != nil {
		return column{}, err
	}
	// Starting relation R0. For a relative path it is the identity, and
	// the first step's relation over X is R1 as it stands.
	cur, first := newColumn(xpath.TypeNodeSet, x), 0
	switch {
	case p.Filter != nil:
		heads, err := st.evalHeads(p.Filter, x)
		if err != nil {
			return column{}, err
		}
		for _, h := range heads {
			cur.appendRow(h)
		}
	default: // never absolute: that path has one row (fillPath)
		var err error
		if cur, err = st.stepRelation(p.Steps, 0, x); err != nil {
			return column{}, err
		}
		first = 1
	}
	ix := st.doc.Index()
	sc := ix.AcquireScratch()
	defer ix.ReleaseScratch(sc)
	for i := first; i < len(p.Steps); i++ {
		// Image of the current relation.
		for k := range cur.nodes {
			sc.Acc.Add(cur.row(k))
		}
		rel, err := st.stepRelation(p.Steps, i, sc.Acc.Result())
		if err != nil {
			return column{}, err
		}
		// rel has a row for every member of the image; a row of the
		// composition is the union of the rows of one row's members.
		next := newColumn(xpath.TypeNodeSet, x)
		for k := range cur.nodes {
			if err := st.cancel.Check(); err != nil {
				return column{}, err
			}
			switch ys := cur.row(k); len(ys) {
			case 0:
			case 1:
				next.flat = append(next.flat, rel.row(rel.index(ys[0]))...)
			default:
				for _, y := range ys {
					sc.Acc.Add(rel.row(rel.index(y)))
				}
				next.flat = sc.Acc.AppendTo(next.flat)
			}
			next.off = append(next.off, int32(len(next.flat)))
		}
		cur = next
	}
	return cur, nil
}

// stepRelation is the relation of step i of a path over the previous
// context nodes X, with a row for every x ∈ X.
func (st *Run) stepRelation(steps []*xpath.Step, i int, x xmltree.NodeSet) (column, error) {
	if name, ok := namedChildAfterDescendants(steps, i); ok {
		return st.namedChildParentRows(x, name)
	}
	return st.evalInnerStep(steps[i], x)
}

// evalInnerStep computes the one-step relation {⟨x, z⟩ | x ∈ X, x χ z, z
// ∈ T(t), predicates hold} grouped by x, with the same
// cp/cs-independent fast path as the outermost variant. Only the x ∈ X ∩
// χ⁻¹(Y) are visited (loop.Reaching) — Y being the candidates that can
// still be selected — the rows of the others are empty.
func (st *Run) evalInnerStep(step *xpath.Step, x xmltree.NodeSet) (column, error) {
	rel := newColumn(xpath.TypeNodeSet, x)
	y := evalutil.StepCandidatesSet(st.doc, step.Axis, step.Test, x)
	if len(y) == 0 {
		rel.off = rel.off[:len(x)+1]
		return rel, nil
	}
	loop := evalutil.NewPairLoop(st.doc, step, st.cancel, st.EvalSingleContext)
	candidates := loop.Candidates
	// keep marks the candidates that satisfy the predicates when those
	// are decided once per candidate; a row is then its context node's
	// candidates among them.
	var keep *xmltree.Bitset
	ix := st.doc.Index()
	sc := ix.AcquireScratch()
	defer ix.ReleaseScratch(sc)
	if step.Positional() {
		if err := st.TabulatePreds(step, y); err != nil {
			return column{}, err
		}
		candidates = loop.RankedCandidates
	} else if len(step.Preds) > 0 {
		var err error
		if y, err = st.FilterCandidates(step, y); err != nil {
			return column{}, err
		}
		keep = &sc.Mark
		keep.AddSet(y)
		defer func() {
			for _, n := range y {
				keep.Remove(n)
			}
		}()
	}
	if err := st.cancel.CheckN(len(x) + len(y)); err != nil {
		return column{}, err
	}
	xs := loop.Reaching(x, y, keep != nil)
	for _, xn := range x {
		if len(xs) > 0 && xs[0] == xn {
			xs = xs[1:]
			z, err := candidates(xn, sc.Work)
			if err != nil {
				return column{}, err
			}
			sc.Work = z
			if keep != nil {
				z = keep.IntersectSet(z, z[:0])
			}
			rel.flat = append(rel.flat, z...)
		}
		rel.off = append(rel.off, int32(len(rel.flat)))
	}
	return rel, nil
}

// namedChildAfterDescendants reports whether steps[i] is a
// descendant-or-self::node() step without predicates followed by a
// child::name step — //name where xpath.Optimize could not fuse the
// pair because a predicate of name reads position() or last() — and
// returns the name. The loops over steps then replace the first step by
// evalutil.NamedChildParents.
func namedChildAfterDescendants(steps []*xpath.Step, i int) (string, bool) {
	if i+1 >= len(steps) {
		return "", false
	}
	next := steps[i+1]
	if !steps[i].IsBare(axes.DescendantOrSelf) || next.Axis != axes.Child ||
		!evalutil.ExactElementName(next.Axis, next.Test) {
		return "", false
	}
	return next.Test.Name, true
}

// namedChildParentRows is the relation that stands in for a
// descendant-or-self::node() step in front of child::name
// (namedChildAfterDescendants): for every x ∈ X the nodes at or below x
// that have a name child. The parents of all name elements below X are
// computed once; the row of x is their stretch inside x's subtree
// interval.
func (st *Run) namedChildParentRows(x xmltree.NodeSet, name string) (column, error) {
	if err := st.cancel.CheckN(len(x)); err != nil {
		return column{}, err
	}
	parents := evalutil.NamedChildParents(st.doc, x, name)
	ix := st.doc.Index()
	rel := newColumn(xpath.TypeNodeSet, x)
	for _, xn := range x {
		rel.appendRow(parents.Range(xn, ix.SubtreeEnd(xn)))
	}
	return rel, nil
}
