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
// Appendix A; the per-node tables are carried in a Run. But
// eval_outermost_locpath is S→ of Section 10.1 with a predicate judge of
// its own, so it is not written here: a Run is the judge (JudgeStep,
// RankStep, Head) of evalutil.Forward, and of evalutil.Backward when a
// run OptMinContext began propagates a bottom-up path backwards
// (eval_bottomup_path, fillBottomUp): the kernels' only judge, Core
// XPath and XPatterns queries included.
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
//   - the table of a node the Wadler test names, which a run
//     OptMinContext began computes whole the first time it needs it
//     (fillBottomUp), is E1 of the node: a sorted set of the nodes where
//     it holds, or the complement of one (ext).
//
// An operator whose operands are such arrays over the very nodes being
// tabulated — count() of a relation, arithmetic and comparison of
// numbers, a filter by a boolean column or node set — loops over the
// arrays (vector, JudgeStep); everything else is computed row by
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
// Neither the set nor the relation code is written here: a step over a
// set is evalutil.Forward's step, and the relation of a step is the same
// step with each previous context node's survivors kept apart instead
// of merged (Forward.Rows), a row of the relation of a path the union of
// the next step's rows over a row's members (evalutil.ComposeRow). Both
// visit, at a step χ::t, only the previous context nodes that can reach
// a candidate, X ∩ χ⁻¹(Y): the others contribute the empty set. (For
// child::name with Y every candidate of the step, a node's stretch of
// the posting list says as much, cheaper than the inverse axis:
// evalutil.PairLoop.Reaching.) The loops over ⟨previous, current⟩ pairs
// that cp/cs-dependent predicates need take each node's candidate list
// from the index (for child::name the label's posting-list slice under
// the node, already in axis order), so a positional step costs O(|X ∩
// χ⁻¹(Y)| + Σ candidates), not O(|X|·|result|).
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
// materialized (evalutil.NamedChildAfterDescendants, in the forward
// kernel's Image and Rows).
//
// # Heads that read position() or last()
//
// A path or filter expression whose head reads cp or cs — id(position())/b,
// (id(last()))[1] — has the head's Relev, so it is never tabulated by
// context node: it is computed at each whole context ⟨x, k, n⟩ it is
// wanted at, the head there and the steps forwards from its value.
package mincontext

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

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
	return evalutil.Evaluate(ctx, ev.doc, func(ar *xmltree.Arena, cancel *evalutil.Canceller) (semantics.Value, error) {
		st, err := ev.Begin(ar, cancel, e, nil)
		if err != nil {
			return semantics.Value{}, err
		}
		return st.Evaluate(c)
	})
}

// Run is one evaluation in progress: the context-value table of every
// parse-tree node, by slot. The arena keeps it: the tables of the last
// run over the document, their columns and the slabs of those, are what
// the next one fills.
type Run struct {
	expr xpath.Expr
	doc  *xmltree.Document
	tabs []table

	// ar is the evaluation's arena: node sets, CSR relations and typed
	// columns come from it.
	ar *xmltree.Arena

	// cancel is the throttled cancellation checkpoint for this query.
	cancel *evalutil.Canceller

	// bottomUp names the nodes whose whole table a run OptMinContext
	// began computes at once (fillBottomUp); nil in a plain MinContext run.
	bottomUp func(xpath.Expr) bool

	// single is evalSingleContext as the evaluator RankStep hands out,
	// bound once for as long as the arena keeps the run.
	single evalutil.PredEval
}

// Begin starts an evaluation of e in the arena ar, with the checkpoint
// cancel (nil never fires). e must be numbered: a tree put together by
// hand has no slots to keep tables under. bottomUp, nil for the §8
// algorithm, is OptMinContext's test of a node (Section 11.2): true for
// a node whose whole dom → bool table the run computes at once
// (fillBottomUp). The run puts it to a node once, when it first needs
// the node's table.
func (ev *Evaluator) Begin(ar *xmltree.Arena, cancel *evalutil.Canceller, e xpath.Expr, bottomUp func(xpath.Expr) bool) (*Run, error) {
	n := xpath.Slots(e)
	if n == 0 {
		return nil, fmt.Errorf("mincontext: %s is not numbered (trees come from xpath.Parse or Optimize)", e)
	}
	st := xmltree.Keep[Run](ar)
	st.expr, st.doc, st.ar, st.cancel, st.bottomUp = e, ev.doc, ar, cancel, bottomUp
	st.tabs = slices.Grow(st.tabs[:0], n)[:n]
	for i := range st.tabs {
		st.tabs[i] = table{cols: st.tabs[i].cols[:0]}
	}
	if st.single == nil {
		st.single = st.evalSingleContext
	}
	return st, nil
}

// Evaluate returns the value of the run's expression at context c. A
// location path goes forwards from c's node, unless a head of it reads
// position() or last(): that one is wanted at c itself.
func (st *Run) Evaluate(c semantics.Context) (semantics.Value, error) {
	e := st.expr
	if isLocationPath(e) && !readsRank(e) {
		s, err := st.forward().Image(e, st.one(c.Node))
		if err != nil {
			return semantics.Value{}, err
		}
		return semantics.NodeSet(s), nil
	}
	if err := st.evalByCnodeOnly(e, st.one(c.Node)); err != nil {
		return semantics.Value{}, err
	}
	return st.evalSingleContext(e, c)
}

// Image returns S→[[e]](X) of the run's expression e, a location path.
func (st *Run) Image(x xmltree.NodeSet) (xmltree.NodeSet, error) {
	return st.forward().Image(st.expr, x)
}

// one returns {n} in the arena.
func (st *Run) one(n xmltree.NodeID) xmltree.NodeSet { return append(st.ar.Nodes(1), n) }

// readsRank reports whether e's value depends on the context position or
// size: Relev(e) meets {cp, cs}.
func readsRank(e xpath.Expr) bool {
	return xpath.RelevantContext(e)&(xpath.RelevPos|xpath.RelevSize) != 0
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
	case len(x) == 0 || t.has || t.whole:
		return nil, nil
	case !r.Has(xpath.RelevNode) || len(t.cols) == 0:
		return x, nil
	}
	if err := st.cancel.CheckN(len(x)); err != nil {
		return nil, err
	}
	todo := st.ar.Nodes(len(x))
	for _, n := range x {
		if c, _ := t.find(n); c == nil {
			todo = append(todo, n)
		}
	}
	return st.ar.Trim(todo), nil
}

// fill stores at(n) as the row of every context node n of todo — or
// at(NilNode) as the table's one row when Relev(N) lacks cn.
func (st *Run) fill(t *table, r xpath.Relev, kind xpath.Type, todo xmltree.NodeSet, at func(xmltree.NodeID) (semantics.Value, error)) error {
	if !r.Has(xpath.RelevNode) {
		v, err := at(xmltree.NilNode)
		t.one, t.has = v, err == nil
		return err
	}
	col := st.newColumn(kind, todo)
	for _, n := range todo {
		if err := st.cancel.Check(); err != nil {
			return err
		}
		v, err := at(n)
		if err != nil {
			return err
		}
		if err := st.push(&col, v); err != nil {
			return err
		}
	}
	return st.add(t, col)
}

// ------------------------------------------------------------------
// eval_outermost_locpath
// ------------------------------------------------------------------

// forward is eval_outermost_locpath: the forward kernel, which treats
// intermediate results as node sets ⊆ dom (Section 8.2, "special
// treatment of location paths on the outermost level"), with this run
// judging the steps' predicates and evaluating path heads. Besides the
// query's own outermost path it serves every inner path whose value is a
// single row (fillPath).
func (st *Run) forward() evalutil.Forward {
	return evalutil.Forward{Doc: st.doc, Arena: st.ar, Cancel: st.cancel, Judge: st}
}

// Head returns the union of a path's head's values at the context nodes
// X: what the path's first step starts from. id('c') and id(π) are
// evaluated a set at a time (Lemma 10.6): id distributes over union, so
// id(π) is id of π's image from all of X. Any other head goes through
// the table machinery at every node of X, or at one if context free.
func (st *Run) Head(head xpath.Expr, x xmltree.NodeSet) (xmltree.NodeSet, error) {
	if c, ok := head.(*xpath.Call); ok && c.Name == "id" {
		if lit, ok := c.Args[0].(*xpath.Literal); ok {
			return st.ar.Trim(st.doc.AppendIDs(st.ar.Nodes(len(lit.Val)/2+1), lit.Val)), nil
		}
		if c.Args[0].Type() == xpath.TypeNodeSet {
			img, err := st.forward().Image(c.Args[0], x)
			if err != nil {
				return nil, err
			}
			return st.idOf(img)
		}
	}
	if len(x) > 1 && xpath.RelevantContext(head) == 0 {
		x = x[:1]
	}
	sc := st.doc.Index().AcquireScratch()
	defer st.doc.Index().ReleaseScratch(sc)
	if err := st.evalHeads(head, x, sc.Acc.Add); err != nil {
		return nil, err
	}
	return sc.Acc.Result(st.ar), nil
}

// idOf is id() of a node set, the union of deref_ids(strval(n)) over its
// members: the ref relation's row (Theorem 10.7) where it is exactly
// that (refExact), the string-value's tokens looked up elsewhere.
func (st *Run) idOf(s xmltree.NodeSet) (xmltree.NodeSet, error) {
	if err := st.cancel.CheckN(len(s)); err != nil {
		return nil, err
	}
	d, ix := st.doc, st.doc.Index()
	sc := ix.AcquireScratch()
	defer ix.ReleaseScratch(sc)
	var ids xmltree.NodeSet
	for _, n := range s {
		if refExact(d, n) {
			sc.Acc.Add(d.Ref(n))
			continue
		}
		v := d.StringValue(n)
		ids = d.AppendIDs(st.ar.Grow(ids[:0], len(v)/2+1), v)
		sc.Acc.Add(ids)
	}
	return sc.Acc.Result(st.ar), nil
}

// refExact reports whether n's ref row is deref_ids of its string-value:
// n is no element or root, or an element without element children.
func refExact(d *xmltree.Document, n xmltree.NodeID) bool {
	if t := d.Type(n); t != xmltree.Element && t != xmltree.Root {
		return true
	}
	for c := d.FirstChild(n); c != xmltree.NilNode; c = d.NextSibling(c) {
		if d.Type(c) == xmltree.Element {
			return false
		}
	}
	return true
}

// evalHeads hands the value of a path's head expression at every
// context node of X to f, in X's order.
func (st *Run) evalHeads(head xpath.Expr, x xmltree.NodeSet, f func(xmltree.NodeSet)) error {
	if err := st.evalByCnodeOnly(head, x); err != nil {
		return err
	}
	if err := st.cancel.CheckN(len(x)); err != nil {
		return err
	}
	for _, n := range x {
		v, err := st.evalSingleContext(head, semantics.Context{Node: n, Pos: -1, Size: -1})
		if err != nil {
			return err
		}
		if v.Kind != xpath.TypeNodeSet {
			return fmt.Errorf("mincontext: path head is not a node set")
		}
		f(v.Set)
	}
	return nil
}

// RankStep runs eval_by_cnode_only for the predicates of a step that
// reads cp or cs over the step's candidates y, ahead of a loop over
// ⟨previous, current⟩ pairs, and returns what that loop reads them
// through: eval_single_context.
func (st *Run) RankStep(step *xpath.Step, y xmltree.NodeSet) (evalutil.PredEval, error) {
	return st.single, st.tabulateAll(step.Preds, y)
}

// JudgeStep returns the candidates y of a step that satisfy its
// predicates, none of which depends on cp/cs, so each candidate is
// judged once whatever previous context node reached it: the predicates
// are tabulated over y, and y is filtered by merging it with a table
// computed whole (fillBottomUp) or reading off the bits of a column over
// y, else row by row: in place, unless such a column or table has y as
// its context nodes.
func (st *Run) JudgeStep(preds []xpath.Expr, y xmltree.NodeSet) (xmltree.NodeSet, error) {
	if len(preds) == 0 {
		return y, nil
	}
	if err := st.tabulateAll(preds, y); err != nil {
		return nil, err
	}
	if err := st.cancel.CheckN(len(y)); err != nil {
		return nil, err
	}
	keep := y
	for _, pred := range preds {
		if !st.tabs[xpath.Slot(pred)].whole {
			keep = st.ar.Clone(y)
			break
		}
	}
	src := y // what the predicates before kept
	for _, pred := range preds {
		n := 0
		if t := &st.tabs[xpath.Slot(pred)]; t.whole {
			keep = t.truth.keep(keep)
		} else if col := st.over(pred, src); col != nil && col.kind == xpath.TypeBoolean {
			for i, x := range src { // src is y, and keep a copy of it
				if col.bits[i/64]>>(i%64)&1 != 0 {
					keep[n] = x
					n++
				}
			}
			keep = keep[:n]
		} else {
			for _, x := range keep {
				v, err := st.evalSingleContext(pred, semantics.Context{Node: x, Pos: -1, Size: -1})
				if err != nil {
					return nil, err
				}
				if semantics.ToBoolean(v) {
					keep[n] = x
					n++
				}
			}
			keep = keep[:n]
		}
		src = keep
	}
	return st.ar.Trim(keep), nil
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
	if whole, err := st.fillBottomUp(e, t); whole || err != nil {
		return err
	}
	// Other compound (or leaf) expression: tabulate children first,
	// then this node for every context in todo.
	if err := st.tabulateChildren(e, todo); err != nil {
		return err
	}
	if r.Has(xpath.RelevNode) {
		if col, ok, err := st.vector(e, todo); ok || err != nil {
			return errors.Join(err, st.add(t, col))
		}
	}
	return st.fill(t, r, e.Type(), todo, func(n xmltree.NodeID) (semantics.Value, error) {
		return st.apply(e, semantics.Context{Node: n, Pos: -1, Size: -1})
	})
}

// vector computes e's column over todo from the columns of its operands
// for the operators whose operands are arrays as they stand — count() of
// a relation reads row lengths off the offsets, arithmetic and comparison
// of numbers loop over []float64 — with no lookup per row. ok is false for
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
		col = st.newColumn(xpath.TypeNumber, todo)
		for i := range rel.nodes {
			col.nums = append(col.nums, float64(rel.off[i+1]-rel.off[i]))
		}
		return col, true, nil
	case *xpath.Binary:
		l, lc, lok := st.numbers(x.Left, todo)
		r, rc, rok := st.numbers(x.Right, todo)
		if !lok || !rok || !x.Op.IsArith() && !x.Op.IsRelOp() {
			break
		}
		col = st.newColumn(e.Type(), todo)
		for i := range todo {
			if l != nil {
				lc = l[i]
			}
			if r != nil {
				rc = r[i]
			}
			// F[[ArithOp]] and F[[RelOp]] of num × num, on the numbers
			// as they stand (Eval would take them as two Values).
			var v semantics.Value
			if x.Op.IsArith() {
				v = semantics.Number(semantics.Arith(x.Op, lc, rc))
			} else {
				v = semantics.Boolean(semantics.CompareNumbers(x.Op, lc, rc))
			}
			if err := st.push(&col, v); err != nil {
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
	if fe, ok := e.(*xpath.FilterExpr); ok {
		if err := st.evalByCnodeOnly(fe.Primary, x); err != nil {
			return err
		}
		return st.tabulateAll(fe.Preds, x)
	}
	var few [4]xpath.Expr
	return st.tabulateAll(xpath.Operands(e, few[:0]), x)
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
		return st.add(t, rel)
	}
	s, err := st.forward().Image(p, todo[:1])
	if err != nil {
		return err
	}
	if !r.Has(xpath.RelevNode) {
		t.one, t.has = semantics.NodeSet(s), true
		return nil
	}
	return st.add(t, column{kind: xpath.TypeNodeSet, nodes: todo[:1:1], off: append(st.ar.Int32s().Make(2), 0, int32(len(s))), flat: s})
}

// fillFilter tabulates a filter expression (primary plus document-order
// predicates) per context node.
func (st *Run) fillFilter(fe *xpath.FilterExpr, t *table, r xpath.Relev, todo xmltree.NodeSet) error {
	if err := st.evalByCnodeOnly(fe.Primary, todo); err != nil {
		return err
	}
	seen := evalutil.PredVerdicts(st.ar, fe.Preds)
	return st.fill(t, r, xpath.TypeNodeSet, todo, func(n xmltree.NodeID) (semantics.Value, error) {
		return st.filterAt(fe, semantics.Context{Node: n, Pos: -1, Size: -1}, seen)
	})
}

// filterAt is a filter expression at one context: its primary's value
// there, filtered by the predicates, seen their verdicts. Filter
// predicates rank in document order whatever axis produced the primary;
// each pass builds a fresh set, the primary's row is shared.
func (st *Run) filterAt(fe *xpath.FilterExpr, c semantics.Context, seen []evalutil.Verdicts) (semantics.Value, error) {
	pv, err := st.evalSingleContext(fe.Primary, c)
	if err != nil {
		return semantics.Value{}, err
	}
	if pv.Kind != xpath.TypeNodeSet {
		return semantics.Value{}, fmt.Errorf("mincontext: predicates on %v", pv.Kind)
	}
	s := pv.Set
	for i, pred := range fe.Preds {
		if err := st.evalByCnodeOnly(pred, s); err != nil {
			return semantics.Value{}, err
		}
		if err := st.cancel.CheckN(len(s) + 1); err != nil {
			return semantics.Value{}, err
		}
		if s, err = evalutil.FilterPositions(axes.Self, pred, s, st.ar.Nodes(len(s)), st.evalSingleContext, &seen[i]); err != nil {
			return semantics.Value{}, err
		}
		s = st.ar.Trim(s)
	}
	return semantics.NodeSet(s), nil
}

// pathAt is a path whose head reads position() or last() at one whole
// context ⟨x, k, n⟩: the steps, forwards, from the head's value there.
func (st *Run) pathAt(p *xpath.Path, c semantics.Context) (semantics.Value, error) {
	h, err := st.evalSingleContext(p.Filter, c)
	if err != nil {
		return semantics.Value{}, err
	}
	if h.Kind != xpath.TypeNodeSet {
		return semantics.Value{}, fmt.Errorf("mincontext: path head is not a node set")
	}
	s, err := st.forward().Image(&xpath.Path{Steps: p.Steps}, h.Set)
	return semantics.NodeSet(s), err
}

// apply computes the value of an expression at one context from its
// children's tables. It runs once per context — per ⟨cn, cp, cs⟩ triple
// inside a pair loop — so the operator case, which needs room for the
// operands' values, is a function of its own and the others pay for no
// such frame.
func (st *Run) apply(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	switch x := e.(type) {
	case *xpath.Path: // its head reads cp or cs
		return st.pathAt(x, c)
	case *xpath.FilterExpr: // its primary reads cp or cs
		return st.filterAt(x, c, evalutil.PredVerdicts(st.ar, x.Preds))
	}
	return st.applyOperator(e, c)
}

// applyOperator is F[[e]] (semantics.Eval) of the operands' values at c.
func (st *Run) applyOperator(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	var ops [3]xpath.Expr
	var few [3]semantics.Value // the core library's usual arities, on the stack
	args := few[:0]
	for _, o := range xpath.Operands(e, ops[:0]) {
		v, err := st.evalSingleContext(o, c)
		if err != nil {
			return semantics.Value{}, err
		}
		args = append(args, v)
	}
	return semantics.Eval(st.doc, st.ar, e, c, args)
}

// ------------------------------------------------------------------
// eval_single_context
// ------------------------------------------------------------------

// evalSingleContext returns the value of e for one context ⟨x, p, s⟩.
// cp/cs-independent nodes are looked up in their tables (which
// eval_by_cnode_only has normally filled); dependent nodes recurse.
func (st *Run) evalSingleContext(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	switch e.(type) {
	case *xpath.Number, *xpath.Literal: // the table of a literal is written in the query
		return semantics.Eval(st.doc, st.ar, e, c, nil)
	}
	if readsRank(e) {
		// position() and last() resolve from the supplied context.
		return st.apply(e, c)
	}
	t := &st.tabs[xpath.Slot(e)]
	if v, ok := t.lookup(c.Node); ok {
		return v, nil
	}
	switch e.(type) {
	case *xpath.Path, *xpath.FilterExpr:
		return st.evalOnDemand(e, c)
	}
	if whole, err := st.fillBottomUp(e, t); whole || err != nil {
		v, _ := t.lookup(c.Node)
		return v, err
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
	if err := st.evalByCnodeOnly(e, st.one(n)); err != nil {
		return semantics.Value{}, err
	}
	if v, ok := st.tabs[xpath.Slot(e)].lookup(c.Node); ok {
		return v, nil
	}
	return semantics.Value{}, fmt.Errorf("mincontext: table for %s missing context node %d", e, c.Node)
}

// ------------------------------------------------------------------
// eval_bottomup_path (Section 11.2)
// ------------------------------------------------------------------

// fillBottomUp computes the whole dom → bool table t of e, E1[[e]], when
// the run's test names e, and reports whether it did. It runs where the
// run first needs the table, so a node no enclosing step reaches is
// never computed.
func (st *Run) fillBottomUp(e xpath.Expr, t *table) (bool, error) {
	if st.bottomUp == nil || t.asked {
		return false, nil
	}
	t.asked = true
	if !st.bottomUp(e) {
		return false, nil
	}
	if err := st.e1(e, &t.truth); err != nil {
		return false, err
	}
	t.whole = true
	return true, nil
}

// e1 computes E1[[e]] into x for a node the run's test names: Section
// 10's algebra (internal/xpatterns lists it) over whole tables, its
// walks propagate_path_backwards (Appendix A) judged by this run.
func (st *Run) e1(e xpath.Expr, x *ext) error {
	switch e := e.(type) {
	case *xpath.Binary:
		if e.Op != xpath.OpAnd && e.Op != xpath.OpOr {
			return st.compared(e, x)
		}
		l, err := st.operand(e.Left)
		if err != nil {
			return err
		}
		r, err := st.operand(e.Right)
		if err != nil {
			return err
		}
		return st.compose(e.Op == xpath.OpAnd, l, r, x)
	case *xpath.Call:
		switch e.Name {
		case "boolean":
			if e.Args[0].Type() == xpath.TypeNodeSet {
				return x.reached(evalutil.Backward(st.forward()).Exists(e.Args[0]))
			}
			in, err := st.operand(e.Args[0])
			*x = *in
			return err
		case "not":
			in, err := st.operand(e.Args[0])
			*x = ext{set: in.set, neg: !in.neg}
			return err
		case "true", "false":
			*x = ext{neg: e.Name == "true"}
			return nil
		case "first-of-any", "last-of-any", "first-of-type", "last-of-type":
			s, err := st.siblingBoundary(strings.HasPrefix(e.Name, "first"), strings.HasSuffix(e.Name, "type"))
			*x = ext{set: s}
			return err
		}
	}
	return fmt.Errorf("mincontext: %s is no bottom-up node", e)
}

// operand returns the table of an operand of a bottom-up and, or, not or
// boolean: a context-free one's value, or else — the test named the
// operator, so it would name the operand — its E1, without asking.
func (st *Run) operand(e xpath.Expr) (*ext, error) {
	t := &st.tabs[xpath.Slot(e)]
	switch {
	case t.whole:
		return &t.truth, nil
	case xpath.RelevantContext(e) == 0:
		v, err := st.constant(e)
		t.truth = ext{neg: semantics.ToBoolean(v)}
		return &t.truth, err
	}
	t.asked = true
	err := st.e1(e, &t.truth)
	t.whole = err == nil
	return &t.truth, err
}

// constant is the one value of a context-free expression, written in
// the query or computed on this run from the root.
func (st *Run) constant(e xpath.Expr) (semantics.Value, error) {
	switch x := e.(type) {
	case *xpath.Literal:
		return semantics.String(x.Val), nil
	case *xpath.Number:
		return semantics.Number(x.Val), nil
	}
	return st.evalSingleContext(e, semantics.Context{Node: st.doc.RootID(), Pos: 1, Size: 1})
}

// compared computes E1[[π RelOp c]], π context dependent and c context
// free: the walk from Y := {y ∈ T(t) | strval(y) RelOp c}, T(t) of π's
// last step, so only those string-values are read. π RelOp bool is
// boolean(π) RelOp bool, compared after the walk.
func (st *Run) compared(b *xpath.Binary, x *ext) error {
	path, side, op := b.Left, b.Right, b.Op
	if path.Type() != xpath.TypeNodeSet || xpath.RelevantContext(path) == 0 {
		path, side, op = b.Right, b.Left, semantics.Flip(b.Op)
	}
	c, err := st.constant(side)
	if err != nil {
		return err
	}
	back := evalutil.Backward(st.forward())
	if c.Kind != xpath.TypeBoolean {
		return x.reached(back.Compared(path, op, c))
	}
	onTrue := semantics.Compare(st.doc, op, semantics.Boolean(true), c)
	onFalse := semantics.Compare(st.doc, op, semantics.Boolean(false), c)
	if onTrue == onFalse {
		*x = ext{neg: onTrue}
		return nil
	}
	err = x.reached(back.Exists(path))
	x.neg = x.neg != onFalse
	return err
}

// compose writes E1 of and (∩) or or (∪) of two operands' tables to x.
// By De Morgan, or is the complement of and of the complements; and of
// a set and a complement is a difference, of two complements the
// complement of a union.
func (st *Run) compose(and bool, l, r, x *ext) error {
	if err := st.cancel.CheckN(len(l.set) + len(r.set)); err != nil {
		return err
	}
	ln, rn := l.neg != !and, r.neg != !and // the operands of the and
	switch {
	case ln && rn:
		*x = ext{set: st.ar.Union(l.set, r.set), neg: true}
	case ln:
		*x = ext{set: ext{set: l.set, neg: true}.keep(st.ar.Clone(r.set))}
	case rn:
		*x = ext{set: ext{set: r.set, neg: true}.keep(st.ar.Clone(l.set))}
	default:
		*x = ext{set: st.ar.Intersect(l.set, r.set)}
	}
	x.neg = x.neg != !and
	return nil
}

// siblingBoundary is E1 of an XSLT'98 unary predicate of Table VI: one
// scan of every sibling list from its first (or last) member marks the
// first element met (elements alone: the '98 patterns address them),
// per tag name with byType. O(|D|), Theorem 10.8's precomputation.
func (st *Run) siblingBoundary(first, byType bool) (xmltree.NodeSet, error) {
	d := st.doc
	if err := st.cancel.CheckN(d.Len()); err != nil {
		return nil, err
	}
	out := st.ar.Nodes(d.Len())
	seen := map[string]bool{}
	for i := 0; i < d.Len(); i++ {
		k, step := d.FirstChild(xmltree.NodeID(i)), d.NextSibling
		if !first {
			for k != xmltree.NilNode && d.NextSibling(k) != xmltree.NilNode {
				k = d.NextSibling(k)
			}
			step = d.PrevSibling
		}
		clear(seen)
		for ; k != xmltree.NilNode; k = step(k) {
			if d.Type(k) != xmltree.Element || seen[d.Name(k)] {
				continue
			}
			out = append(out, k)
			if !byType {
				break
			}
			seen[d.Name(k)] = true
		}
	}
	return st.ar.Trim(out.Normalized()), nil
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
	cur, first := st.newColumn(xpath.TypeNodeSet, x), 0
	switch {
	case p.Filter != nil:
		if err := st.evalHeads(p.Filter, x, func(h xmltree.NodeSet) { st.appendRow(&cur, h) }); err != nil {
			return column{}, err
		}
	default: // never absolute: that path has one row (fillPath)
		var err error
		if cur, err = st.rows(p.Steps, 0, x); err != nil {
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
		rel, err := st.rows(p.Steps, i, sc.Acc.Result(st.ar))
		if err != nil {
			return column{}, err
		}
		// rel has a row for every member of the image.
		relRow := func(y xmltree.NodeID) xmltree.NodeSet { return rel.row(rel.index(y)) }
		next := st.newColumn(xpath.TypeNodeSet, x)
		for k := range cur.nodes {
			if err := st.cancel.Check(); err != nil {
				return column{}, err
			}
			st.appendRow(&next, evalutil.ComposeRow(st.ar, &sc.Acc, cur.row(k), relRow))
		}
		cur = next
	}
	return cur, nil
}

// rows is the relation of step i of a path over the previous context
// nodes X, with a row for every x ∈ X: the forward kernel's Rows.
func (st *Run) rows(steps []*xpath.Step, i int, x xmltree.NodeSet) (column, error) {
	flat, off, err := st.forward().Rows(steps, i, x)
	return column{kind: xpath.TypeNodeSet, nodes: x[:len(x):len(x)], off: off, flat: flat}, err
}
