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
// Appendix A; the parse tree and per-node tables are carried in an
// evaluation state.
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
// others contribute the empty set. The loops over ⟨previous, current⟩
// pairs that cp/cs-dependent predicates need take each node's candidate
// list from the index (for child::name the label's posting-list slice
// under the node, already in axis order) and merge the survivors through
// a bitset accumulator, so a positional step costs O(|X ∩ χ⁻¹(Y)| + Σ
// candidates), not O(|X|·|result|). Inside such a loop a predicate whose
// Relev lacks cn — [1], [last()], [position() mod 2 = 0] — has one table
// row per ⟨cp, cs⟩, not per ⟨cn, cp, cs⟩ (Section 8.2 again), and is
// evaluated once per position and size however many previous context
// nodes share them (evalutil.Verdicts).
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
	"fmt"

	"repro/internal/axes"
	"repro/internal/evalutil"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Evaluator evaluates XPath queries with the MinContext algorithm.
type Evaluator struct {
	doc *xmltree.Document

	// pre holds the subexpressions a fragment optimizer (OptMinContext,
	// Section 11.2) evaluated beforehand: the set of context nodes at
	// which each is true. See SetPrecomputed.
	pre map[xpath.Expr]*xmltree.Bitset
}

// New returns a MinContext evaluator for the document.
func New(d *xmltree.Document) *Evaluator { return &Evaluator{doc: d} }

// SetPrecomputed installs the context nodes at which a boolean
// subexpression holds; eval_by_cnode_only and eval_single_context
// consult the set instead of evaluating the subexpression
// ("subexpressions that have already been evaluated bottom-up are not
// evaluated again", Algorithm 11.1). The bitset must span the whole
// document.
func (ev *Evaluator) SetPrecomputed(e xpath.Expr, holds *xmltree.Bitset) {
	if ev.pre == nil {
		ev.pre = map[xpath.Expr]*xmltree.Bitset{}
	}
	ev.pre[e] = holds
}

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
	st := newState(ev)
	st.cancel = evalutil.NewCanceller(ctx)
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
	return st.evalSingleContext(e, c)
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

// ctxKey and table mirror the relevant-context projection of Section 8.2.
type ctxKey struct {
	node      xmltree.NodeID
	pos, size int32
}

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

// state is the per-query evaluation state: Relev per node, the
// context-value tables, the inner-location-path relations, and the set
// of context nodes each table already covers.
type state struct {
	ev  *Evaluator
	doc *xmltree.Document

	relev  map[xpath.Expr]xpath.Relev
	tables map[xpath.Expr]*table
	// rels holds the value of every cp/cs-independent location path that
	// is not the outermost one, one row per context node. A path whose
	// Relev lacks cn has the single row NilNode (see fillPath).
	rels map[xpath.Expr]map[xmltree.NodeID]xmltree.NodeSet
	// covered marks, per expression, the context nodes already tabulated.
	// For an expression whose Relev lacks cn the key's presence alone
	// says "done" and the bitset stays nil.
	covered map[xpath.Expr]*xmltree.Bitset

	// cancel is the throttled cancellation checkpoint for this query;
	// nil (the Evaluate path) never fires.
	cancel *evalutil.Canceller

	// free holds the scratch of finished pair loops for reuse.
	free []*loopScratch
}

func newState(ev *Evaluator) *state {
	return &state{
		ev:      ev,
		doc:     ev.doc,
		relev:   map[xpath.Expr]xpath.Relev{},
		tables:  map[xpath.Expr]*table{},
		rels:    map[xpath.Expr]map[xmltree.NodeID]xmltree.NodeSet{},
		covered: map[xpath.Expr]*xmltree.Bitset{},
	}
}

// loopScratch is what one loop over context nodes reuses from node to
// node: the candidate-list buffer and the accumulator that merges the
// per-node results in O(Σ|zᵢ|) instead of by repeated Union. Predicates
// evaluated inside a loop may start loops of their own (a nested path
// evaluated on demand), so every loop acquires its own scratch and
// returns it when done.
type loopScratch struct {
	acc *xmltree.Accumulator
	buf xmltree.NodeSet
}

func (st *state) acquire() *loopScratch {
	if n := len(st.free); n > 0 {
		sc := st.free[n-1]
		st.free = st.free[:n-1]
		return sc
	}
	return &loopScratch{acc: xmltree.NewAccumulator(st.doc.Len())}
}

func (st *state) release(sc *loopScratch) {
	sc.acc.Reset() // a loop abandoned on error leaves members behind
	st.free = append(st.free, sc)
}

// tableOf returns table(e), creating it sized for the rows about to be
// filled: one per context node, or one in all when Relev(e) lacks cn.
func (st *state) tableOf(e xpath.Expr, contexts int) *table {
	t := st.tables[e]
	if t == nil {
		t = &table{relev: st.relevOf(e)}
		if !t.relev.Has(xpath.RelevNode) {
			contexts = 1
		}
		t.vals = make(map[ctxKey]semantics.Value, contexts)
		st.tables[e] = t
	}
	return t
}

func (st *state) relevOf(e xpath.Expr) xpath.Relev {
	r, ok := st.relev[e]
	if !ok {
		r = xpath.RelevantContext(e)
		st.relev[e] = r
	}
	return r
}

// uncovered returns the subset of X not yet covered for e and marks it
// covered. For context-insensitive expressions (Relev(N) ∩ {cn} = ∅) all
// contexts are one. An empty X covers nothing: there is no context to
// tabulate the expression at. The coverage scan can touch up to |D|
// nodes, so it bills the cancellation checkpoint.
func (st *state) uncovered(e xpath.Expr, x xmltree.NodeSet) (xmltree.NodeSet, error) {
	if len(x) == 0 {
		return nil, nil
	}
	if err := st.cancel.CheckN(len(x)); err != nil {
		return nil, err
	}
	cov, seen := st.covered[e]
	if !st.relevOf(e).Has(xpath.RelevNode) {
		if seen {
			return nil, nil
		}
		st.covered[e] = nil
		return x, nil
	}
	if cov == nil {
		cov = xmltree.NewBitset(st.doc.Len())
		st.covered[e] = cov
		cov.AddSet(x)
		return x, nil
	}
	var todo xmltree.NodeSet
	for _, n := range x {
		if !cov.Has(n) {
			cov.Add(n)
			todo = append(todo, n)
		}
	}
	return todo, nil
}

// ------------------------------------------------------------------
// eval_outermost_locpath
// ------------------------------------------------------------------

// evalOutermostLocpath evaluates a location path treating intermediate
// results as node sets ⊆ dom (Section 8.2, "special treatment of
// location paths on the outermost level"). Besides the query's own
// outermost path it serves every inner path whose value is a single row
// (fillPath).
func (st *state) evalOutermostLocpath(e xpath.Expr, x xmltree.NodeSet) (xmltree.NodeSet, error) {
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
			if len(heads) == 1 {
				cur = heads[0]
				break
			}
			sc := st.acquire()
			for _, h := range heads {
				sc.acc.Add(h)
			}
			cur = sc.acc.Result()
			st.release(sc)
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
func (st *state) evalHeads(head xpath.Expr, x xmltree.NodeSet) ([]xmltree.NodeSet, error) {
	if err := st.evalByCnodeOnly(head, x); err != nil {
		return nil, err
	}
	if err := st.cancel.CheckN(len(x)); err != nil {
		return nil, err
	}
	heads := make([]xmltree.NodeSet, len(x))
	for i, n := range x {
		v, err := st.evalSingleContext(head, semantics.Context{Node: n, Pos: -1, Size: -1})
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
func (st *state) evalOutermostStep(step *xpath.Step, x xmltree.NodeSet) (xmltree.NodeSet, error) {
	y := evalutil.StepCandidatesSet(st.doc, step.Axis, step.Test, x)
	if len(step.Preds) == 0 || len(y) == 0 {
		return y, nil
	}
	if err := st.tabulatePreds(step, y); err != nil {
		return nil, err
	}
	if !st.stepNeedsPositions(step) {
		return st.filterCandidates(step, y)
	}
	if err := st.cancel.CheckN(len(x) + len(y)); err != nil {
		return nil, err
	}
	sc := st.acquire()
	defer st.release(sc)
	loop := evalutil.NewPairLoop(st.doc, step, st.cancel, st.evalSingleContext)
	for _, xn := range evalutil.ContextsReaching(st.doc, step.Axis, x, y) {
		z, err := loop.RankedCandidates(xn, sc.buf)
		if err != nil {
			return nil, err
		}
		sc.acc.Add(z)
		sc.buf = z
	}
	return sc.acc.Result(), nil
}

// tabulatePreds runs eval_by_cnode_only for a step's predicates over the
// step's candidates.
func (st *state) tabulatePreds(step *xpath.Step, y xmltree.NodeSet) error {
	for _, pred := range step.Preds {
		if err := st.evalByCnodeOnly(pred, y); err != nil {
			return err
		}
	}
	return nil
}

// filterCandidates keeps the candidates of a step that satisfy its
// predicates, none of which depends on cp/cs, so each candidate is
// judged once whatever previous context node reached it. y is filtered
// in place.
func (st *state) filterCandidates(step *xpath.Step, y xmltree.NodeSet) (xmltree.NodeSet, error) {
	keep := y[:0]
candidates:
	for _, n := range y {
		if err := st.cancel.Check(); err != nil {
			return nil, err
		}
		for _, pred := range step.Preds {
			v, err := st.evalSingleContext(pred, semantics.Context{Node: n, Pos: -1, Size: -1})
			if err != nil {
				return nil, err
			}
			if !semantics.ToBoolean(v) {
				continue candidates
			}
		}
		keep = append(keep, n)
	}
	return keep, nil
}

func (st *state) stepNeedsPositions(step *xpath.Step) bool {
	for _, pred := range step.Preds {
		if st.relevOf(pred)&(xpath.RelevPos|xpath.RelevSize) != 0 {
			return true
		}
	}
	return false
}

// ------------------------------------------------------------------
// eval_by_cnode_only
// ------------------------------------------------------------------

// evalByCnodeOnly fills table(M) for every node M in the subtree rooted
// at e whose expression does not depend on the current context position
// or size, for all context nodes in X.
func (st *state) evalByCnodeOnly(e xpath.Expr, x xmltree.NodeSet) error {
	if _, ok := st.ev.pre[e]; ok {
		// OptMinContext already computed this subexpression bottom-up;
		// eval_single_context reads its rows off the installed table.
		return nil
	}
	r := st.relevOf(e)
	if r&(xpath.RelevPos|xpath.RelevSize) != 0 {
		// Position/size-dependent: recurse so the cp/cs-independent
		// parts below are tabulated; this node itself is evaluated
		// later, per single context.
		for _, child := range children(e) {
			if err := st.evalByCnodeOnly(child, x); err != nil {
				return err
			}
		}
		return nil
	}
	if p, ok := e.(*xpath.Path); ok {
		todo, err := st.uncovered(e, x)
		if err != nil || len(todo) == 0 {
			return err
		}
		return st.fillPath(p, todo)
	}
	if fe, ok := e.(*xpath.FilterExpr); ok {
		return st.evalFilterByCnode(fe, x)
	}
	// Other compound (or leaf) expression: tabulate children first,
	// then this node for every context in X.
	todo, err := st.uncovered(e, x)
	if err != nil {
		return err
	}
	if len(todo) == 0 {
		return nil
	}
	for _, child := range children(e) {
		if err := st.evalByCnodeOnly(child, todo); err != nil {
			return err
		}
	}
	t := st.tableOf(e, len(todo))
	if !r.Has(xpath.RelevNode) {
		c := semantics.Context{Node: xmltree.NilNode, Pos: -1, Size: -1}
		v, err := st.apply(e, c)
		if err != nil {
			return err
		}
		t.vals[t.key(c)] = v
		return nil
	}
	for _, n := range todo {
		if err := st.cancel.Check(); err != nil {
			return err
		}
		c := semantics.Context{Node: n, Pos: -1, Size: -1}
		v, err := st.apply(e, c)
		if err != nil {
			return err
		}
		t.vals[t.key(c)] = v
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
//     once by eval_outermost_locpath and stored under NilNode — the
//     projection of the context-value table onto Relev(π) = ∅;
//   - a single context node: the relation's one row is the set
//     eval_outermost_locpath computes from {x};
//   - otherwise the path is a genuine relation and eval_inner_locpath
//     builds it.
func (st *state) fillPath(p *xpath.Path, todo xmltree.NodeSet) error {
	if key := st.rowKey(p, todo[0]); key == xmltree.NilNode || len(todo) == 1 {
		s, err := st.evalOutermostLocpath(p, todo[:1])
		if err != nil {
			return err
		}
		if st.rels[p] == nil {
			st.rels[p] = map[xmltree.NodeID]xmltree.NodeSet{}
		}
		st.rels[p][key] = s
		return nil
	}
	rel, err := st.evalInnerLocpath(p, todo)
	if err != nil {
		return err
	}
	if m := st.rels[p]; m != nil {
		for k, v := range rel {
			m[k] = v
		}
	} else {
		st.rels[p] = rel
	}
	return nil
}

// rowKey is the key of the row of rels[p] that holds p's value at
// context node n.
func (st *state) rowKey(p *xpath.Path, n xmltree.NodeID) xmltree.NodeID {
	if !st.relevOf(p).Has(xpath.RelevNode) {
		return xmltree.NilNode
	}
	return n
}

// evalFilterByCnode tabulates a filter expression (primary plus
// document-order predicates) per context node.
func (st *state) evalFilterByCnode(fe *xpath.FilterExpr, x xmltree.NodeSet) error {
	todo, err := st.uncovered(fe, x)
	if err != nil {
		return err
	}
	if len(todo) == 0 {
		return nil
	}
	if err := st.evalByCnodeOnly(fe.Primary, todo); err != nil {
		return err
	}
	t := st.tableOf(fe, len(todo))
	ctxNodes := todo
	if !t.relev.Has(xpath.RelevNode) {
		ctxNodes = xmltree.NodeSet{xmltree.NilNode}
	}
	seen := evalutil.PredVerdicts(fe.Preds)
	for _, n := range ctxNodes {
		if err := st.cancel.Check(); err != nil {
			return err
		}
		c := semantics.Context{Node: n, Pos: -1, Size: -1}
		pv, err := st.evalSingleContext(fe.Primary, c)
		if err != nil {
			return err
		}
		if pv.Kind != xpath.TypeNodeSet {
			return fmt.Errorf("mincontext: predicates on %v", pv.Kind)
		}
		// Filter predicates rank in document order whatever axis
		// produced the primary; each pass builds a fresh set, the
		// primary's row is shared.
		s := pv.Set
		for i, pred := range fe.Preds {
			if err := st.evalByCnodeOnly(pred, s); err != nil {
				return err
			}
			if err := st.cancel.CheckN(len(s) + 1); err != nil {
				return err
			}
			if s, err = evalutil.FilterPositions(axes.Self, pred, s, nil, st.evalSingleContext, seen[i]); err != nil {
				return err
			}
		}
		t.vals[t.key(c)] = semantics.NodeSet(s)
	}
	return nil
}

// apply computes the value of a cp/cs-independent expression at one
// context from its children's tables.
func (st *state) apply(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	switch x := e.(type) {
	case *xpath.Number:
		return semantics.Number(x.Val), nil
	case *xpath.Literal:
		return semantics.String(x.Val), nil
	case *xpath.VarRef:
		return semantics.Value{}, fmt.Errorf("mincontext: unbound variable $%s", x.Name)
	case *xpath.Negate:
		v, err := st.evalSingleContext(x.X, c)
		if err != nil {
			return semantics.Value{}, err
		}
		return semantics.Number(-semantics.ToNumber(st.doc, v)), nil
	case *xpath.Binary:
		l, err := st.evalSingleContext(x.Left, c)
		if err != nil {
			return semantics.Value{}, err
		}
		r, err := st.evalSingleContext(x.Right, c)
		if err != nil {
			return semantics.Value{}, err
		}
		return applyBinary(st.doc, x.Op, l, r)
	case *xpath.Call:
		// position() and last() are read off the context on every triple
		// of a pair loop: no argument slice, no dispatch by name.
		switch x.Name {
		case "position":
			return semantics.Number(float64(c.Pos)), nil
		case "last":
			return semantics.Number(float64(c.Size)), nil
		}
		var few [3]semantics.Value // the core library's usual arities, on the stack
		args := few[:0]
		for _, a := range x.Args {
			v, err := st.evalSingleContext(a, c)
			if err != nil {
				return semantics.Value{}, err
			}
			args = append(args, v)
		}
		return semantics.CallFunction(st.doc, x.Name, c, args)
	default:
		return semantics.Value{}, fmt.Errorf("mincontext: apply on %T", e)
	}
}

func applyBinary(d *xmltree.Document, op xpath.BinOp, l, r semantics.Value) (semantics.Value, error) {
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

// evalSingleContext returns the value of e for one context ⟨x, p, s⟩.
// cp/cs-independent nodes are looked up in their tables (which
// eval_by_cnode_only must have filled); dependent nodes recurse.
func (st *state) evalSingleContext(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	if holds, ok := st.ev.pre[e]; ok {
		n := c.Node
		if n < 0 {
			// The caller tabulates under the context-free sentinel,
			// which only happens when this subexpression is itself
			// context independent — its table is uniform, so any row
			// serves.
			n = 0
		}
		return semantics.Boolean(holds.Has(n)), nil
	}
	r := st.relevOf(e)
	if r&(xpath.RelevPos|xpath.RelevSize) == 0 {
		if p, ok := e.(*xpath.Path); ok {
			key := st.rowKey(p, c.Node)
			if s, ok := st.rels[e][key]; ok {
				return semantics.NodeSet(s), nil
			}
			// Not covered yet (can happen when a caller asks for a
			// fresh context); evaluate on demand. A context-free path
			// asked for under the context-free sentinel starts from
			// the root, any node serves.
			n := c.Node
			if n == xmltree.NilNode {
				n = st.doc.RootID()
			}
			if err := st.evalByCnodeOnly(e, xmltree.NodeSet{n}); err != nil {
				return semantics.Value{}, err
			}
			return semantics.NodeSet(st.rels[e][key]), nil
		}
		if t, ok := st.tables[e]; ok {
			if v, ok2 := t.vals[t.key(c)]; ok2 {
				return v, nil
			}
		}
		// Fill on demand for this node.
		if err := st.evalByCnodeOnly(e, xmltree.NodeSet{c.Node}); err != nil {
			return semantics.Value{}, err
		}
		if t, ok := st.tables[e]; ok {
			if v, ok2 := t.vals[t.key(c)]; ok2 {
				return v, nil
			}
		}
		return semantics.Value{}, fmt.Errorf("mincontext: table for %s missing context node %d", e, c.Node)
	}
	// Position/size-dependent: recurse (position() and last() resolve
	// through CallFunction with the supplied context).
	return st.apply(e, c)
}

// ------------------------------------------------------------------
// eval_inner_locpath
// ------------------------------------------------------------------

// evalInnerLocpath computes the relation {⟨x, y⟩ | x ∈ X, y reachable
// from x via the path} as a map x → set with a row for every x ∈ X. It
// runs only for paths that depend on the context node and are wanted at
// several of them (fillPath).
func (st *state) evalInnerLocpath(p *xpath.Path, x xmltree.NodeSet) (map[xmltree.NodeID]xmltree.NodeSet, error) {
	// Starting relation R0.
	cur := make(map[xmltree.NodeID]xmltree.NodeSet, len(x))
	switch {
	case p.Filter != nil:
		heads, err := st.evalHeads(p.Filter, x)
		if err != nil {
			return nil, err
		}
		for i, n := range x {
			cur[n] = heads[i]
		}
	case p.Absolute:
		for _, n := range x {
			cur[n] = xmltree.NodeSet{st.doc.RootID()}
		}
	default:
		// R0 is the identity; its rows are stretches of x, never written.
		for i, n := range x {
			cur[n] = x[i : i+1 : i+1]
		}
	}
	sc := st.acquire()
	defer st.release(sc)
	for i, step := range p.Steps {
		// Image of the current relation.
		for _, s := range cur {
			sc.acc.Add(s)
		}
		image := sc.acc.Result()
		var rel map[xmltree.NodeID]xmltree.NodeSet
		var err error
		if name, ok := namedChildAfterDescendants(p.Steps, i); ok {
			rel, err = st.namedChildParentRows(image, name)
		} else {
			rel, err = st.evalInnerStep(step, image)
		}
		if err != nil {
			return nil, err
		}
		next := make(map[xmltree.NodeID]xmltree.NodeSet, len(cur))
		for x0, ys := range cur {
			if err := st.cancel.Check(); err != nil {
				return nil, err
			}
			var u xmltree.NodeSet
			if len(ys) == 1 {
				// Rows are treated as immutable; aliasing skips a copy.
				u = rel[ys[0]]
			} else if len(ys) > 1 {
				for _, y := range ys {
					sc.acc.Add(rel[y])
				}
				u = sc.acc.Result()
			}
			next[x0] = u
		}
		cur = next
	}
	return cur, nil
}

// evalInnerStep computes the one-step relation {⟨x, z⟩ | x ∈ X, x χ z, z
// ∈ T(t), predicates hold} grouped by x, with the same
// cp/cs-independent fast path as the outermost variant. Only the x ∈ X ∩
// χ⁻¹(Y) get a row — Y being the candidates that can still be selected —
// an absent row is the empty set.
func (st *state) evalInnerStep(step *xpath.Step, x xmltree.NodeSet) (map[xmltree.NodeID]xmltree.NodeSet, error) {
	y := evalutil.StepCandidatesSet(st.doc, step.Axis, step.Test, x)
	if len(y) == 0 {
		return nil, nil
	}
	if err := st.tabulatePreds(step, y); err != nil {
		return nil, err
	}
	positional := st.stepNeedsPositions(step)
	if !positional && len(step.Preds) > 0 {
		// Filter candidates once, then intersect per x.
		var err error
		if y, err = st.filterCandidates(step, y); err != nil {
			return nil, err
		}
	}
	if err := st.cancel.CheckN(len(x) + len(y)); err != nil {
		return nil, err
	}
	if !positional && step.Axis == axes.Child {
		return rowsByParent(st.doc, y, len(x)), nil
	}
	xs := evalutil.ContextsReaching(st.doc, step.Axis, x, y)
	rel := make(map[xmltree.NodeID]xmltree.NodeSet, len(xs))
	sc := st.acquire()
	defer st.release(sc)
	var loop *evalutil.PairLoop
	if positional {
		loop = evalutil.NewPairLoop(st.doc, step, st.cancel, st.evalSingleContext)
	}
	for _, xn := range xs {
		if err := st.cancel.Check(); err != nil {
			return nil, err
		}
		var z xmltree.NodeSet
		switch {
		case positional:
			ranked, err := loop.RankedCandidates(xn, sc.buf)
			if err != nil {
				return nil, err
			}
			sc.buf, z = ranked, ranked.Clone()
		case len(step.Preds) > 0:
			sc.buf = evalutil.StepCandidatesInto(st.doc, step.Axis, step.Test, xn, sc.buf)
			z = sc.buf.Intersect(y)
		default:
			z = evalutil.StepCandidates(st.doc, step.Axis, step.Test, xn)
		}
		if len(z) > 0 {
			rel[xn] = z
		}
	}
	return rel, nil
}

// rowsByParent is the relation of a child step whose selected nodes y
// are known: each one's previous context node is its parent, so one pass
// over y groups the rows, with no candidate computation per context
// node. y is in document order; the children of one parent are
// consecutive in it except where a selected node lies below a sibling,
// so a row is a stretch of y itself — rows are never written — and only
// a parent whose children resume after such a nested stretch has its row
// copied out. parents bounds the number of rows.
func rowsByParent(d *xmltree.Document, y xmltree.NodeSet, parents int) map[xmltree.NodeID]xmltree.NodeSet {
	rel := make(map[xmltree.NodeID]xmltree.NodeSet, min(parents, len(y)))
	for i := 0; i < len(y); {
		p := d.Parent(y[i])
		j := i + 1
		for j < len(y) && d.Parent(y[j]) == p {
			j++
		}
		row := y[i:j:j]
		if head, resumed := rel[p]; resumed {
			row = append(head[:len(head):len(head)], row...)
		}
		rel[p] = row
		i = j
	}
	return rel
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
// interval, shared and never written.
func (st *state) namedChildParentRows(x xmltree.NodeSet, name string) (map[xmltree.NodeID]xmltree.NodeSet, error) {
	if err := st.cancel.CheckN(len(x)); err != nil {
		return nil, err
	}
	parents := evalutil.NamedChildParents(st.doc, x, name)
	ix := st.doc.Index()
	rel := make(map[xmltree.NodeID]xmltree.NodeSet, len(x))
	for _, xn := range x {
		if row := parents.Range(xn, ix.SubtreeEnd(xn)); len(row) > 0 {
			rel[xn] = row[:len(row):len(row)]
		}
	}
	return rel, nil
}

// children returns the direct subexpressions of e (predicates included
// for filter expressions; a path's pieces are handled by the inner-path
// machinery, so paths report no children here).
func children(e xpath.Expr) []xpath.Expr {
	switch x := e.(type) {
	case *xpath.Negate:
		return []xpath.Expr{x.X}
	case *xpath.Binary:
		return []xpath.Expr{x.Left, x.Right}
	case *xpath.Call:
		return x.Args
	case *xpath.FilterExpr:
		return append([]xpath.Expr{x.Primary}, x.Preds...)
	default:
		return nil
	}
}
