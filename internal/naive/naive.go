// Package naive implements the denotational semantics of XPath
// (Definition 5.1, Figure 5 and Table II) by direct recursive descent —
// the strategy the paper attributes to XALAN, XT, Saxon and IE6
// (Sections 2 and 9.2). It re-evaluates every subexpression for every
// context it is asked about, so its worst-case running time is
// exponential in the size of the query (the |D|^|Q| recurrence of
// Section 2). That explosion is the *point* of this engine: it is the
// baseline every experiment in the paper measures against. F[[e]] of
// every non-path expression is semantics.Eval, as in all five
// interpreters; naive evaluates the operands first, short-circuiting
// and/or, and keeps its own filter loop, which shares nothing with
// evalutil's because every differential test trusts it.
//
// The same evaluator becomes polynomial with the data pool of Algorithm
// 9.1 as its memo (NewPooled, pool.go): before evaluating (e, c) it
// consults the pool, and after evaluating it stores the result.
package naive

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/evalutil"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// ErrBudget is returned when evaluation exceeds the configured step
// budget. Exponential runs are expected with this engine; the budget
// turns "hangs for hours" into a reportable condition in tests and
// benchmarks.
var ErrBudget = errors.New("naive: step budget exhausted")

// Evaluator evaluates XPath queries over one document.
type Evaluator struct {
	doc  *xmltree.Document
	pool *DataPool // nil: the classic exponential behaviour

	// suffixes caches synthetic Path expressions standing for the step
	// suffixes of a path, so that a data pool can memoize P[[π]](x) per
	// remaining-steps list exactly as Section 9.2 prescribes ("before
	// an evaluation function corresponding to P[[·]] is called with
	// some input (π, x), we first check whether some triple already
	// exists in the data pool").
	suffixes map[suffixKey]xpath.Expr

	// Budget bounds the number of elementary evaluation steps (location
	// step applications and function evaluations); 0 means unlimited.
	Budget int64
	steps  int64

	// cancel is the throttled cancellation checkpoint consulted by
	// bill() on every elementary step; nil (the Evaluate path) never
	// fires. It is what lets an exponential run be abandoned before
	// the Budget — or the heat death of the universe — stops it.
	cancel *evalutil.Canceller
}

type suffixKey struct {
	path *xpath.Path
	idx  int
}

func (ev *Evaluator) suffixExpr(p *xpath.Path, idx int) xpath.Expr {
	if ev.suffixes == nil {
		ev.suffixes = map[suffixKey]xpath.Expr{}
	}
	k := suffixKey{p, idx}
	if e, ok := ev.suffixes[k]; ok {
		return e
	}
	e := &xpath.Path{Steps: p.Steps[idx:]}
	ev.suffixes[k] = e
	return e
}

// New returns a classic (exponential-time) evaluator for the document.
func New(d *xmltree.Document) *Evaluator { return &Evaluator{doc: d} }

// Steps reports the number of elementary evaluation steps performed
// since construction. Experiments use it as a machine-independent cost
// measure.
func (ev *Evaluator) Steps() int64 { return ev.steps }

// Evaluate computes [[e]](c) per Definition 5.1.
func (ev *Evaluator) Evaluate(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	return ev.EvaluateContext(context.Background(), e, c)
}

// EvaluateContext is Evaluate with cancellation: every elementary
// evaluation step consults a throttled checkpoint, so an exponential
// recursion is abandoned with ctx's error soon after ctx is done
// instead of running to completion (or to its Budget).
func (ev *Evaluator) EvaluateContext(ctx context.Context, e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	ev.cancel = evalutil.NewCanceller(ctx)
	ev.steps = 0
	return ev.eval(e, c)
}

func (ev *Evaluator) bill() error {
	ev.steps++
	if ev.Budget > 0 && ev.steps > ev.Budget {
		return ErrBudget
	}
	return ev.cancel.Check()
}

// eval is the direct functional implementation of [[·]]. With a pool it
// is atomic-evaluation-CVT of Algorithm 9.1; without one it is
// atomic-evaluation.
func (ev *Evaluator) eval(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	if v, ok := ev.pool.lookup(e, c); ok {
		return v, nil
	}
	v, err := ev.evalUncached(e, c)
	if err == nil {
		ev.pool.store(e, c, v)
	}
	return v, err
}

func (ev *Evaluator) evalUncached(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	if err := ev.bill(); err != nil {
		return semantics.Value{}, err
	}
	var s xmltree.NodeSet
	var err error
	switch x := e.(type) {
	case *xpath.FilterExpr:
		s, err = ev.evalFilterExpr(x, c)
	case *xpath.Path:
		s, err = ev.evalPath(x, c)
	default:
		return ev.evalOperator(e, c)
	}
	if err != nil {
		return semantics.Value{}, err
	}
	return semantics.NodeSet(s), nil
}

// evalOperator is [[e]](c) of every expression but a path or filter
// expression: F[[e]] of its operands' values at c (semantics.Eval).
func (ev *Evaluator) evalOperator(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	// Stack buffers for the usual arities: neither Operands nor Eval
	// retains them, so the engine's hottest recursion (count(...) in the
	// Experiment-3 family) allocates nothing for them.
	var ops [3]xpath.Expr
	var buf [3]semantics.Value
	args := buf[:0]
	for i, o := range xpath.Operands(e, ops[:0]) {
		v, err := ev.eval(o, c)
		if err != nil {
			return semantics.Value{}, err
		}
		if i == 0 && decides(e, v) {
			return semantics.Boolean(semantics.ToBoolean(v)), nil
		}
		args = append(args, v)
	}
	return semantics.Eval(ev.doc, nil, e, c, args)
}

// decides reports whether e is an and (an or) whose left operand's value
// l is false (true), which is then e's value: the short-circuit the W3C
// prescribes, under which the right operand is not evaluated.
func decides(e xpath.Expr, l semantics.Value) bool {
	b, ok := e.(*xpath.Binary)
	return ok && (b.Op == xpath.OpAnd || b.Op == xpath.OpOr) && semantics.ToBoolean(l) == (b.Op == xpath.OpOr)
}

// evalFilterExpr evaluates a primary expression and filters it with
// predicates; positions are taken in document order (forward).
func (ev *Evaluator) evalFilterExpr(f *xpath.FilterExpr, c semantics.Context) (xmltree.NodeSet, error) {
	prim, err := ev.eval(f.Primary, c)
	if err != nil {
		return nil, err
	}
	if prim.Kind != xpath.TypeNodeSet {
		return nil, fmt.Errorf("naive: predicates on non-node-set %v", prim.Kind)
	}
	s := prim.Set
	for _, pred := range f.Preds {
		if s, err = ev.filter(s, nil, pred, false); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// filter appends to keep the members y of s at which pred holds, each at
// its position in s — counted from the end when reverse, the <doc,χ of
// Figure 5 — with |s| as the context size. keep is s[:0] when s is the
// caller's own, to filter in place.
func (ev *Evaluator) filter(s, keep xmltree.NodeSet, pred xpath.Expr, reverse bool) (xmltree.NodeSet, error) {
	for i, y := range s {
		pos := i + 1
		if reverse {
			pos = len(s) - i
		}
		v, err := ev.eval(pred, semantics.Context{Node: y, Pos: pos, Size: len(s)})
		if err != nil {
			return nil, err
		}
		if semantics.ToBoolean(v) {
			keep = append(keep, y)
		}
	}
	return keep, nil
}

// evalPath implements P[[π]] of Figure 5 with the recursive
// process-location-step strategy of Section 2: each remaining-step list
// is re-evaluated for every node produced by the step before it. This
// recursion is the engineered source of exponential behaviour.
func (ev *Evaluator) evalPath(p *xpath.Path, c semantics.Context) (xmltree.NodeSet, error) {
	if p.Filter == nil && len(p.Steps) > 0 {
		// Singleton start (the root for absolute paths, the context node
		// otherwise): recurse directly, skipping the start-set and
		// union-buffer allocations.
		x := c.Node
		if p.Absolute {
			x = ev.doc.RootID()
		}
		return ev.stepsFrom(p, 0, x)
	}
	var start xmltree.NodeSet
	switch {
	case p.Filter != nil:
		v, err := ev.eval(p.Filter, c)
		if err != nil {
			return nil, err
		}
		if v.Kind != xpath.TypeNodeSet {
			return nil, fmt.Errorf("naive: path head is not a node set")
		}
		start = v.Set
	case p.Absolute:
		start = xmltree.NodeSet{ev.doc.RootID()}
	default:
		start = xmltree.NodeSet{c.Node}
	}
	if len(p.Steps) == 0 {
		return start, nil
	}
	var out xmltree.NodeSet
	for _, x := range start {
		s, err := ev.stepsFrom(p, 0, x)
		if err != nil {
			return nil, err
		}
		out = append(out, s...)
	}
	return out.Normalized(), nil
}

// stepsFrom evaluates the step suffix p.Steps[idx:] from node x,
// consulting the data pool (if any) under a synthetic suffix-path key.
func (ev *Evaluator) stepsFrom(p *xpath.Path, idx int, x xmltree.NodeID) (xmltree.NodeSet, error) {
	if ev.pool == nil {
		return ev.processLocationStep(p, idx, x)
	}
	key := ev.suffixExpr(p, idx)
	c := semantics.Context{Node: x, Pos: 1, Size: 1}
	if v, ok := ev.pool.lookup(key, c); ok {
		return v.Set, nil
	}
	s, err := ev.processLocationStep(p, idx, x)
	if err != nil {
		return nil, err
	}
	ev.pool.store(key, c, semantics.NodeSet(s))
	return s, nil
}

// processLocationStep is the pseudocode procedure of Section 2:
//
//	node set S := apply Q.head to node n0;
//	if Q.tail is not empty then
//	    for each node n ∈ S do process-location-step(n, Q.tail)
func (ev *Evaluator) processLocationStep(p *xpath.Path, idx int, x xmltree.NodeID) (xmltree.NodeSet, error) {
	if err := ev.bill(); err != nil {
		return nil, err
	}
	step := p.Steps[idx]
	s := evalutil.StepCandidates(ev.doc, step.Axis, step.Test, x)
	if err := ev.cancel.CheckN(len(s)); err != nil {
		return nil, err
	}
	// The set stays in document order and reverse axes count positions
	// from its end, so the filter runs in place with no reversed copy.
	for _, pred := range step.Preds {
		var err error
		if s, err = ev.filter(s, s[:0], pred, step.Axis.IsReverse()); err != nil {
			return nil, err
		}
	}
	if idx == len(p.Steps)-1 {
		return s, nil
	}
	// Union of the recursive suffix results, built by appending and
	// normalizing once instead of chained sorted merges.
	var out xmltree.NodeSet
	for _, n := range s {
		sub, err := ev.stepsFrom(p, idx+1, n)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out.Normalized(), nil
}
