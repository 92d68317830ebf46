// Package wadler implements Section 11: the Extended Wadler Fragment
// and the OptMinContext algorithm (Algorithm 11.1).
//
// The Extended Wadler Fragment restricts XPath so that every node-set
// subexpression can be evaluated by *backward* propagation of node sets
// (never materializing dom×2^dom relations):
//
//	Restriction 1 — no data-selecting functions (local-name,
//	    namespace-uri, name, string, number, string-length,
//	    normalize-space);
//	Restriction 2 — no nset RelOp nset with both sides context
//	    dependent, no count or sum; in nset RelOp scalar the scalar must
//	    not depend on any context;
//	Restriction 3 — in id(id(…(c)…)) the innermost c must not depend on
//	    any context.
//
// Queries in the fragment run in O(|D|·|Q|²) space and O(|D|²·|Q|²)
// time (Theorem 11.3).
//
// OptMinContext evaluates every "bottom-up location path" of the query
// — subexpressions boolean(π) and π RelOp c with context-independent c
// — innermost first, by eval_bottomup_path/propagate_path_backwards
// (Appendix A; the walk itself is evalutil.Backward, shared with the
// Section 10 algebra, and the MinContext run judges a step's predicates
// for it), installs the resulting dom → bool tables into a
// MinContext evaluator, and runs MinContext for the rest. Subexpressions
// outside the fragment simply fall back to MinContext's own machinery,
// so OptMinContext supports all of XPath at MinContext's bounds while
// meeting the better fragment bounds where they apply (Corollaries 11.4
// and 11.5).
//
// # Where the node sets come from
//
// A bottom-up path is evaluated on node sets throughout, and the sets
// start as small as the query allows. eval_bottomup_path's initial Y is
// not "every y ∈ dom whose string-value compares with c" but the same
// restricted to T(t) of the path's last step — the first thing
// propagate_step_backwards would intersect Y with anyway — which for
// child::name is the label's posting list; so [current > 60] reads 500
// string-values, not those of all |D| nodes with the root's (the whole
// document's text) among them. A step whose predicates depend on cp/cs
// loops over the previous context nodes in χ⁻¹(Y) only, the kernel's
// own pair loop. This package judges nothing: the MinContext run is the
// kernel's judge (its JudgeStep, RankStep and Head), so a step's
// predicates are read from the tables this phase has installed, and
// whatever part of a predicate the phase did not take is tabulated
// set-at-a-time. Everything the bottom-up phase leaves over runs on
// MinContext, whose package comment states which of its paths are node
// sets and why that is the paper's Relev rule.
package wadler

import (
	"context"
	"repro/internal/evalutil"
	"repro/internal/mincontext"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Evaluator is the OptMinContext query processor. It holds nothing but
// its document: any number of goroutines may share one.
type Evaluator struct{ doc *xmltree.Document }

// New returns an OptMinContext evaluator for the document.
func New(d *xmltree.Document) *Evaluator { return &Evaluator{doc: d} }

// Evaluate implements Algorithm 11.1: evaluate all bottom-up location
// paths inside the query (innermost first), then delegate to MinContext
// with those results installed.
func (ev *Evaluator) Evaluate(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	return ev.EvaluateContext(context.Background(), e, c)
}

// EvaluateContext is Evaluate with cancellation: both the bottom-up
// backward-propagation phase and the MinContext phase it delegates to
// check ctx at throttled checkpoints and abandon the evaluation with
// ctx's error once it is done.
func (ev *Evaluator) EvaluateContext(ctx context.Context, e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	return evalutil.Evaluate(ctx, ev.doc, func(ar *xmltree.Arena, cancel *evalutil.Canceller) (semantics.Value, error) {
		st, err := newState(ar, cancel, ctx, ev.doc, e)
		if err != nil {
			return semantics.Value{}, err
		}
		if err := st.collect(e); err != nil {
			return semantics.Value{}, err
		}
		return st.run.Evaluate(c)
	})
}

// state carries the MinContext run whose tables the bottom-up phase
// fills — the dom → bool table of each subexpression it evaluates,
// innermost first — and their number. The arena ar keeps it, and the
// run.
type state struct {
	doc    *xmltree.Document
	ar     *xmltree.Arena
	run    *mincontext.Run
	paths  int
	ctx    context.Context
	cancel *evalutil.Canceller
}

// newState begins the evaluation of e in the arena ar, under ctx and its
// checkpoint cancel.
func newState(ar *xmltree.Arena, cancel *evalutil.Canceller, ctx context.Context, d *xmltree.Document, e xpath.Expr) (*state, error) {
	run, err := mincontext.New(d).Begin(ar, cancel, e)
	st := xmltree.Keep[state](ar)
	*st = state{doc: d, ar: ar, run: run, ctx: ctx, cancel: cancel}
	return st, err
}

// back is propagate_path_backwards (Appendix A) with the MinContext run
// judging the steps' predicates.
func (st *state) back() evalutil.Backward {
	return evalutil.Backward{Doc: st.doc, Arena: st.ar, Cancel: st.cancel, Judge: st.run}
}

// ------------------------------------------------------------------
// Fragment membership
// ------------------------------------------------------------------

// prohibited are the data-selecting functions of Restriction 1.
var prohibited = map[string]bool{
	"local-name": true, "namespace-uri": true, "name": true,
	"string": true, "number": true, "string-length": true,
	"normalize-space": true,
}

// InFragment reports whether a normalized query lies in the Extended
// Wadler Fragment. The query as a whole must be a location path, or a
// scalar expression whose node-set parts all occur as bottom-up
// location paths.
func InFragment(e xpath.Expr) bool {
	return pathInFragment(e) || scalarInFragment(e)
}

func pathInFragment(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Binary:
		return x.Op == xpath.OpUnion && pathInFragment(x.Left) && pathInFragment(x.Right)
	case *xpath.Path:
		if x.Filter != nil && !idHeadOK(x.Filter) {
			return false
		}
		for _, s := range x.Steps {
			for _, p := range s.Preds {
				if !scalarInFragment(p) {
					return false
				}
			}
		}
		return true
	default:
		return false
	}
}

// idHeadOK checks Restriction 3 for id(id(…(x)…)) heads: the innermost
// argument is either context independent or a fragment path.
func idHeadOK(e xpath.Expr) bool {
	c, ok := e.(*xpath.Call)
	if !ok || c.Name != "id" {
		return false
	}
	switch a := c.Args[0].(type) {
	case *xpath.Call:
		if a.Name == "id" {
			return idHeadOK(a)
		}
		return xpath.RelevantContext(a) == 0 && scalarInFragment(a)
	case *xpath.Path:
		return pathInFragment(a)
	default:
		return xpath.RelevantContext(a) == 0
	}
}

// scalarInFragment checks a scalar (non-node-set) expression: node sets
// may occur only under boolean(π) or as π RelOp c / c RelOp π with a
// context-independent c.
func scalarInFragment(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Number, *xpath.Literal:
		return true
	case *xpath.Negate:
		return scalarInFragment(x.X)
	case *xpath.Binary:
		if x.Op == xpath.OpUnion {
			return false // node set in scalar position
		}
		if x.Op.IsRelOp() {
			ln, rn := x.Left.Type() == xpath.TypeNodeSet, x.Right.Type() == xpath.TypeNodeSet
			switch {
			case ln && rn:
				// nset RelOp nset: only with one side context free
				// (the appendix handles that case; Restriction 2
				// forbids both sides context dependent).
				return (xpath.RelevantContext(x.Left) == 0 || xpath.RelevantContext(x.Right) == 0) &&
					bottomUpPathOK(x.Left) && bottomUpPathOK(x.Right)
			case ln:
				return bottomUpPathOK(x.Left) && xpath.RelevantContext(x.Right) == 0 && scalarInFragment(x.Right)
			case rn:
				return bottomUpPathOK(x.Right) && xpath.RelevantContext(x.Left) == 0 && scalarInFragment(x.Left)
			}
		}
		return scalarInFragment(x.Left) && scalarInFragment(x.Right)
	case *xpath.Call:
		if prohibited[x.Name] {
			return false
		}
		switch x.Name {
		case "count", "sum":
			return false // Restriction 2
		case "boolean":
			if x.Args[0].Type() == xpath.TypeNodeSet {
				return bottomUpPathOK(x.Args[0])
			}
			return scalarInFragment(x.Args[0])
		case "id":
			return false // node set in scalar position
		case "lang":
			return false // reads document data from the context node
		}
		for _, a := range x.Args {
			if a.Type() == xpath.TypeNodeSet {
				return false
			}
			if !scalarInFragment(a) {
				return false
			}
		}
		return true
	case *xpath.Path, *xpath.FilterExpr:
		return false // node set in scalar position
	default:
		return false
	}
}

// bottomUpPathOK checks that a path can be evaluated by backward
// propagation: any axes, any node tests, fragment predicates, and an
// id-chain head at most. The context-independent node-set operand of a
// comparison (an absolute fragment path or an id chain over a constant)
// is held to the same.
func bottomUpPathOK(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Path:
		return pathInFragment(x)
	case *xpath.Call:
		return idHeadOK(x)
	default:
		return false
	}
}

// ------------------------------------------------------------------
// Collection of bottom-up location paths (Algorithm 11.1, step 1)
// ------------------------------------------------------------------

// collect walks the query post-order and evaluates every qualifying
// bottom-up location path, innermost first.
func (st *state) collect(e xpath.Expr) error {
	switch x := e.(type) {
	case *xpath.Negate:
		return st.collect(x.X)
	case *xpath.Binary:
		if err := st.collect(x.Left); err != nil {
			return err
		}
		if err := st.collect(x.Right); err != nil {
			return err
		}
		if x.Op.IsRelOp() {
			if err := st.maybeEvalRelOp(x); err != nil {
				return err
			}
		}
		return nil
	case *xpath.Call:
		for _, a := range x.Args {
			if err := st.collect(a); err != nil {
				return err
			}
		}
		if x.Name == "boolean" && x.Args[0].Type() == xpath.TypeNodeSet && bottomUpPathOK(x.Args[0]) {
			return st.evalBottomUpPath(x, x.Args[0], nil, 0)
		}
		return nil
	case *xpath.FilterExpr:
		if err := st.collect(x.Primary); err != nil {
			return err
		}
		for _, p := range x.Preds {
			if err := st.collect(p); err != nil {
				return err
			}
		}
		return nil
	case *xpath.Path:
		if x.Filter != nil {
			if err := st.collect(x.Filter); err != nil {
				return err
			}
		}
		for _, s := range x.Steps {
			for _, p := range s.Preds {
				if err := st.collect(p); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		return nil
	}
}

// maybeEvalRelOp evaluates a qualifying π RelOp c / c RelOp π node
// bottom-up.
func (st *state) maybeEvalRelOp(b *xpath.Binary) error {
	ln := b.Left.Type() == xpath.TypeNodeSet && xpath.RelevantContext(b.Left) != 0
	rn := b.Right.Type() == xpath.TypeNodeSet && xpath.RelevantContext(b.Right) != 0
	var pathSide, constSide xpath.Expr
	op := b.Op
	switch {
	case ln && !rn && xpath.RelevantContext(b.Right) == 0:
		pathSide, constSide = b.Left, b.Right
	case rn && !ln && xpath.RelevantContext(b.Left) == 0:
		pathSide, constSide = b.Right, b.Left
		op = semantics.Flip(op)
	default:
		return nil
	}
	if !bottomUpPathOK(pathSide) {
		return nil
	}
	// The constant side must itself be evaluable (any XPath, evaluated
	// once on the MinContext run, from the root — it is context
	// independent; whole-document paths in it stay tabulated).
	cv, err := st.run.EvalSingleContext(constSide, semantics.Context{Node: st.doc.RootID(), Pos: 1, Size: 1})
	if err != nil {
		if st.ctx.Err() != nil {
			return st.ctx.Err() // cancelled, not merely out of fragment
		}
		return nil // leave it to MinContext
	}
	return st.evalBottomUpPath(b, pathSide, &cv, op)
}

// ------------------------------------------------------------------
// eval_bottomup_path (Appendix A)
// ------------------------------------------------------------------

// evalBottomUpPath computes the dom → bool table of a boolean(π) or
// π RelOp c node and stores it under the whole expression key.
//
// Step 1 determines the initial node set Y; step 2 propagates Y
// backwards through the inverted location steps.
func (st *state) evalBottomUpPath(key xpath.Expr, pathSide xpath.Expr, c *semantics.Value, op xpath.BinOp) error {
	if st.run.Known(key) {
		return nil
	}
	// Step 1. The path can only end in T(t) of its last step, so Y is
	// seeded from there — the label's posting list for child::name and
	// its like — and a comparison reads the string-values of those nodes
	// alone, never the root's or an interior element's: Y := {y ∈ T(t) |
	// strval(y) RelOp c}. π RelOp bool is boolean(π) RelOp bool: like
	// boolean(π) it propagates all of T(t), and compares afterwards.
	var (
		reach      xmltree.NodeSet
		everywhere bool
		err        error
		boolRelOp  = c != nil && c.Kind == xpath.TypeBoolean
	)
	if c == nil || boolRelOp {
		reach, everywhere, err = st.back().Exists(pathSide)
	} else {
		reach, everywhere, err = st.back().Compared(pathSide, op, *c)
	}
	if err != nil {
		return err
	}
	// An absolute or constant-headed path reaches Y from every context
	// node or from none: one value. Any other has a dom → bool table.
	var at *xmltree.Bitset
	if xpath.RelevantContext(pathSide).Has(xpath.RelevNode) {
		at = st.ar.Bitset(st.doc.Len())
		at.AddSet(reach)
	}
	if boolRelOp {
		// boolean(π) RelOp bool: the nodes reaching Y where true RelOp c
		// holds, the others where false RelOp c does.
		onTrue := semantics.Compare(st.doc, op, semantics.Boolean(true), *c)
		onFalse := semantics.Compare(st.doc, op, semantics.Boolean(false), *c)
		switch {
		case at == nil:
			everywhere = everywhere && onTrue || !everywhere && onFalse
		case onTrue && onFalse:
			at.Fill()
		case onFalse:
			at.Complement()
		case !onTrue:
			at.Clear()
		}
	}
	st.run.SetTruth(key, at, everywhere)
	st.paths++
	return nil
}
