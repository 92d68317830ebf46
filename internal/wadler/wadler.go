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
// Section 10 algebra — this package judges a step's predicates for it,
// JudgeStep), installs the resulting dom → bool tables into a
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
// loops over the previous context nodes in χ⁻¹(Y) only, with candidate
// lists and ranking shared with MinContext (evalutil). The predicates of
// a step are judged by the MinContext run itself (FilterCandidates,
// TabulatePreds): it reads the tables this phase has installed and
// tabulates set-at-a-time whatever part of a predicate the phase did not
// take. Everything the bottom-up phase leaves over runs on MinContext,
// whose package comment states which of its paths are node sets and why
// that is the paper's Relev rule.
package wadler

import (
	"context"
	"fmt"

	"repro/internal/axes"
	"repro/internal/evalutil"
	"repro/internal/mincontext"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Evaluator is the OptMinContext query processor.
type Evaluator struct {
	doc *xmltree.Document

	// Stats filled by the last Evaluate call.
	LastBottomUpPaths int // number of subexpressions evaluated bottom-up
}

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
	st, err := newState(ctx, ev.doc, e)
	if err != nil {
		return semantics.Value{}, err
	}
	if err := st.collect(e); err != nil {
		return semantics.Value{}, err
	}
	ev.LastBottomUpPaths = st.paths
	return st.run.Evaluate(c)
}

// state carries the MinContext run whose tables the bottom-up phase
// fills — the dom → bool table of each subexpression it evaluates,
// innermost first — and their number.
type state struct {
	doc    *xmltree.Document
	run    *mincontext.Run
	paths  int
	ctx    context.Context
	cancel *evalutil.Canceller
}

// newState begins the evaluation of e.
func newState(ctx context.Context, d *xmltree.Document, e xpath.Expr) (*state, error) {
	run, err := mincontext.New(d).Begin(ctx, e)
	return &state{doc: d, run: run, ctx: ctx, cancel: evalutil.NewCanceller(ctx)}, err
}

// back is propagate_path_backwards (Appendix A) with this state judging
// the steps' predicates.
func (st *state) back() evalutil.Backward {
	return evalutil.Backward{Doc: st.doc, Cancel: st.cancel, Judge: st}
}

// evalScalar evaluates a context-independent operand on the MinContext
// run, from the root (the operand itself may contain whole-document
// paths; they are node sets there, and stay tabulated).
func (st *state) evalScalar(e xpath.Expr) (semantics.Value, error) {
	return st.run.EvalSingleContext(e, semantics.Context{Node: st.doc.RootID(), Pos: 1, Size: 1})
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
	st := &state{}
	return st.pathInFragment(e) || st.scalarInFragment(e)
}

func (st *state) pathInFragment(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Binary:
		return x.Op == xpath.OpUnion && st.pathInFragment(x.Left) && st.pathInFragment(x.Right)
	case *xpath.Path:
		if x.Filter != nil && !st.idHeadOK(x.Filter) {
			return false
		}
		for _, s := range x.Steps {
			for _, p := range s.Preds {
				if !st.scalarInFragment(p) {
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
func (st *state) idHeadOK(e xpath.Expr) bool {
	c, ok := e.(*xpath.Call)
	if !ok || c.Name != "id" {
		return false
	}
	switch a := c.Args[0].(type) {
	case *xpath.Call:
		if a.Name == "id" {
			return st.idHeadOK(a)
		}
		return xpath.RelevantContext(a) == 0 && st.scalarInFragment(a)
	case *xpath.Path:
		return st.pathInFragment(a)
	default:
		return xpath.RelevantContext(a) == 0
	}
}

// scalarInFragment checks a scalar (non-node-set) expression: node sets
// may occur only under boolean(π) or as π RelOp c / c RelOp π with a
// context-independent c.
func (st *state) scalarInFragment(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Number, *xpath.Literal:
		return true
	case *xpath.Negate:
		return st.scalarInFragment(x.X)
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
					st.bottomUpPathOK(x.Left) && st.bottomUpPathOK(x.Right)
			case ln:
				return st.bottomUpPathOK(x.Left) && xpath.RelevantContext(x.Right) == 0 && st.scalarInFragment(x.Right)
			case rn:
				return st.bottomUpPathOK(x.Right) && xpath.RelevantContext(x.Left) == 0 && st.scalarInFragment(x.Left)
			}
		}
		return st.scalarInFragment(x.Left) && st.scalarInFragment(x.Right)
	case *xpath.Call:
		if prohibited[x.Name] {
			return false
		}
		switch x.Name {
		case "count", "sum":
			return false // Restriction 2
		case "boolean":
			if x.Args[0].Type() == xpath.TypeNodeSet {
				return st.bottomUpPathOK(x.Args[0])
			}
			return st.scalarInFragment(x.Args[0])
		case "id":
			return false // node set in scalar position
		case "lang":
			return false // reads document data from the context node
		}
		for _, a := range x.Args {
			if a.Type() == xpath.TypeNodeSet {
				return false
			}
			if !st.scalarInFragment(a) {
				return false
			}
		}
		return true
	case *xpath.Path, *xpath.FilterExpr:
		return false // node set in scalar position
	case *xpath.VarRef:
		return false
	default:
		return false
	}
}

// bottomUpPathOK checks that a path can be evaluated by backward
// propagation: any axes, any node tests, fragment predicates, and an
// id-chain head at most. The context-independent node-set operand of a
// comparison (an absolute fragment path or an id chain over a constant)
// is held to the same.
func (st *state) bottomUpPathOK(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Path:
		return st.pathInFragment(x)
	case *xpath.Call:
		return st.idHeadOK(x)
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
		if x.Name == "boolean" && x.Args[0].Type() == xpath.TypeNodeSet && st.bottomUpPathOK(x.Args[0]) {
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
	if !st.bottomUpPathOK(pathSide) {
		return nil
	}
	// The constant side must itself be evaluable (any XPath, evaluated
	// once — it is context independent).
	cv, err := st.evalScalar(constSide)
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
	// alone, never the root's or an interior element's. π RelOp bool is
	// boolean(π) RelOp bool: like boolean(π) it propagates all of T(t),
	// and compares afterwards.
	var (
		reach      xmltree.NodeSet
		everywhere bool
		err        error
		back       = st.back()
	)
	boolRelOp := c != nil && c.Kind == xpath.TypeBoolean
	if c == nil || boolRelOp {
		reach, everywhere, err = back.Exists(pathSide)
	} else {
		// Y := {y ∈ T(t) | strval-based comparison with c holds}.
		var y xmltree.NodeSet
		if y, err = back.Targets(pathSide); err == nil {
			err = st.cancel.CheckN(len(y))
		}
		if err != nil {
			return err
		}
		one := xmltree.NodeSet{0}
		keep := make(xmltree.NodeSet, 0, len(y))
		for _, id := range y {
			one[0] = id
			if semantics.Compare(st.doc, op, semantics.NodeSet(one), *c) {
				keep = append(keep, id)
			}
		}
		reach, everywhere, err = back.Reach(pathSide, keep)
	}
	if err != nil {
		return err
	}
	// An absolute or constant-headed path reaches Y from every context
	// node or from none: one value. Any other has a dom → bool table.
	var at *xmltree.Bitset
	if xpath.RelevantContext(pathSide).Has(xpath.RelevNode) {
		at = xmltree.NewBitset(st.doc.Len())
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

// ConstantIDs evaluates a context-independent id(…) head, once, on the
// MinContext run.
func (st *state) ConstantIDs(head *xpath.Call) (xmltree.NodeSet, error) {
	v, err := st.evalScalar(head)
	if err == nil && v.Kind != xpath.TypeNodeSet {
		err = fmt.Errorf("wadler: id head is not a node set")
	}
	return v.Set, err
}

// JudgeStep is the predicate half of propagate_step_backwards: the
// kernel has restricted the target set to the node test and takes χ⁻¹
// of what the MinContext run keeps of it. Predicates that depend on
// position/size run in a loop over the pairs of previous/current context
// node, as in the appendix pseudocode, and answer with the previous
// context nodes themselves.
func (st *state) JudgeStep(step *xpath.Step, yt xmltree.NodeSet) (xmltree.NodeSet, bool, error) {
	if !step.Positional() {
		yt, err := st.run.FilterCandidates(step, yt)
		return yt, false, err
	}
	// Position-dependent: loop over previous context nodes x and their
	// candidate sets. Note the candidate set Z (and thus the context
	// size) must be computed over ALL candidates of x, not only those in
	// yt; positions refer to the unrestricted step result — and so the
	// predicates' cp/cs-independent parts are tabulated over all of them.
	if err := st.cancel.CheckN(len(yt)); err != nil {
		return nil, true, err
	}
	xs := axes.EvalInverse(st.doc, step.Axis, yt)
	if err := st.cancel.CheckN(len(xs)); err != nil {
		return nil, true, err
	}
	if err := st.run.TabulatePreds(step, evalutil.StepCandidatesSet(st.doc, step.Axis, step.Test, xs)); err != nil {
		return nil, true, err
	}
	// xs is χ⁻¹(yt): only these previous context nodes have a candidate
	// in yt at all. A survivor is an x one of whose ranked
	// candidates lies in yt; xs is compacted in place.
	var buf xmltree.NodeSet
	loop := evalutil.NewPairLoop(st.doc, step, st.cancel, st.run.EvalSingleContext)
	k := 0
	for _, x := range xs {
		z, err := loop.RankedCandidates(x, buf)
		if err != nil {
			return nil, true, err
		}
		if z.Intersects(yt) {
			xs[k] = x
			k++
		}
		buf = z
	}
	return xs[:k], true, nil
}
