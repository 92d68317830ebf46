package evalutil

import (
	"fmt"

	"repro/internal/axes"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Propagation, written once. Section 10.1 evaluates a location path π by
// two walks: S→ forwards from context nodes, S← backwards from nodes π
// may end in. MinContext's eval_outermost_locpath (Section 8) is the
// first, OptMinContext's propagate_path_backwards (Section 11) the
// second, and XPatterns (Section 10.2, Lemma 10.6) adds id heads to both:
//
//	S→[[χ::t[e]/π]](X)  = S→[[π]](judge(χ::t[e], χ(X) ∩ T(t)))
//	S→[[h/π]](X)        = S→[[π]](head(h, X))
//	Rows(χ::t[e], X)    = ⟨S→[[χ::t[e]]]({x}) | x ∈ X⟩   — the step relation, a row per x
//	(R∘S)(x)            = ⋃{S(y) | y ∈ R(x)}              — ComposeRow
//	Reach(π, Y)         = {x | S→[[π]]({x}) ∩ Y ≠ ∅}
//	Reach(χ::t[e]/π, Y) = χ⁻¹(judge(χ::t[e], Reach(π, Y) ∩ T(t)))
//	Reach(id(π1)/π, Y)  = Reach(π1, id⁻¹(Reach(π, Y)))
//	Reach(π1 | π2, Y)   = Reach(π1, Y) ∪ Reach(π2, Y)
//	Exists(π)           = Reach(π, Targets(π))        — S←[[π]], E1[[π]]
//	Compared(π, op, c)  = Reach(π, {y ∈ Targets(π) | strval(y) op c})  — E1[[π RelOp c]]
//
// Only judge and head are the evaluation's own (StepJudge, which the
// MinContext run implements for every served query); the
// ⟨previous, current⟩ pair loop of a position() or last() predicate is
// the kernels' own, and so is the shortcut past it that the label
// index's columns allow: child::name[p]… whose first predicate alone
// reads position() or last() is one pass over the candidates at their
// ⟨position, size⟩ from the rank column (Forward.ranked), and π RelOp c
// picks its targets off the value column (compareColumn).
//
// Contract. A kernel never writes to the set it is given: a step first
// builds a set of its own — χ(X) ∩ T(t) forwards, a copy of Y ∩ T(t)
// backwards — which the judge owns and may filter in place. Targets may
// return a label posting list of the document's index — shared,
// read-only. An empty Y is empty; no start set is ever implied. A path
// that does not start at its context node — absolute, or headed by a
// constant id(…) — reaches Y from every node or from none: that verdict
// is the everywhere flag, returned with a nil set instead of an
// enumerated dom. Every document-sized operation bills Cancel.

// StepJudge is what an evaluation brings to the two walks: the
// MinContext run (internal/mincontext), and in tests a stand-in.
type StepJudge interface {
	// JudgeStep keeps the members of yt ⊆ T(t), which it owns, at which
	// preds, predicates of a step, hold; none of them reads position()
	// or last().
	JudgeStep(preds []xpath.Expr, yt xmltree.NodeSet) (xmltree.NodeSet, error)
	// RankStep readies the predicates of a step that reads position() or
	// last() for the kernel's pair loop, whose candidates are y — all of
	// them, not only those a walk is after, for positions count among all
	// (only where the rank column gives the positions, Forward.ranked,
	// are they those alone) — and returns the predicates' evaluator at
	// one ⟨node, position, size⟩.
	RankStep(step *xpath.Step, y xmltree.NodeSet) (PredEval, error)
	// Head evaluates a path's head expression (an id(…) call, or any
	// filter expression the language admits) at every node of X and
	// returns the union of its values.
	Head(head xpath.Expr, x xmltree.NodeSet) (xmltree.NodeSet, error)
}

// Forward is S→ for one evaluation over one document: four words an
// evaluation builds where it needs them. What the walk materializes
// comes from the evaluation's Arena.
type Forward struct {
	Doc    *xmltree.Document
	Arena  *xmltree.Arena
	Cancel *Canceller
	Judge  StepJudge
}

// Image computes S→[[e]](X) for a location path, a union of them, or a
// bare head — an id(…) chain, a filter expression — which the judge
// evaluates.
func (k Forward) Image(e xpath.Expr, x xmltree.NodeSet) (xmltree.NodeSet, error) {
	switch p := e.(type) {
	case *xpath.Binary:
		if p.Op != xpath.OpUnion {
			break
		}
		l, err := k.Image(p.Left, x)
		if err != nil {
			return nil, err
		}
		r, err := k.Image(p.Right, x)
		if err != nil {
			return nil, err
		}
		return k.Arena.Union(l, r), nil
	case *xpath.Call, *xpath.FilterExpr:
		return k.Judge.Head(p, x)
	case *xpath.Path:
		cur := x
		switch {
		case p.Filter != nil:
			var err error
			if cur, err = k.Judge.Head(p.Filter, x); err != nil {
				return nil, err
			}
		case p.Absolute:
			cur = append(k.Arena.Nodes(1), k.Doc.RootID())
		}
		for i := 0; i < len(p.Steps) && len(cur) > 0; i++ {
			var err error
			if name, ok := NamedChildAfterDescendants(p.Steps, i); ok {
				// //name: the next step starts from the nodes that have a
				// name child, not from every node below cur.
				if err = k.Cancel.CheckN(len(cur)); err != nil {
					return nil, err
				}
				cur = NamedChildParents(k.Arena, k.Doc, cur, name)
				continue
			}
			if cur, err = k.step(p.Steps[i], cur); err != nil {
				return nil, err
			}
		}
		return cur, nil
	}
	return nil, fmt.Errorf("evalutil: cannot propagate forwards through %s", e)
}

// ready begins one location step over X: the candidates χ(X) ∩ T(t) —
// of which the judge keeps those it does when no predicate reads
// position() or last(), and the rank column those it does for a step it
// decides (RankedByColumn) — and otherwise the predicates' evaluator for
// the pair loop, eval, nil when no predicate needs one. room is the
// number of candidates before judging: enough for any x's candidate
// list.
func (k Forward) ready(step *xpath.Step, x xmltree.NodeSet) (y xmltree.NodeSet, eval PredEval, room int, err error) {
	y = StepCandidatesSet(k.Arena, k.Doc, step.Axis, step.Test, x)
	room = len(y)
	if err = k.Cancel.CheckN(len(x) + len(y)); err != nil || len(step.Preds) == 0 || len(y) == 0 {
		return y, nil, room, err
	}
	if !step.Positional() {
		y, err = k.Judge.JudgeStep(step.Preds, y)
		return y, nil, room, err
	}
	if eval, err = k.Judge.RankStep(step, y); err != nil || !RankedByColumn(step) {
		return y, eval, room, err
	}
	y, err = k.ranked(step, y, eval)
	return y, nil, room, err
}

// ranked keeps the members of y ⊆ T(t), candidates of a step that
// RankedByColumn decides, at which the step's predicates hold, into an
// array of its own (the judge's tables may hold y): the first predicate
// at each member's ⟨position, size⟩ read off the rank column — by its
// rank test, a verdict remembered at that ⟨cp, cs⟩, or eval — in one
// pass over y, the others, which read neither, by the judge on the
// survivors. No candidate list of a previous context node is built: a
// child has one parent, so its rank among the parent's candidates is its
// rank in the column.
func (k Forward) ranked(step *xpath.Step, y xmltree.NodeSet, eval PredEval) (xmltree.NodeSet, error) {
	named, ranks := k.Doc.NamedRanks(step.Test.Name)
	if err := k.Cancel.CheckN(len(named) + len(y)); err != nil {
		return nil, err
	}
	pred, seen := step.Preds[0], &PredVerdicts(k.Arena, step.Preds[:1])[0]
	keep, i := k.Arena.Nodes(len(y)), 0
	for _, n := range y {
		if named[i] != n { // y ⊆ named, in order: often its next member
			i = named.Seek(i, n)
		}
		r := ranks[i]
		i++
		ok := seen.rank != nil && seen.rank(float64(r.Pos), float64(r.Size))
		if seen.rank == nil {
			var err error
			if ok, err = seen.holds(pred, n, r, eval); err != nil {
				return nil, err
			}
		}
		if ok {
			keep = append(keep, n)
		}
	}
	if keep = k.Arena.Trim(keep); len(step.Preds) == 1 || len(keep) == 0 {
		return keep, nil
	}
	return k.Judge.JudgeStep(step.Preds[1:], keep)
}

// step applies one location step to X: of the candidates, those ready
// keeps, and for a positional step those that survive the ranking at one
// of the previous context nodes that can reach a candidate at all, X ∩
// χ⁻¹(Y), merged through the scratch accumulator in O(Σ|zᵢ|).
func (k Forward) step(step *xpath.Step, x xmltree.NodeSet) (xmltree.NodeSet, error) {
	y, eval, room, err := k.ready(step, x)
	if err != nil || eval == nil {
		return y, err
	}
	ix := k.Doc.Index()
	sc := ix.AcquireScratch()
	defer ix.ReleaseScratch(sc)
	loop := NewPairLoop(k.Arena, k.Doc, step, k.Cancel)
	buf := k.Arena.Nodes(room)
	for _, xn := range loop.Reaching(x, y, false) {
		z, err := loop.RankedCandidates(xn, buf, eval)
		if err != nil {
			return nil, err
		}
		sc.Acc.Add(z)
	}
	return sc.Acc.Result(k.Arena), nil
}

// Rows is step i of a path over X with each previous context node's
// survivors kept apart instead of merged: the relation {⟨x, z⟩ | z ∈
// S→[[χ::t[e]]]({x})} as CSR, row j — flat[off[j]:off[j+1]] — that of
// X's j-th member. Only the x ∈ X ∩ χ⁻¹(Y) are visited (PairLoop.Reaching),
// Y being the candidates that can still be selected; the rows of the
// others are empty. When steps[i] is the descendant-or-self::node() in
// front of child::name (NamedChildAfterDescendants), row j holds the
// nodes at or below xⱼ that have a name child: their stretch, inside xⱼ's
// subtree interval, of NamedChildParents(X).
func (k Forward) Rows(steps []*xpath.Step, i int, x xmltree.NodeSet) (flat xmltree.NodeSet, off []int32, err error) {
	if err := k.Cancel.CheckN(len(x)); err != nil {
		return nil, nil, err
	}
	off = append(k.Arena.Int32s().Make(len(x)+1), 0)
	ix := k.Doc.Index()
	if name, ok := NamedChildAfterDescendants(steps, i); ok {
		parents := NamedChildParents(k.Arena, k.Doc, x, name)
		for _, xn := range x {
			flat = k.Arena.Append(flat, parents.Range(xn, ix.SubtreeEnd(xn))...)
			off = append(off, int32(len(flat)))
		}
		return flat, off, nil
	}
	step := steps[i]
	y, eval, room, err := k.ready(step, x)
	if err != nil || len(y) == 0 {
		return nil, k.Arena.Int32s().Extend(off, len(x)), err
	}
	// keep marks the survivors of a judged step: a row is then its
	// context node's candidates among them.
	var keep *xmltree.Bitset
	if eval == nil && len(step.Preds) > 0 {
		sc := ix.AcquireScratch()
		defer ix.ReleaseScratch(sc)
		keep = &sc.Mark
		keep.AddSet(y)
		defer func() {
			for _, n := range y {
				keep.Remove(n)
			}
		}()
	}
	loop := NewPairLoop(k.Arena, k.Doc, step, k.Cancel)
	xs := loop.Reaching(x, y, keep != nil)
	buf := k.Arena.Nodes(room)
	flat = k.Arena.Nodes(len(y)) // rows of child::name are disjoint: room enough then
	for _, xn := range x {
		if len(xs) > 0 && xs[0] == xn {
			xs = xs[1:]
			var z xmltree.NodeSet
			if eval != nil {
				z, err = loop.RankedCandidates(xn, buf, eval)
			} else {
				z, err = loop.Candidates(xn, buf)
			}
			if err != nil {
				return nil, nil, err
			}
			if buf = z; keep != nil {
				z = keep.IntersectSet(z, z[:0])
			}
			flat = k.Arena.Append(flat, z...)
		}
		off = append(off, int32(len(flat)))
	}
	return k.Arena.Trim(flat), off, nil
}

// ComposeRow is row x of the composition R∘S of two relations (Table
// IV): ⋃{S(y) | y ∈ R(x)} for r = R(x), row(y) being S(y). A one-member
// r answers with S's row itself, aliased; a longer one is merged through
// acc into the arena ar.
func ComposeRow(ar *xmltree.Arena, acc *xmltree.Accumulator, r xmltree.NodeSet, row func(xmltree.NodeID) xmltree.NodeSet) xmltree.NodeSet {
	switch len(r) {
	case 0:
		return nil
	case 1:
		return row(r[0])
	}
	for _, y := range r {
		acc.Add(row(y))
	}
	return acc.Result(ar)
}

// Backward is S← for one evaluation over one document, as Forward is S→.
type Backward Forward

// Targets returns the nodes π can end in: T(t) of its last step — the
// label index's posting list for an exact element name, one scan of dom
// for any other test — or dom for a bare id(…) chain or a path without
// steps.
func (k Backward) Targets(e xpath.Expr) (xmltree.NodeSet, error) {
	if name, ok := targetName(e); ok {
		return k.Doc.Index().Named(name), nil
	}
	var last *xpath.Step
	if p, ok := e.(*xpath.Path); ok && len(p.Steps) > 0 {
		last = p.Steps[len(p.Steps)-1]
	}
	if err := k.Cancel.CheckN(k.Doc.Len()); err != nil {
		return nil, err
	}
	out := k.Arena.Nodes(k.Doc.Len())
	for i := 0; i < k.Doc.Len(); i++ {
		if y := xmltree.NodeID(i); last == nil || last.Test.Matches(k.Doc, last.Axis.PrincipalType(), y) {
			out = append(out, y)
		}
	}
	return k.Arena.Trim(out), nil
}

// targetName returns the element name of π's last step when T(t) of it
// is a label posting list: an exact element name test.
func targetName(e xpath.Expr) (string, bool) {
	p, ok := e.(*xpath.Path)
	if !ok || len(p.Steps) == 0 {
		return "", false
	}
	last := p.Steps[len(p.Steps)-1]
	return last.Test.Name, ExactElementName(last.Axis, last.Test)
}

// compareColumn returns the members y[i] of a posting list whose value
// column entry satisfies RelOp c, for a number or string c, into the
// arena ar: CompareStrval's verdicts — strings compared as strings by =
// and !=, every other pairing as numbers — read off the column.
func compareColumn(ar *xmltree.Arena, y xmltree.NodeSet, col *xmltree.Values, op xpath.BinOp, c semantics.Value) xmltree.NodeSet {
	hits := ar.Nodes(len(y))
	if c.Kind == xpath.TypeString && (op == xpath.OpEq || op == xpath.OpNeq) {
		eq := op == xpath.OpEq
		for i, s := range col.Str {
			if (s == c.Str) == eq {
				hits = append(hits, y[i])
			}
		}
		return ar.Trim(hits)
	}
	num := c.Num
	if c.Kind == xpath.TypeString {
		num = semantics.StringToNumber(c.Str)
	}
	for i, v := range col.Num {
		if semantics.CompareNumbers(op, v, num) {
			hits = append(hits, y[i])
		}
	}
	return ar.Trim(hits)
}

// Exists computes S←[[π]]: the nodes from which π selects anything.
func (k Backward) Exists(e xpath.Expr) (reach xmltree.NodeSet, everywhere bool, err error) {
	return k.walk(e, nil, targets)
}

// Compared computes E1[[π RelOp c]] for a constant c that is not a
// boolean: Reach(π, Y) for the targets y of π whose string-value
// satisfies RelOp c, each compared as the string it is.
func (k Backward) Compared(e xpath.Expr, op xpath.BinOp, c semantics.Value) (reach xmltree.NodeSet, everywhere bool, err error) {
	if name, ok := targetName(e); ok && (c.Kind == xpath.TypeNumber || c.Kind == xpath.TypeString) {
		y, col := k.Doc.NamedValues(name)
		if err := k.Cancel.CheckN(len(y)); err != nil || len(y) == 0 {
			return nil, false, err
		}
		return k.walk(e, compareColumn(k.Arena, y, col, op, c), typed)
	}
	y, err := k.Targets(e)
	if err == nil {
		err = k.Cancel.CheckN(len(y))
	}
	if err != nil {
		return nil, false, err
	}
	hits := k.Arena.Nodes(len(y))
	for _, n := range y {
		if semantics.CompareStrval(k.Doc, op, k.Doc.StringValue(n), c) {
			hits = append(hits, n)
		}
	}
	return k.walk(e, k.Arena.Trim(hits), typed)
}

// Reach computes {x | S→[[π]]({x}) ∩ Y ≠ ∅}.
func (k Backward) Reach(e xpath.Expr, y xmltree.NodeSet) (reach xmltree.NodeSet, everywhere bool, err error) {
	return k.walk(e, y, given)
}

// seed says what a walk's Y is to the last step of a path.
type seed uint8

const (
	given   seed = iota // any nodes: the step keeps those in T(t) (Reach)
	targets             // each union branch's own Targets (Exists)
	typed               // a subset of Targets(π) the walk owns, π not a union (Compared)
)

// walk is Reach from a Y that is as its seed says.
func (k Backward) walk(e xpath.Expr, y xmltree.NodeSet, from seed) (xmltree.NodeSet, bool, error) {
	if u, ok := e.(*xpath.Binary); ok && u.Op == xpath.OpUnion {
		if from == typed {
			from = given // Targets(π1 | π2) is not a branch's T(t)
		}
		l, all, err := k.walk(u.Left, y, from)
		if err != nil || all {
			return nil, all, err
		}
		r, all, err := k.walk(u.Right, y, from)
		if err != nil || all {
			return nil, all, err
		}
		return k.Arena.Union(l, r), false, nil
	}
	if from == targets {
		var err error
		if y, err = k.Targets(e); err != nil {
			return nil, false, err
		}
	}
	if len(y) == 0 {
		return nil, false, nil
	}
	switch p := e.(type) {
	case *xpath.Call: // a bare id(…) chain
		return k.idHead(p, y)
	case *xpath.Path:
		for i, last := len(p.Steps)-1, from; i >= 0; i, last = i-1, given {
			var err error
			if y, err = k.step(p.Steps[i], y, last); err != nil || len(y) == 0 {
				return nil, false, err
			}
		}
		switch {
		case p.Filter != nil:
			return k.idHead(p.Filter, y)
		case p.Absolute:
			return nil, y.Contains(k.Doc.RootID()), nil
		}
		return y, false, nil
	}
	return nil, false, fmt.Errorf("evalutil: cannot propagate backwards through %s", e)
}

// step inverts one location step: χ⁻¹ of the members of Y ∩ T(t) the
// judge keeps. Only a given Y is filtered by the test; Targets may be
// the index's posting list, copied when the judge has predicates to
// filter it by in place.
func (k Backward) step(step *xpath.Step, y xmltree.NodeSet, from seed) (xmltree.NodeSet, error) {
	if err := k.Cancel.CheckN(len(y)); err != nil {
		return nil, err
	}
	switch {
	case from == given:
		y = FilterTest(k.Arena, k.Doc, step.Axis, step.Test, y)
	case from == targets && len(step.Preds) > 0 && ExactElementName(step.Axis, step.Test):
		y = k.Arena.Clone(y)
	}
	if len(y) == 0 {
		return nil, nil
	}
	if step.Positional() {
		return k.sources(step, y)
	}
	out, err := k.Judge.JudgeStep(step.Preds, y)
	if err != nil || len(out) == 0 {
		return nil, err
	}
	if err := k.Cancel.CheckN(len(out)); err != nil {
		return nil, err
	}
	return axes.EvalInverse(k.Arena, k.Doc, step.Axis, out), nil
}

// sources inverts a step whose predicates read position() or last(), as
// the appendix's pseudocode does: a loop over the pairs of previous and
// current context node, over the previous context nodes χ⁻¹(yt) only.
// Positions refer to the unrestricted step result, so the predicates are
// readied over all the candidates of those nodes, not only over yt. A
// survivor is a node one of whose ranked candidates lies in yt; the
// inverse image is compacted in place.
func (k Backward) sources(step *xpath.Step, yt xmltree.NodeSet) (xmltree.NodeSet, error) {
	if RankedByColumn(step) {
		// The rank column knows every member's ⟨position, size⟩, so only
		// yt's members are judged, and only at them is anything readied.
		eval, err := k.Judge.RankStep(step, yt)
		if err == nil {
			yt, err = Forward(k).ranked(step, yt, eval)
		}
		if err != nil || len(yt) == 0 {
			return nil, err
		}
		return axes.EvalInverse(k.Arena, k.Doc, step.Axis, yt), nil
	}
	xs := axes.EvalInverse(k.Arena, k.Doc, step.Axis, yt)
	if err := k.Cancel.CheckN(len(xs)); err != nil {
		return nil, err
	}
	y := StepCandidatesSet(k.Arena, k.Doc, step.Axis, step.Test, xs)
	eval, err := k.Judge.RankStep(step, y)
	if err != nil {
		return nil, err
	}
	loop := NewPairLoop(k.Arena, k.Doc, step, k.Cancel)
	buf := k.Arena.Nodes(len(y)) // room for any x's candidates, all among y
	n := 0
	for _, x := range xs {
		z, err := loop.RankedCandidates(x, buf, eval)
		if err != nil {
			return nil, err
		}
		if z.Intersects(yt) {
			xs[n] = x
			n++
		}
	}
	return xs[:n], nil
}

// idHead propagates Y through an id(…) head: through id⁻¹ and on into
// the argument (Theorem 10.7). A context-independent argument makes the
// whole path so: it reaches Y from everywhere iff the head's referents,
// the head evaluated from the root, meet Y.
func (k Backward) idHead(e xpath.Expr, y xmltree.NodeSet) (xmltree.NodeSet, bool, error) {
	c, ok := e.(*xpath.Call)
	if !ok || c.Name != "id" || len(c.Args) != 1 {
		return nil, false, fmt.Errorf("evalutil: unsupported path head %s", e)
	}
	if xpath.RelevantContext(c.Args[0]) == 0 {
		ids, err := k.Judge.Head(c, append(k.Arena.Nodes(1), k.Doc.RootID()))
		return nil, err == nil && ids.Intersects(y), err
	}
	if err := k.Cancel.CheckN(len(y)); err != nil {
		return nil, false, err
	}
	return k.walk(c.Args[0], axes.EvalIDInverse(k.Arena, k.Doc, y), given)
}
