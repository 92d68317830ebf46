package evalutil

import (
	"math"

	"repro/internal/axes"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Helpers for the loops over ⟨previous, current⟩ context-node pairs that
// predicates depending on position() or last() need: which previous
// context nodes are worth visiting, one node's candidate list without a
// fresh allocation, and the rank-and-filter pass over it with its
// verdicts per ⟨position, size⟩. The two propagation kernels
// (propagate.go), the step relation Forward.Rows among them, are their
// callers.

// StepCandidatesInto is StepCandidates appending into dst[:0], so a loop
// over previous context nodes reuses one buffer. For child::name the
// candidates are the name's posting-list slice over x's subtree interval
// restricted to x's direct children (axes.EvalNamedInto), already in
// document order: position() is the rank in that scan and last() its
// length, with nothing sorted or intersected.
func StepCandidatesInto(d *xmltree.Document, a axes.Axis, t xpath.NodeTest, x xmltree.NodeID, dst xmltree.NodeSet) xmltree.NodeSet {
	one := [1]xmltree.NodeID{x}
	if ExactElementName(a, t) {
		return axes.EvalNamedInto(d, a, one[:], t.Name, dst)
	}
	return filterOwned(d, a, t, axes.EvalInto(d, a, one[:], dst))
}

// ContextsReaching restricts the previous context nodes xs of a step
// χ::t to those that can have a candidate in ys: xs ∩ χ⁻¹(ys), the exact
// preimage (axes.EvalInverse), attribute and namespace context nodes
// included where the axis can start from them, into the arena ar. A pair
// loop need not visit the others, their candidate lists are empty — for
// //open_auction/bidder[1] that is the auctions that have a bidder. A
// single context node is returned as is, its one candidate computation
// being cheaper than the inverse.
func ContextsReaching(ar *xmltree.Arena, d *xmltree.Document, a axes.Axis, xs, ys xmltree.NodeSet) xmltree.NodeSet {
	if len(xs) <= 1 {
		return xs
	}
	return ar.Intersect(xs, axes.EvalInverse(ar, d, a, ys))
}

// NamedChildParents returns descendant-or-self(X) ∩ child⁻¹(T(name)):
// the nodes at or below X that have a child element called name, in
// document order, into the arena ar. They are the only previous context
// nodes the child step of //name[p] has candidates at, and they are found
// from name's posting list — Y = descendant::name(X), then parent(Y) —
// without materializing descendant-or-self::node(). That serves the pair
// xpath.Optimize must leave unfused because p reads position() or
// last().
func NamedChildParents(ar *xmltree.Arena, d *xmltree.Document, xs xmltree.NodeSet, name string) xmltree.NodeSet {
	return axes.EvalIn(ar, d, axes.Parent, axes.EvalNamedIn(ar, d, axes.Descendant, xs, name))
}

// NamedChildAfterDescendants reports whether steps[i] is a
// descendant-or-self::node() step without predicates followed by a
// child::name step — //name where xpath.Optimize could not fuse the pair
// because a predicate of name reads position() or last() — and returns
// the name. The loops over steps then replace the first step by
// NamedChildParents.
func NamedChildAfterDescendants(steps []*xpath.Step, i int) (string, bool) {
	if i+1 >= len(steps) {
		return "", false
	}
	next := steps[i+1]
	if !steps[i].IsBare(axes.DescendantOrSelf) || next.Axis != axes.Child ||
		!ExactElementName(next.Axis, next.Test) {
		return "", false
	}
	return next.Test.Name, true
}

// PredEval evaluates a predicate at one context ⟨node, position, size⟩;
// MinContext reads its tables, OptMinContext its bottom-up results.
type PredEval func(pred xpath.Expr, c semantics.Context) (semantics.Value, error)

// Verdicts decides a predicate whose relevant context lacks cn (Section
// 8.2) — [1], [last()], [position() mod 2 = 0] — per ⟨cp, cs⟩, not per
// ⟨cn, cp, cs⟩: by its rank test, compiled once per query, when it has
// one, else evaluated once per position and size and the verdict reused
// for every previous context node of the loop. The zero Verdicts, like a
// nil one, remembers nothing: the predicate reads the context node.
type Verdicts struct {
	rank func(pos, size float64) bool
	memo *run    // without a rank test: the run whose memory holds the verdicts
	rows []int32 // by context size cs: 1 + the row's first index in vals
	vals []verdict
}

type verdict uint8

const (
	undecided verdict = iota
	holds
	fails
)

// PredVerdicts returns one Verdicts per predicate, in the arena ar; the
// zero one for those that read the context node and must be evaluated at
// every candidate.
func PredVerdicts(ar *xmltree.Arena, preds []xpath.Expr) []Verdicts {
	st := xmltree.Keep[run](ar)
	out := st.verdicts.Zeros(len(preds))
	for i, p := range preds {
		if xpath.RelevantContext(p).Has(xpath.RelevNode) {
			continue
		}
		if out[i].rank = xpath.Memo(p, rankOf); out[i].rank == nil {
			out[i].memo = st
		}
	}
	return out
}

// row returns the verdicts at context size size, by position, undecided
// where the predicate has not been evaluated yet.
func (v *Verdicts) row(size int) []verdict {
	if size >= len(v.rows) {
		v.rows = v.memo.rows.Extend(v.rows, size+1-len(v.rows))
	}
	if v.rows[size] == 0 {
		v.rows[size] = int32(len(v.vals)) + 1
		v.vals = v.memo.memo.Extend(v.vals, size)
	}
	first := int(v.rows[size]) - 1
	return v.vals[first : first+size]
}

// holds decides pred, which has no rank test, at the context ⟨n, r.Pos,
// r.Size⟩: by the verdict remembered at ⟨cp, cs⟩, or by eval, whose
// verdict is then remembered where the predicate does not read n.
func (v *Verdicts) holds(pred xpath.Expr, n xmltree.NodeID, r xmltree.Rank, eval PredEval) (bool, error) {
	var seen *verdict
	if v.memo != nil {
		if seen = &v.row(int(r.Size))[r.Pos-1]; *seen != undecided {
			return *seen == holds, nil
		}
	}
	val, err := eval(pred, semantics.Context{Node: n, Pos: int(r.Pos), Size: int(r.Size)})
	if err != nil {
		return false, err
	}
	keep := semantics.ToBoolean(val)
	if seen != nil {
		*seen = fails
		if keep {
			*seen = holds
		}
	}
	return keep, nil
}

// RankedByColumn reports whether a step's positional predicates are
// decided off the label index's rank column (Forward.ranked): a
// child::name step whose first predicate, and only that one, reads
// position() or last(). Every other positional step takes the pair
// loop.
func RankedByColumn(step *xpath.Step) bool {
	if step.Axis != axes.Child || !ExactElementName(step.Axis, step.Test) || len(step.Preds) == 0 ||
		!readsRank(step.Preds[0]) {
		return false
	}
	for _, p := range step.Preds[1:] {
		if readsRank(p) {
			return false
		}
	}
	return true
}

// readsRank reports whether a predicate reads position() or last().
func readsRank(p xpath.Expr) bool {
	return xpath.RelevantContext(p)&(xpath.RelevPos|xpath.RelevSize) != 0
}

// rankOf is a predicate's rank test, nil if it has none: what xpath.Memo
// keeps with the query, so that a test is compiled once.
func rankOf(e xpath.Expr) func(p, s float64) bool {
	if test, ok := rankTest(e); ok {
		return test
	}
	return nil
}

// rankTest compiles a predicate built only of position(), last(), number
// literals, unary minus, + - * div mod, comparisons, and, or, not(),
// boolean(), true() and false() to a test over ⟨cp, cs⟩ that converts as
// Table II does and computes with semantics.Arith and CompareNumbers, bit
// for bit the interpreter's values; ok is false for any other predicate.
func rankTest(e xpath.Expr) (test func(p, s float64) bool, ok bool) {
	switch x := e.(type) {
	case *xpath.Call:
		switch x.Name {
		case "true", "false":
			v := x.Name == "true"
			return func(_, _ float64) bool { return v }, true
		case "not":
			f, ok := rankTest(x.Args[0])
			return func(p, s float64) bool { return !f(p, s) }, ok
		case "boolean":
			return rankTest(x.Args[0])
		}
	case *xpath.Binary:
		op := x.Op
		switch {
		case op == xpath.OpAnd || op == xpath.OpOr:
			l, lok := rankTest(x.Left)
			r, rok := rankTest(x.Right)
			if op == xpath.OpOr {
				return func(p, s float64) bool { return l(p, s) || r(p, s) }, lok && rok
			}
			return func(p, s float64) bool { return l(p, s) && r(p, s) }, lok && rok
		case op.IsRelOp():
			// = and != with a boolean operand compare booleans; all else
			// compares numbers (semantics.Compare, scalar × scalar).
			asBool := (op == xpath.OpEq || op == xpath.OpNeq) &&
				(x.Left.Type() == xpath.TypeBoolean || x.Right.Type() == xpath.TypeBoolean)
			l, lok := rankNumber(x.Left, asBool)
			r, rok := rankNumber(x.Right, asBool)
			return func(p, s float64) bool { return semantics.CompareNumbers(op, l(p, s), r(p, s)) }, lok && rok
		}
	}
	if e.Type() != xpath.TypeNumber {
		return nil, false
	}
	f, ok := rankNumber(e, false)
	return func(p, s float64) bool { v := f(p, s); return v != 0 && !math.IsNaN(v) }, ok
}

// rankNumber is rankTest's number half; a boolean (or with asBool any e)
// is taken as a boolean, 1 or 0.
func rankNumber(e xpath.Expr, asBool bool) (f func(p, s float64) float64, ok bool) {
	if asBool || e.Type() == xpath.TypeBoolean {
		b, ok := rankTest(e)
		return func(p, s float64) float64 {
			if b(p, s) {
				return 1
			}
			return 0
		}, ok
	}
	switch x := e.(type) {
	case *xpath.Number:
		v := x.Val
		return func(_, _ float64) float64 { return v }, true
	case *xpath.Negate:
		f, ok := rankNumber(x.X, false)
		return func(p, s float64) float64 { return -f(p, s) }, ok
	case *xpath.Call:
		switch x.Name {
		case "position":
			return func(p, _ float64) float64 { return p }, true
		case "last":
			return func(_, s float64) float64 { return s }, true
		}
	case *xpath.Binary:
		if op := x.Op; op.IsArith() {
			l, lok := rankNumber(x.Left, false)
			r, rok := rankNumber(x.Right, false)
			return func(p, s float64) float64 { return semantics.Arith(op, l(p, s), r(p, s)) }, lok && rok
		}
	}
	return nil, false
}

// PairLoop is what the loop over pairs ⟨x, z⟩ of one location step
// shares between previous context nodes x: the step, the per-⟨cp, cs⟩
// verdicts of its predicates and, for
// child::name, the name's posting list with the place the last x left
// off in it — callers visit the previous context nodes in document
// order, so the list is resolved once and walked once instead of being
// looked up and binary-searched per node.
type PairLoop struct {
	ar     *xmltree.Arena
	d      *xmltree.Document
	step   *xpath.Step
	cancel *Canceller
	seen   []Verdicts

	named   xmltree.NodeSet // child::name's posting list: shared with the index, only read
	nextPos int             // first member of named behind the last x
}

// NewPairLoop prepares the pair loop of a step in the arena ar.
func NewPairLoop(ar *xmltree.Arena, d *xmltree.Document, step *xpath.Step, cancel *Canceller) PairLoop {
	l := PairLoop{ar: ar, d: d, step: step, cancel: cancel, seen: PredVerdicts(ar, step.Preds)}
	if step.Axis == axes.Child && ExactElementName(step.Axis, step.Test) {
		l.named = d.Index().Named(step.Test.Name)
	}
	return l
}

// Reaching is ContextsReaching for the loop's step: the members of xs
// worth a visit, given the candidates ys that can still be selected. For
// child::name with ys all of the step's candidates that is xs as it
// stands: a node without a name child costs Candidates one Seek, less
// than its share of the inverse axis image
// (count(//open_auction[count(bidder) > 2]), 500 auctions: 94 µs and 60
// KB against 146 µs and 75 KB). Once a predicate has narrowed ys the
// inverse pays again — [count(bidder[increase > 100000]) > 0], no
// candidate left: 96 µs against 142.
func (l *PairLoop) Reaching(xs, ys xmltree.NodeSet, narrowed bool) xmltree.NodeSet {
	if l.named != nil && !narrowed {
		return xs
	}
	return ContextsReaching(l.ar, l.d, l.step.Axis, xs, ys)
}

// Candidates is StepCandidatesInto for the loop's step at the previous
// context node x, into buf.
func (l *PairLoop) Candidates(x xmltree.NodeID, buf xmltree.NodeSet) (xmltree.NodeSet, error) {
	if err := l.cancel.Check(); err != nil {
		return nil, err
	}
	if l.named == nil { // not child::name, or no such element: nothing to walk
		return StepCandidatesInto(l.d, l.step.Axis, l.step.Test, x, buf), nil
	}
	if l.nextPos > 0 && l.named[l.nextPos-1] > x {
		l.nextPos = 0 // x is not behind its predecessor: start over
	}
	buf, l.nextPos = axes.NamedChildren(l.d, l.named, l.nextPos, x, buf[:0])
	return buf, nil
}

// RankedCandidates is the body of the loop: the candidates of one
// previous context node x (Candidates, into buf), filtered by the
// step's predicates in turn — evaluated by eval where no verdict
// decides them — each predicate seeing the survivors of the one before
// it at their positions. The result reuses buf's array; hand it back as
// buf for the next x.
func (l *PairLoop) RankedCandidates(x xmltree.NodeID, buf xmltree.NodeSet, eval PredEval) (xmltree.NodeSet, error) {
	z, err := l.Candidates(x, buf)
	if err != nil {
		return nil, err
	}
	for i, pred := range l.step.Preds {
		if err := l.cancel.CheckN(len(z) + 1); err != nil {
			return nil, err
		}
		if z, err = FilterPositions(l.step.Axis, pred, z, z[:0], eval, &l.seen[i]); err != nil {
			return nil, err
		}
	}
	return z, nil
}

// FilterPositions evaluates one predicate over the candidate list z of a
// single previous context node (document order), at each member's
// position with respect to <doc,χ — counted from the end for reverse
// axes — with the list's length as context size. Survivors are appended
// to dst in document order; dst = z[:0] filters in place when the caller
// owns z. With seen the predicate's Verdicts: its rank test decides it,
// or a ⟨cp, cs⟩ it has been decided at is not evaluated again.
func FilterPositions(a axes.Axis, pred xpath.Expr, z, dst xmltree.NodeSet, eval PredEval, seen *Verdicts) (xmltree.NodeSet, error) {
	size, reverse := len(z), a.IsReverse()
	if seen == nil {
		seen = &Verdicts{}
	}
	for j, zn := range z {
		r := xmltree.Rank{Pos: int32(j + 1), Size: int32(size)}
		if reverse {
			r.Pos = int32(size - j)
		}
		keep := seen.rank != nil && seen.rank(float64(r.Pos), float64(r.Size))
		if seen.rank == nil {
			var err error
			if keep, err = seen.holds(pred, zn, r, eval); err != nil {
				return nil, err
			}
		}
		if keep {
			dst = append(dst, zn)
		}
	}
	return dst, nil
}
