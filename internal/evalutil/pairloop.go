package evalutil

import (
	"math"

	"repro/internal/axes"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Helpers for the loops over ⟨previous, current⟩ context-node pairs that
// the context-value-table engines (MinContext, OptMinContext) run for
// predicates depending on position() or last(): which previous context
// nodes are worth visiting, one node's candidate list without a fresh
// allocation, and the rank-and-filter pass over it with its verdicts
// per ⟨position, size⟩. Both packages share this one copy.

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
// included where the axis can start from them. A pair loop need not
// visit the others, their candidate lists are empty — for
// //open_auction/bidder[1] that is the auctions that have a bidder. A
// single context node is returned as is, its one candidate computation
// being cheaper than the inverse.
func ContextsReaching(d *xmltree.Document, a axes.Axis, xs, ys xmltree.NodeSet) xmltree.NodeSet {
	if len(xs) <= 1 {
		return xs
	}
	return xs.Intersect(axes.EvalInverse(d, a, ys))
}

// NamedChildParents returns descendant-or-self(X) ∩ child⁻¹(T(name)):
// the nodes at or below X that have a child element called name, in
// document order. They are the only previous context nodes the child
// step of //name[p] has candidates at, and they are found from name's
// posting list — Y = descendant::name(X), then parent(Y) — without
// materializing descendant-or-self::node(). That serves the pair
// xpath.Optimize must leave unfused because p reads position() or
// last().
func NamedChildParents(d *xmltree.Document, xs xmltree.NodeSet, name string) xmltree.NodeSet {
	return axes.Eval(d, axes.Parent, axes.EvalNamed(d, axes.Descendant, xs, name))
}

// PredEval evaluates a predicate at one context ⟨node, position, size⟩;
// MinContext reads its tables, OptMinContext its bottom-up results.
type PredEval func(pred xpath.Expr, c semantics.Context) (semantics.Value, error)

// Verdicts decides a predicate whose relevant context lacks cn (Section
// 8.2) — [1], [last()], [position() mod 2 = 0] — per ⟨cp, cs⟩, not per
// ⟨cn, cp, cs⟩: by its rank test, compiled once per step, when it has
// one, else evaluated once per position and size and the verdict reused
// for every previous context node of the loop. A nil *Verdicts remembers
// nothing.
type Verdicts struct {
	rank   func(pos, size float64) bool
	bySize map[int][]verdict // row[cp-1] for context size cs
}

type verdict uint8

const (
	undecided verdict = iota
	holds
	fails
)

// PredVerdicts returns one Verdicts per predicate, nil for those that
// read the context node and must be evaluated at every candidate.
func PredVerdicts(preds []xpath.Expr) []*Verdicts {
	out := make([]*Verdicts, len(preds))
	for i, p := range preds {
		if xpath.RelevantContext(p).Has(xpath.RelevNode) {
			continue
		}
		if rank, ok := rankTest(p); ok {
			out[i] = &Verdicts{rank: rank}
		} else {
			out[i] = &Verdicts{bySize: map[int][]verdict{}}
		}
	}
	return out
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
// shares between previous context nodes x: the step, the predicate
// evaluator, the per-⟨cp, cs⟩ verdicts of its predicates and, for
// child::name, the name's posting list with the place the last x left
// off in it — callers visit the previous context nodes in document
// order, so the list is resolved once and walked once instead of being
// looked up and binary-searched per node.
type PairLoop struct {
	d      *xmltree.Document
	step   *xpath.Step
	cancel *Canceller
	eval   PredEval
	seen   []*Verdicts

	named   xmltree.NodeSet // child::name's posting list: shared with the index, only read
	nextPos int             // first member of named behind the last x
}

// NewPairLoop prepares the pair loop of a step.
func NewPairLoop(d *xmltree.Document, step *xpath.Step, cancel *Canceller, eval PredEval) *PairLoop {
	l := &PairLoop{d: d, step: step, cancel: cancel, eval: eval, seen: PredVerdicts(step.Preds)}
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
	return ContextsReaching(l.d, l.step.Axis, xs, ys)
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
// step's predicates in turn, each predicate seeing the survivors of the
// one before it at their positions. The result reuses buf's array; hand
// it back as buf for the next x.
func (l *PairLoop) RankedCandidates(x xmltree.NodeID, buf xmltree.NodeSet) (xmltree.NodeSet, error) {
	z, err := l.Candidates(x, buf)
	if err != nil {
		return nil, err
	}
	for i, pred := range l.step.Preds {
		if err := l.cancel.CheckN(len(z) + 1); err != nil {
			return nil, err
		}
		if z, err = FilterPositions(l.step.Axis, pred, z, z[:0], l.eval, l.seen[i]); err != nil {
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
// owns z. With seen non-nil the predicate does not read the context
// node: its rank test decides it, or a ⟨cp, cs⟩ it has been decided at
// is not evaluated again.
func FilterPositions(a axes.Axis, pred xpath.Expr, z, dst xmltree.NodeSet, eval PredEval, seen *Verdicts) (xmltree.NodeSet, error) {
	size, reverse := len(z), a.IsReverse()
	if size == 0 {
		return dst, nil
	}
	var rank func(p, s float64) bool
	var row []verdict
	if seen != nil {
		if rank = seen.rank; rank == nil {
			if row = seen.bySize[size]; row == nil {
				row = make([]verdict, size)
				seen.bySize[size] = row
			}
		}
	}
	for j, zn := range z {
		pos := j + 1
		if reverse {
			pos = size - j
		}
		switch {
		case rank != nil:
			if rank(float64(pos), float64(size)) {
				dst = append(dst, zn)
			}
			continue
		case row != nil && row[pos-1] != undecided:
			if row[pos-1] == holds {
				dst = append(dst, zn)
			}
			continue
		}
		v, err := eval(pred, semantics.Context{Node: zn, Pos: pos, Size: size})
		if err != nil {
			return nil, err
		}
		keep := semantics.ToBoolean(v)
		if keep {
			dst = append(dst, zn)
		}
		if row != nil {
			row[pos-1] = fails
			if keep {
				row[pos-1] = holds
			}
		}
	}
	return dst, nil
}
