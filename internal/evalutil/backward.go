package evalutil

import (
	"fmt"

	"repro/internal/axes"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Backward propagation, written once. Core XPath's S← (Section 10.1),
// its XPatterns extension through id heads (Section 10.2, Lemma 10.6:
// π1/id(π2)/π3 is π1/π2/id/π3, so an id head is one more invertible
// step) and OptMinContext's propagate_path_backwards (Section 11,
// Appendix A) are the same walk over a location path π and a node set Y:
//
//	Reach(π, Y) = {x | S→[[π]]({x}) ∩ Y ≠ ∅}
//	Reach(χ::t[e]/π, Y) = χ⁻¹(judge(χ::t[e], Reach(π, Y) ∩ T(t)))
//	Reach(id(π1)/π, Y)  = Reach(π1, id⁻¹(Reach(π, Y)))
//	Reach(π1 | π2, Y)   = Reach(π1, Y) ∪ Reach(π2, Y)
//	Exists(π)           = Reach(π, Targets(π))        — S←[[π]], E1[[π]]
//
// with only judge — how a step's predicates are decided — differing
// between the languages (StepJudge).
//
// Contract. The kernel never writes to the Y it is given: the first
// thing a step does is copy Y ∩ T(t) (FilterTest), and that copy is what
// the judge owns and may filter in place. Targets may return a label
// posting list of the document's index — shared between evaluations,
// read-only. An empty Y is empty; no start set is ever implied. A path
// that does not start at its context node — absolute, or headed by a
// constant id(…) — reaches Y from every node or from none: that verdict
// is the everywhere flag, returned with a nil set instead of an
// enumerated dom. Every document-sized operation bills Cancel before it
// runs.

// StepJudge is what a language brings to the walk.
type StepJudge interface {
	// JudgeStep decides the predicates of step over yt ⊆ T(t), which it
	// owns. It returns the members at which they all hold — the kernel
	// then takes χ⁻¹ — or, with sources set, the previous context nodes
	// themselves: predicates reading position() or last() are decided
	// per ⟨previous, current⟩ pair, which only the judge can loop over.
	JudgeStep(step *xpath.Step, yt xmltree.NodeSet) (out xmltree.NodeSet, sources bool, err error)
	// ConstantIDs evaluates an id(…) head whose argument depends on no
	// context: a constant, an absolute path, an id(…) of either.
	ConstantIDs(head *xpath.Call) (xmltree.NodeSet, error)
}

// Backward is the kernel for one evaluation over one document: three
// words an evaluation builds where it needs them.
type Backward struct {
	Doc    *xmltree.Document
	Cancel *Canceller
	Judge  StepJudge
}

// Targets returns the nodes π can end in: T(t) of its last step — the
// label index's posting list for an exact element name, one scan of dom
// for any other test — or dom for a bare id(…) chain or a path without
// steps.
func (k Backward) Targets(e xpath.Expr) (xmltree.NodeSet, error) {
	var last *xpath.Step
	if p, ok := e.(*xpath.Path); ok && len(p.Steps) > 0 {
		last = p.Steps[len(p.Steps)-1]
		if ExactElementName(last.Axis, last.Test) {
			return k.Doc.Index().Named(last.Test.Name), nil
		}
	}
	if err := k.Cancel.CheckN(k.Doc.Len()); err != nil {
		return nil, err
	}
	var out xmltree.NodeSet
	if last == nil {
		out = make(xmltree.NodeSet, 0, k.Doc.Len())
	}
	for i := 0; i < k.Doc.Len(); i++ {
		if y := xmltree.NodeID(i); last == nil || last.Test.Matches(k.Doc, last.Axis.PrincipalType(), y) {
			out = append(out, y)
		}
	}
	return out, nil
}

// Exists computes S←[[π]]: the nodes from which π selects anything.
func (k Backward) Exists(e xpath.Expr) (reach xmltree.NodeSet, everywhere bool, err error) {
	return k.walk(e, nil, true)
}

// Reach computes {x | S→[[π]]({x}) ∩ Y ≠ ∅}.
func (k Backward) Reach(e xpath.Expr, y xmltree.NodeSet) (reach xmltree.NodeSet, everywhere bool, err error) {
	return k.walk(e, y, false)
}

// walk is Reach, or Exists when seed is set: every union branch then
// starts from its own targets.
func (k Backward) walk(e xpath.Expr, y xmltree.NodeSet, seed bool) (xmltree.NodeSet, bool, error) {
	if u, ok := e.(*xpath.Binary); ok && u.Op == xpath.OpUnion {
		l, all, err := k.walk(u.Left, y, seed)
		if err != nil || all {
			return nil, all, err
		}
		r, all, err := k.walk(u.Right, y, seed)
		if err != nil || all {
			return nil, all, err
		}
		return l.Union(r), false, nil
	}
	if seed {
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
		for i := len(p.Steps) - 1; i >= 0; i-- {
			var err error
			if y, err = k.step(p.Steps[i], y, seed && i == len(p.Steps)-1); err != nil || len(y) == 0 {
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
// judge keeps. A seeded Y is T(t) already: the index's posting list,
// copied for the judge, or this walk's own scan of dom.
func (k Backward) step(step *xpath.Step, y xmltree.NodeSet, seeded bool) (xmltree.NodeSet, error) {
	if err := k.Cancel.CheckN(len(y)); err != nil {
		return nil, err
	}
	switch {
	case !seeded:
		y = FilterTest(k.Doc, step.Axis, step.Test, y)
	case ExactElementName(step.Axis, step.Test):
		y = y.Clone()
	}
	if len(y) == 0 {
		return nil, nil
	}
	out, sources, err := k.Judge.JudgeStep(step, y)
	if err != nil || sources || len(out) == 0 {
		return out, err
	}
	if err := k.Cancel.CheckN(len(out)); err != nil {
		return nil, err
	}
	return axes.EvalInverse(k.Doc, step.Axis, out), nil
}

// idHead propagates Y through an id(…) head: through id⁻¹ and on into
// the argument (Theorem 10.7). A context-independent argument makes the
// whole path so: it reaches Y from everywhere iff the head's referents
// meet Y.
func (k Backward) idHead(e xpath.Expr, y xmltree.NodeSet) (xmltree.NodeSet, bool, error) {
	c, ok := e.(*xpath.Call)
	if !ok || c.Name != "id" || len(c.Args) != 1 {
		return nil, false, fmt.Errorf("evalutil: unsupported path head %s", e)
	}
	if xpath.RelevantContext(c.Args[0]) == 0 {
		ids, err := k.Judge.ConstantIDs(c)
		return nil, err == nil && ids.Intersects(y), err
	}
	if err := k.Cancel.CheckN(len(y)); err != nil {
		return nil, false, err
	}
	return k.walk(c.Args[0], axes.EvalIDInverse(k.Doc, y), false)
}
