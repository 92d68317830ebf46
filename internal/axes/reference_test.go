package axes

// This file keeps the literal worklist-closure evaluator of Algorithm
// 3.2 — the implementation eval.go replaced with subtree-interval
// arithmetic — alive as an executable specification. The property tests
// in property_test.go assert that the indexed evaluator returns exactly
// the same node sets on randomized documents.

import "repro/internal/xmltree"

// refPrim identifies one of the four primitive tree relations of
// Section 3: firstchild, nextsibling, and their inverses.
type refPrim uint8

const (
	refFirstchild refPrim = iota
	refNextsibling
	refFirstchildInv
	refNextsiblingInv
)

func (p refPrim) apply(d *xmltree.Document, x xmltree.NodeID) xmltree.NodeID {
	switch p {
	case refFirstchild:
		return d.FirstChild(x)
	case refNextsibling:
		return d.NextSibling(x)
	case refFirstchildInv:
		return d.FirstChildInv(x)
	case refNextsiblingInv:
		return d.PrevSibling(x)
	default:
		panic("axes: bad primitive")
	}
}

// refEvaluator realizes Algorithm 3.2 with a visited bitmap sized to
// the document, as in the paper's "direct-access version of S′
// maintained in parallel to its list representation".
type refEvaluator struct {
	d       *xmltree.Document
	visited []bool
}

func newRefEvaluator(d *xmltree.Document) *refEvaluator {
	return &refEvaluator{d: d, visited: make([]bool, d.Len())}
}

// step is eval_R(S) = {R(x) | x ∈ S} for a primitive relation R.
func (e *refEvaluator) step(p refPrim, s []xmltree.NodeID) []xmltree.NodeID {
	out := make([]xmltree.NodeID, 0, len(s))
	for _, x := range s {
		if y := p.apply(e.d, x); y != xmltree.NilNode {
			out = append(out, y)
		}
	}
	return out
}

// closure is eval_(R1∪···∪Rn)*(S): the worklist computation of all
// nodes reachable from S in zero or more steps.
func (e *refEvaluator) closure(ps []refPrim, s []xmltree.NodeID) []xmltree.NodeID {
	work := make([]xmltree.NodeID, 0, len(s)*2)
	for _, x := range s {
		if !e.visited[x] {
			e.visited[x] = true
			work = append(work, x)
		}
	}
	for i := 0; i < len(work); i++ {
		x := work[i]
		for _, p := range ps {
			if y := p.apply(e.d, x); y != xmltree.NilNode && !e.visited[y] {
				e.visited[y] = true
				work = append(work, y)
			}
		}
	}
	for _, x := range work {
		e.visited[x] = false // reset for reuse
	}
	return work
}

// untyped evaluates the abstract axis function χ₀ of Section 3,
// composing the regular expressions of Table I.
func (e *refEvaluator) untyped(a Axis, s []xmltree.NodeID) []xmltree.NodeID {
	switch a {
	case Self:
		return s
	case Child, AttributeAxis, NamespaceAxis:
		return e.closure([]refPrim{refNextsibling}, e.step(refFirstchild, s))
	case Parent:
		return e.step(refFirstchildInv, e.closure([]refPrim{refNextsiblingInv}, s))
	case Descendant:
		return e.closure([]refPrim{refFirstchild, refNextsibling}, e.step(refFirstchild, s))
	case Ancestor:
		return e.step(refFirstchildInv, e.closure([]refPrim{refFirstchildInv, refNextsiblingInv}, s))
	case DescendantOrSelf:
		return refDedup(append(e.untyped(Descendant, s), s...))
	case AncestorOrSelf:
		return refDedup(append(e.untyped(Ancestor, s), s...))
	case Following:
		t := e.untyped(AncestorOrSelf, s)
		t = e.closure([]refPrim{refNextsibling}, e.step(refNextsibling, t))
		return e.untyped(DescendantOrSelf, t)
	case Preceding:
		t := e.untyped(AncestorOrSelf, s)
		t = e.closure([]refPrim{refNextsiblingInv}, e.step(refNextsiblingInv, t))
		return e.untyped(DescendantOrSelf, t)
	case FollowingSibling:
		return e.closure([]refPrim{refNextsibling}, e.step(refNextsibling, s))
	case PrecedingSibling:
		return e.step(refNextsiblingInv, e.closure([]refPrim{refNextsiblingInv}, s))
	default:
		panic("axes: untyped axis " + a.String())
	}
}

func refDedup(s []xmltree.NodeID) []xmltree.NodeID {
	seen := map[xmltree.NodeID]bool{}
	out := s[:0]
	for _, x := range s {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// refEval is the original typed Eval: Algorithm 3.2 plus the Section 4
// type filters, sorted via NewNodeSet.
func refEval(d *xmltree.Document, a Axis, s xmltree.NodeSet) xmltree.NodeSet {
	if len(s) == 0 {
		return nil
	}
	if a == IDAxis {
		return EvalID(d, s)
	}
	e := newRefEvaluator(d)
	raw := e.untyped(a, s)
	out := make(xmltree.NodeSet, 0, len(raw))
	switch a {
	case AttributeAxis:
		for _, x := range raw {
			if d.Type(x) == xmltree.Attribute {
				out = append(out, x)
			}
		}
	case NamespaceAxis:
		for _, x := range raw {
			if d.Type(x) == xmltree.Namespace {
				out = append(out, x)
			}
		}
	default:
		keepSelf := a == Self || a == DescendantOrSelf || a == AncestorOrSelf
		inS := map[xmltree.NodeID]bool{}
		if keepSelf {
			for _, x := range s {
				inS[x] = true
			}
		}
		for _, x := range raw {
			if !d.IsAttrOrNS(x) || (keepSelf && inS[x]) {
				out = append(out, x)
			}
		}
	}
	return xmltree.NewNodeSet(out...)
}

// refEvalInverse is the preimage by its definition, χ⁻¹(S) = {x ∈ dom |
// χ({x}) ∩ S ≠ ∅}: one reference evaluation per node of the document,
// for the small documents of the property tests only.
func refEvalInverse(d *xmltree.Document, a Axis, s xmltree.NodeSet) xmltree.NodeSet {
	var out xmltree.NodeSet
	for i := 0; i < d.Len(); i++ {
		x := xmltree.NodeID(i)
		if refEval(d, a, xmltree.NodeSet{x}).Intersects(s) {
			out = append(out, x)
		}
	}
	return out
}
