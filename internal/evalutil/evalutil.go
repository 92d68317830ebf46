// Package evalutil holds what the evaluation engines share: step
// candidates ({y | x χ y, y ∈ T(t)}), the throttled cancellation
// checkpoint (cancel.go), the run of one evaluation in its arena
// (arena.go), the ⟨previous, current⟩ pair loops (pairloop.go) and the
// two walks over a location path, forward and backward propagation, with
// the step relation and its composition, each written once for every
// language that judges a step's predicates its own way (propagate.go).
package evalutil

import (
	"strings"

	"repro/internal/axes"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// StepCandidates computes S = {y | x χ y, y ∈ T(t)} for a single context
// node: the axis image filtered by the node test, in document order.
func StepCandidates(d *xmltree.Document, a axes.Axis, t xpath.NodeTest, x xmltree.NodeID) xmltree.NodeSet {
	return StepCandidatesInto(d, a, t, x, nil)
}

// StepCandidatesSet computes {y | ∃x∈X: x χ y, y ∈ T(t)} into the arena
// ar.
//
// Exact element name tests — the `child::a` shape dominating real
// queries — are served from the document's label index (axes.EvalNamed):
// the axis restricts a precomputed posting list instead of materializing
// the full image and scanning it node by node.
func StepCandidatesSet(ar *xmltree.Arena, d *xmltree.Document, a axes.Axis, t xpath.NodeTest, xs xmltree.NodeSet) xmltree.NodeSet {
	if ExactElementName(a, t) {
		return axes.EvalNamedIn(ar, d, a, xs, t.Name)
	}
	return ar.Trim(filterOwned(d, a, t, axes.EvalIn(ar, d, a, xs)))
}

// filterOwned restricts an axis image nobody else holds to the node
// test, in place; node() keeps every node, so the image is the answer.
func filterOwned(d *xmltree.Document, a axes.Axis, t xpath.NodeTest, img xmltree.NodeSet) xmltree.NodeSet {
	if t.Kind == xpath.TestNode {
		return img
	}
	return filterTestInto(d, a, t, img, img[:0])
}

// ExactElementName reports whether the step is an exact-name test whose
// principal node type is element — the shape the label index answers.
// Every engine consulting the index must use this one gate so the fast
// path stays equivalent to FilterTest.
func ExactElementName(a axes.Axis, t xpath.NodeTest) bool {
	return t.Kind == xpath.TestName && t.Name != "*" && !strings.HasSuffix(t.Name, ":*") &&
		a != axes.IDAxis && a.PrincipalType() == xmltree.Element
}

// FilterTest restricts a node set to the nodes satisfying the node test
// under the axis's principal node type, into the arena ar.
func FilterTest(ar *xmltree.Arena, d *xmltree.Document, a axes.Axis, t xpath.NodeTest, s xmltree.NodeSet) xmltree.NodeSet {
	return ar.Trim(filterTestInto(d, a, t, s, ar.Nodes(len(s))))
}

// filterTestInto is FilterTest appending to dst; dst = s[:0] filters in
// place when the caller owns s.
func filterTestInto(d *xmltree.Document, a axes.Axis, t xpath.NodeTest, s, dst xmltree.NodeSet) xmltree.NodeSet {
	principal := a.PrincipalType()
	for _, y := range s {
		if t.Matches(d, principal, y) {
			dst = append(dst, y)
		}
	}
	return dst
}
