package axes

// Property tests: the indexed evaluator of eval.go must agree exactly
// with the worklist-closure reference (reference_test.go, the paper's
// Algorithm 3.2) on randomized documents, for every axis, over random
// context sets — including context sets containing attribute and
// namespace nodes, whose self contributions are the subtle cases of the
// Section 4 type filters.

import (
	"math/rand"
	"testing"

	"repro/internal/xmltree"
)

// randDoc builds a random document of roughly n nodes mixing elements
// (from a tiny alphabet so name collisions are common), text, comments,
// attributes and namespace nodes at random depths.
func randDoc(r *rand.Rand, n int) *xmltree.Document {
	b := xmltree.NewBuilder()
	names := []string{"a", "b", "c"}
	open := 0
	b.StartElement(names[r.Intn(len(names))])
	open++
	for i := 0; i < n; i++ {
		switch k := r.Intn(10); {
		case k < 4:
			b.StartElement(names[r.Intn(len(names))])
			open++
			// Attributes and namespace nodes must follow StartElement.
			if r.Intn(3) == 0 {
				b.Attribute("x", "v")
			}
			if r.Intn(8) == 0 {
				b.NamespaceNode("p", "uri")
			}
		case k < 6 && open > 1:
			b.EndElement()
			open--
		case k < 8:
			b.Text("t")
		default:
			b.Comment("c")
		}
	}
	for ; open > 0; open-- {
		b.EndElement()
	}
	return b.MustDone()
}

// randSet picks a random subset of the document's nodes.
func randSet(r *rand.Rand, d *xmltree.Document) xmltree.NodeSet {
	var ids []xmltree.NodeID
	for i := 0; i < d.Len(); i++ {
		if r.Intn(4) == 0 {
			ids = append(ids, xmltree.NodeID(i))
		}
	}
	return xmltree.NewNodeSet(ids...)
}

var allAxes = []Axis{
	Self, Child, Parent, Descendant, Ancestor, DescendantOrSelf,
	AncestorOrSelf, Following, Preceding, FollowingSibling,
	PrecedingSibling, AttributeAxis, NamespaceAxis,
}

func TestEvalMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 60; round++ {
		d := randDoc(r, 5+r.Intn(120))
		for trial := 0; trial < 4; trial++ {
			s := randSet(r, d)
			if len(s) == 0 {
				s = xmltree.NodeSet{d.RootID()}
			}
			for _, a := range allAxes {
				got := Eval(d, a, s)
				want := refEval(d, a, s)
				if !got.Equal(want) {
					t.Fatalf("round %d: %s(%v) = %v, reference = %v\ndoc: %s",
						round, a, s, got, want, d.XMLString())
				}
			}
		}
	}
}

// TestEvalInverseMatchesReference: EvalInverse is the exact preimage
// under the typed axis function, attribute and namespace nodes included
// on both sides, for every axis and the id pseudo-axis.
func TestEvalInverseMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for round := 0; round < 40; round++ {
		d := randDoc(r, 5+r.Intn(60))
		for trial := 0; trial < 4; trial++ {
			s := randSet(r, d)
			for _, a := range append(allAxes[:len(allAxes):len(allAxes)], IDAxis) {
				got := EvalInverse(d, a, s)
				want := refEvalInverse(d, a, s)
				if !got.Equal(want) {
					t.Fatalf("round %d: %s⁻¹(%v) = %v, by definition %v\ndoc: %s",
						round, a, s, got, want, d.XMLString())
				}
			}
		}
	}
}

// TestEvalIntoReuse exercises the scratch/pool path under buffer reuse:
// consecutive evaluations into the same buffer must not corrupt one
// another (scratch left dirty would).
func TestEvalIntoReuse(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	d := randDoc(r, 200)
	var buf xmltree.NodeSet
	for round := 0; round < 50; round++ {
		s := randSet(r, d)
		if len(s) == 0 {
			continue
		}
		for _, a := range allAxes {
			buf = EvalInto(d, a, s, buf)
			want := refEval(d, a, s)
			if !xmltree.NodeSet(buf).Equal(want) {
				t.Fatalf("reused-buffer %s(%v) = %v, reference = %v", a, s, buf, want)
			}
		}
	}
}

func TestEvalNamedMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	multiAncestor := 0 // ancestor(-or-self) over two nodes or more: the mark-and-scan path
	for round := 0; round < 60; round++ {
		d := randDoc(r, 5+r.Intn(120))
		for trial := 0; trial < 6; trial++ {
			s := randSet(r, d)
			if trial >= 4 {
				// A few nodes, often in one another's chains.
				s = xmltree.NewNodeSet(xmltree.NodeID(r.Intn(d.Len())), xmltree.NodeID(r.Intn(d.Len())), xmltree.NodeID(r.Intn(d.Len())))
			}
			if len(s) == 0 {
				s = xmltree.NodeSet{d.RootID()}
			}
			for _, a := range allAxes {
				if (a == Ancestor || a == AncestorOrSelf) && len(s) > 1 {
					multiAncestor++
				}
				for _, name := range []string{"a", "b", "absent"} {
					got := EvalNamed(d, a, s, name)
					// Reference: full axis image, then the name/type
					// filter of Section 4 for an element name test.
					var want xmltree.NodeSet
					for _, y := range refEval(d, a, s) {
						if d.Type(y) == xmltree.Element && d.Name(y) == name {
							want = append(want, y)
						}
					}
					if !got.Equal(want) {
						t.Fatalf("round %d: %s::%s(%v) = %v, reference = %v\ndoc: %s",
							round, a, name, s, got, want, d.XMLString())
					}
				}
			}
		}
	}
	if multiAncestor < 100 {
		t.Errorf("only %d multi-node ancestor sets checked", multiAncestor)
	}
}

// TestSubtreeEnd pins the interval invariant the indexed axes rely on:
// [x, SubtreeEnd(x)) is exactly descendant-or-self₀(x).
func TestSubtreeEnd(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for round := 0; round < 40; round++ {
		d := randDoc(r, 5+r.Intn(100))
		ix := d.Index()
		for i := 0; i < d.Len(); i++ {
			x := xmltree.NodeID(i)
			e := newRefEvaluator(d)
			raw := refDedup(append(e.untyped(Descendant, []xmltree.NodeID{x}), x))
			want := xmltree.NewNodeSet(raw...)
			lo, hi := x, ix.SubtreeEnd(x)
			if int(hi-lo) != len(want) || want[0] != lo || want[len(want)-1] != hi-1 {
				t.Fatalf("subtree interval of %d = [%d,%d), reference %v", x, lo, hi, want)
			}
		}
	}
}
