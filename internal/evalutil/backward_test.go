package evalutil

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/axes"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Property test of the backward kernel against its definition,
//
//	Reach(π, Y) = {x | S→[[π]]({x}) ∩ Y ≠ ∅},
//
// with S→ computed here by plain forward evaluation from every node of
// the document, one at a time. The paths have no predicates — judging
// them is the caller's half — so the judge keeps everything and counts
// how far each walk got.

// keepAll judges every step true and evaluates constant id heads with
// the test's own forward pass.
type keepAll struct {
	d      *xmltree.Document
	judged int
}

func (j *keepAll) JudgeStep(_ *xpath.Step, yt xmltree.NodeSet) (xmltree.NodeSet, bool, error) {
	j.judged++
	return yt, false, nil
}

func (j *keepAll) ConstantIDs(head *xpath.Call) (xmltree.NodeSet, error) {
	return forward(j.d, head, nil), nil
}

// forward is S→[[e]](x) by the book: axis image, node test, step by
// step; id(…) through refDef, not through axes.EvalID.
func forward(d *xmltree.Document, e xpath.Expr, x xmltree.NodeSet) xmltree.NodeSet {
	switch e := e.(type) {
	case *xpath.Binary:
		return forward(d, e.Left, x).Union(forward(d, e.Right, x))
	case *xpath.Call:
		if lit, ok := e.Args[0].(*xpath.Literal); ok {
			return d.DerefIDs(lit.Val)
		}
		var out xmltree.NodeSet
		for _, n := range forward(d, e.Args[0], x) {
			if t := d.Type(n); t != xmltree.Element && t != xmltree.Root {
				out = out.Union(refDef(d, n)) // its own data
				continue
			}
			for _, m := range axes.EvalNode(d, axes.DescendantOrSelf, n) {
				if d.Type(m) == xmltree.Element {
					out = out.Union(refDef(d, m))
				}
			}
		}
		return out
	case *xpath.Path:
		cur := x
		if e.Filter != nil {
			cur = forward(d, e.Filter, x)
		} else if e.Absolute {
			cur = xmltree.NodeSet{d.RootID()}
		}
		for _, s := range e.Steps {
			cur = StepCandidatesSet(d, s.Axis, s.Test, cur)
		}
		return cur
	}
	panic(fmt.Sprintf("forward: %T", e))
}

// refDef is row x of the ref relation of Theorem 10.7 by its
// definition: the elements whose IDs are tokens of the text directly
// inside x, or of x's own data when x is not an element or the root.
func refDef(d *xmltree.Document, x xmltree.NodeID) xmltree.NodeSet {
	if t := d.Type(x); t != xmltree.Element && t != xmltree.Root {
		return d.DerefIDs(d.Data(x))
	}
	return d.DerefIDs(d.DirectText(x))
}

// randIDDoc builds a random document of elements over a small alphabet
// with ID attributes, IDREFS attributes, plain attributes, namespace
// nodes, comments, and text that now and then names some of the IDs.
func randIDDoc(r *rand.Rand, n int) *xmltree.Document {
	b := xmltree.NewBuilder()
	names := []string{"a", "b", "c"}
	ids, open := 0, 1
	b.StartElement("a")
	for i := 0; i < n; i++ {
		switch k := r.Intn(10); {
		case k < 4:
			b.StartElement(names[r.Intn(len(names))])
			open++
			if r.Intn(2) == 0 {
				b.Attribute("id", fmt.Sprintf("n%d", ids))
				ids++
			}
			if r.Intn(3) == 0 {
				b.Attribute("x", "v")
			}
			if r.Intn(3) == 0 {
				b.Attribute("ref", fmt.Sprintf("n%d n%d", r.Intn(ids+2), r.Intn(ids+2)))
			}
			if r.Intn(6) == 0 {
				b.NamespaceNode("p", "uri")
			}
		case k < 6 && open > 1:
			b.EndElement()
			open--
		case k < 9:
			b.Text(fmt.Sprintf("n%d n%d", r.Intn(ids+2), r.Intn(ids+2)))
		default:
			b.Comment("c")
		}
	}
	for ; open > 0; open-- {
		b.EndElement()
	}
	return b.MustDone()
}

var (
	kernelAxes = []string{"ancestor", "ancestor-or-self", "attribute", "child", "descendant",
		"descendant-or-self", "following", "following-sibling", "namespace", "parent",
		"preceding", "preceding-sibling", "self"}
	kernelTests = []string{"a", "b", "c", "*", "node()", "text()", "x", "id", "ref"}
)

// randPath draws a location path of up to four steps over every axis,
// relative, absolute, or headed by id('c'), id(π), id(id(π)), id(@ref)
// or id(text()); now and then a bare id chain or a union of two paths.
func randPath(r *rand.Rand, depth int) string {
	var steps []string
	for i := r.Intn(4 - depth); i >= 0; i-- {
		steps = append(steps, kernelAxes[r.Intn(len(kernelAxes))]+"::"+kernelTests[r.Intn(len(kernelTests))])
	}
	tail := strings.Join(steps, "/")
	if depth >= 2 {
		return tail
	}
	switch r.Intn(10) {
	case 6:
		return []string{"id(@ref)/", "id(@*)/", "id(descendant::*/@ref)/"}[r.Intn(3)] + tail
	case 7:
		return []string{"id(text())/" + tail, "id(descendant::text())/" + tail, "id(text())"}[r.Intn(3)]
	case 0:
		return "/" + tail
	case 1:
		return fmt.Sprintf("id('n%d n%d')/%s", r.Intn(6), r.Intn(6), tail)
	case 2:
		return "id(" + randPath(r, depth+1) + ")/" + tail
	case 3:
		return "id(id(" + randPath(r, depth+1) + "))/" + tail
	case 4:
		return "id(" + randPath(r, depth+1) + ")"
	case 5:
		return randPath(r, depth+1) + " | " + randPath(r, depth+1)
	}
	return tail
}

func TestBackwardEqualsDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	emptiedAt := map[int]int{} // steps judged before a walk ran dry → count
	everywheres, charData := 0, 0
	for round := 0; round < 60; round++ {
		d := randIDDoc(r, 20+r.Intn(60))
		dom := make(xmltree.NodeSet, d.Len())
		for i := range dom {
			dom[i] = xmltree.NodeID(i)
		}
		// The CSR rows of the ref relation and its inverse are the
		// definition's.
		inv := make([]xmltree.NodeSet, d.Len())
		for _, x := range dom {
			row := refDef(d, x)
			if got := d.Ref(x); !got.Equal(row) {
				t.Fatalf("ref(%d) = %v, definition %v\n%s", x, got, row, d.XMLString())
			}
			for _, y := range row {
				inv[y] = append(inv[y], x)
			}
			if t := d.Type(x); len(row) > 0 && t != xmltree.Element && t != xmltree.Root {
				charData++
			}
		}
		for _, y := range dom {
			if got := d.RefInv(y); !got.Equal(inv[y]) {
				t.Fatalf("ref⁻¹(%d) = %v, definition %v", y, got, inv[y])
			}
		}
		for q := 0; q < 40; q++ {
			src := randPath(r, 0)
			e := xpath.MustParse(src)
			var y xmltree.NodeSet // nil every fourth time
			if q%4 != 0 {
				for _, id := range dom {
					if r.Intn(3) == 0 {
						y = append(y, id)
					}
				}
			}
			given := y.Clone()
			j := &keepAll{d: d}
			k := Backward{Doc: d, Judge: j}
			got, everywhere, err := k.Reach(e, y)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if !y.Equal(given) {
				t.Fatalf("%s: the kernel wrote to its Y", src)
			}
			var want xmltree.NodeSet
			for _, x := range dom {
				if forward(d, e, xmltree.NodeSet{x}).Intersects(y) {
					want = append(want, x)
				}
			}
			switch {
			case everywhere:
				everywheres++
				if got != nil || !want.Equal(dom) {
					t.Errorf("%s, Y = %v: everywhere with set %v; definition gives %v", src, y, got, want)
				}
			case !got.Equal(want):
				t.Errorf("%s, Y = %v: Reach = %v, definition gives %v\n%s", src, y, got, want, d.XMLString())
			}
			if p, ok := e.(*xpath.Path); ok && p.Filter == nil && len(got) == 0 && !everywhere {
				emptiedAt[j.judged]++
			}
			// Exists(π) is Reach(π, dom) — seeded from T(t) instead.
			some, all, err := k.Exists(e)
			full, fullAll, _ := k.Reach(e, dom)
			if err != nil || all != fullAll || !some.Equal(full) {
				t.Errorf("%s: Exists = %v, %v, %v; Reach(dom) = %v, %v", src, some, all, err, full, fullAll)
			}
		}
	}
	// An empty Y was met before the first step and after each of the four.
	for judged := 0; judged <= 3; judged++ {
		if emptiedAt[judged] == 0 {
			t.Errorf("no walk ran dry after %d judged steps: %v", judged, emptiedAt)
		}
	}
	if everywheres == 0 {
		t.Error("no absolute or constant-headed path reached its Y")
	}
	if charData == 0 {
		t.Error("no attribute or text node names an ID")
	}
}
