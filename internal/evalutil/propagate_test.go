package evalutil

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/axes"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Property tests of the two kernels against their definitions,
//
//	Image(π, X)        = S→[[π]](X)
//	Rows(χ::t[e], X)   = ⟨Image(χ::t[e], {x}) | x ∈ X⟩
//	Reach(π, Y)        = {x | S→[[π]]({x}) ∩ Y ≠ ∅}
//	Compared(π, op, c) = {x | ∃y ∈ S→[[π]]({x}): strval(y) op c},
//
// with S→ computed here by the book: axis image, node test and ranking
// per context node, step by step. The only predicates are the positional
// ones randPath draws, which the kernels decide themselves; the judge
// keeps everything else, evaluates id heads by the book, and counts how
// far each walk got.

// keepAll judges every step true and readies no predicate: each one
// randPath draws compiles to a rank test.
type keepAll struct {
	d      *xmltree.Document
	judged int
}

func (j *keepAll) JudgeStep(_ []xpath.Expr, yt xmltree.NodeSet) (xmltree.NodeSet, error) {
	j.judged++
	return yt, nil
}

func (j *keepAll) RankStep(step *xpath.Step, _ xmltree.NodeSet) (PredEval, error) {
	j.judged++
	return func(p xpath.Expr, _ semantics.Context) (semantics.Value, error) {
		return semantics.Value{}, fmt.Errorf("%s: %s has no rank test", step, p)
	}, nil
}

// Head is id(…) by the book (idDef) of the kernel's image of its
// argument.
func (j *keepAll) Head(head xpath.Expr, x xmltree.NodeSet) (xmltree.NodeSet, error) {
	c := head.(*xpath.Call)
	if lit, ok := c.Args[0].(*xpath.Literal); ok {
		return j.d.DerefIDs(lit.Val), nil
	}
	arg, err := Forward{Doc: j.d, Judge: j}.Image(c.Args[0], x)
	return idDef(j.d, arg), err
}

// sieve judges the predicates of a step that reads neither position()
// nor last() false at every node whose ID is a multiple of three, so a
// judged step drops candidates.
type sieve struct{ keepAll }

func (j *sieve) JudgeStep(_ []xpath.Expr, yt xmltree.NodeSet) (xmltree.NodeSet, error) {
	keep := yt[:0]
	for _, y := range yt {
		if y%3 != 0 {
			keep = append(keep, y)
		}
	}
	return keep, nil
}

// forward is S→[[e]](x) by the book: per context node the axis image,
// the node test and the positional predicates, step by step; id(…)
// through refDef, not through axes.EvalID.
func forward(d *xmltree.Document, e xpath.Expr, x xmltree.NodeSet) xmltree.NodeSet {
	switch e := e.(type) {
	case *xpath.Binary:
		return forward(d, e.Left, x).Union(forward(d, e.Right, x))
	case *xpath.Call:
		if lit, ok := e.Args[0].(*xpath.Literal); ok {
			return d.DerefIDs(lit.Val)
		}
		return idDef(d, forward(d, e.Args[0], x))
	case *xpath.Path:
		cur := x
		if e.Filter != nil {
			cur = forward(d, e.Filter, x)
		} else if e.Absolute {
			cur = xmltree.NodeSet{d.RootID()}
		}
		for _, s := range e.Steps {
			var next xmltree.NodeSet
			for _, n := range cur {
				var z xmltree.NodeSet
				for _, m := range axes.EvalNode(d, s.Axis, n) {
					if s.Test.Matches(d, s.Axis.PrincipalType(), m) {
						z = append(z, m)
					}
				}
				next = next.Union(ranked(s, z))
			}
			cur = next
		}
		return cur
	}
	panic(fmt.Sprintf("forward: %T", e))
}

// positional are the predicates randPath draws, as functions of the
// position and the size.
var positional = map[string]func(pos, size int) bool{
	"(position() = 1)":         func(pos, _ int) bool { return pos == 1 },
	"(position() = last())":    func(pos, size int) bool { return pos == size },
	"((position() mod 2) = 0)": func(pos, _ int) bool { return pos%2 == 0 },
}

// ranked keeps the members of z, one context node's candidates in
// document order, that the step's predicates select: each predicate
// ranks the survivors of the one before it in axis order.
func ranked(s *xpath.Step, z xmltree.NodeSet) xmltree.NodeSet {
	for _, p := range s.Preds {
		var keep xmltree.NodeSet
		for i, n := range z {
			pos := i + 1
			if s.Axis.IsReverse() {
				pos = len(z) - i
			}
			if positional[p.String()](pos, len(z)) {
				keep = append(keep, n)
			}
		}
		z = keep
	}
	return z
}

// idDef is id(S) by the book: the rows of refDef of S's attribute and
// text nodes, and of every element at or below its other members.
func idDef(d *xmltree.Document, s xmltree.NodeSet) xmltree.NodeSet {
	var out xmltree.NodeSet
	for _, n := range s {
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
// nodes, comments, numbers, and text that now and then names some of
// the IDs.
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
		case k < 7:
			b.Text(fmt.Sprint(r.Intn(4))) // a number to compare with
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
// now and then with a positional predicate or as the unfused pair
// descendant-or-self::node()/child::name; relative, absolute, or headed
// by id('c'), id(π), id(id(π)), id(@ref) or id(text()); now and then a
// bare id chain or a union of two paths.
func randPath(r *rand.Rand, depth int) string {
	var steps []string
	for i := r.Intn(4 - depth); i >= 0; i-- {
		step := kernelAxes[r.Intn(len(kernelAxes))] + "::" + kernelTests[r.Intn(len(kernelTests))]
		if r.Intn(6) == 0 {
			step = "descendant-or-self::node()/child::" + kernelTests[r.Intn(3)]
		}
		switch r.Intn(8) {
		case 0:
			step += "[1]"
		case 1:
			step += "[last()]"
		case 2:
			step += "[position() mod 2 = 0]"
		}
		steps = append(steps, step)
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
	everywheres, charData, compared := 0, 0, 0
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
			// Compared(π, op, c) against every node's string-value by
			// the book, for a constant met in the document or not.
			op := []xpath.BinOp{xpath.OpEq, xpath.OpNeq, xpath.OpLt, xpath.OpLe, xpath.OpGt, xpath.OpGe}[r.Intn(6)]
			c := semantics.String(d.StringValue(xmltree.NodeID(r.Intn(d.Len()))))
			switch r.Intn(3) {
			case 0:
				c = semantics.Number(float64(r.Intn(4)))
			case 1:
				c = semantics.String([]string{"n1", "v", "1", ""}[r.Intn(4)])
			}
			holds := func(s string) bool {
				switch {
				case c.Kind == xpath.TypeNumber:
					return semantics.CompareNumbers(op, semantics.StringToNumber(s), c.Num)
				case op == xpath.OpEq:
					return s == c.Str
				case op == xpath.OpNeq:
					return s != c.Str
				}
				return semantics.CompareNumbers(op, semantics.StringToNumber(s), semantics.StringToNumber(c.Str))
			}
			var wantCmp xmltree.NodeSet
			for _, x := range dom {
				for _, n := range forward(d, e, xmltree.NodeSet{x}) {
					if holds(d.StringValue(n)) {
						wantCmp = append(wantCmp, x)
						break
					}
				}
			}
			cmp, cmpAll, err := k.Compared(e, op, c)
			switch {
			case err != nil:
				t.Fatalf("%s %v %+v: %v", src, op, c, err)
			case cmpAll && (cmp != nil || !wantCmp.Equal(dom)),
				!cmpAll && !cmp.Equal(wantCmp):
				t.Errorf("%s %v %+v: Compared = %v, %v; definition gives %v\n%s", src, op, c, cmp, cmpAll, wantCmp, d.XMLString())
			}
			if len(wantCmp) > 0 {
				compared++
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
	if compared < 50 {
		t.Errorf("only %d comparisons held anywhere", compared)
	}
}

func TestForwardEqualsDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	ranks := 0 // positional steps whose ranking dropped a candidate
	for round := 0; round < 60; round++ {
		d := randIDDoc(r, 20+r.Intn(60))
		for q := 0; q < 40; q++ {
			src := randPath(r, 0)
			e := xpath.MustParse(src)
			// X is one node every fourth time, else a random set of
			// density 1/2, 1/3 or 1/4, attribute and namespace nodes
			// among them.
			x := xmltree.NodeSet{xmltree.NodeID(r.Intn(d.Len()))}
			if q%4 != 0 {
				x = nil
				for i := 0; i < d.Len(); i++ {
					if r.Intn(q%4+1) == 0 {
						x = append(x, xmltree.NodeID(i))
					}
				}
			}
			given := x.Clone()
			got, err := Forward{Doc: d, Judge: &keepAll{d: d}}.Image(e, x)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if !x.Equal(given) {
				t.Fatalf("%s: the kernel wrote to its X", src)
			}
			if want := forward(d, e, x); !got.Equal(want) {
				t.Errorf("%s, X = %v: Image = %v, definition gives %v\n%s", src, x, got, want, d.XMLString())
			}
			if strings.Contains(src, "]") && !got.Equal(forward(d, xpath.MustParse(unranked.ReplaceAllString(src, "")), x)) {
				ranks++
			}
		}
	}
	if ranks < 100 {
		t.Errorf("only %d paths lost nodes to a positional predicate", ranks)
	}

	// The unfused pair //b[1] starts its child step from the parents of
	// the b elements (NamedChildParents), never from every node below the
	// context: the run keeps a few words per b, not one per node.
	d := xmltree.MustParseString("<a>" + strings.Repeat("<c>x</c>", 300) + "<b/><c><b/><b/></c></a>")
	e := xpath.MustParse("descendant-or-self::node()/child::b[1]")
	root := xmltree.NodeSet{d.RootID()}
	ix := d.Index()
	before := ix.Materialized()
	ar := ix.AcquireArena()
	got, err := Forward{Doc: d, Arena: ar, Judge: &keepAll{d: d}}.Image(e, root)
	if want := forward(d, e, root); err != nil || len(want) != 2 || !got.Equal(want) {
		t.Errorf("%s: %v, %v; definition gives %v", e, got, err, want)
	}
	ix.ReleaseArena(ar)
	if words := ix.Materialized() - before; words > int64(d.Len()/10) {
		t.Errorf("%s kept %d words of a %d-node document", e, words, d.Len())
	}
}

// TestRowsEqualsDefinition: row j of Rows(steps, i, X) is the image of
// step i from X's j-th member alone — positional, judged and bare steps —
// and for the unfused pair descendant-or-self::node()/child::name it is
// the nodes at or below xⱼ that have a name child.
func TestRowsEqualsDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	pairs, positional, judged, split := 0, 0, 0, 0
	for round := 0; round < 60; round++ {
		d := randIDDoc(r, 20+r.Intn(60))
		for q := 0; q < 40; q++ {
			src := randPath(r, 2) // one or two steps, no head
			if r.Intn(3) == 0 {
				src += "[true()]" // a predicate the judge decides
			}
			p := xpath.MustParse(src).(*xpath.Path)
			var x xmltree.NodeSet
			for i := 0; i < d.Len(); i++ {
				if r.Intn(q%4+1) == 0 {
					x = append(x, xmltree.NodeID(i))
				}
			}
			given := x.Clone()
			ix := d.Index()
			ar := ix.AcquireArena()
			k := Forward{Doc: d, Arena: ar, Judge: &sieve{keepAll{d: d}}}
			for i, step := range p.Steps {
				flat, off, err := k.Rows(p.Steps, i, x)
				if err != nil {
					t.Fatalf("%s, step %d: %v", src, i, err)
				}
				if len(off) != len(x)+1 || off[0] != 0 || int(off[len(x)]) != len(flat) {
					t.Fatalf("%s, step %d: offsets %v for %d rows of %d members", src, i, off, len(x), len(flat))
				}
				name, pair := NamedChildAfterDescendants(p.Steps, i)
				nonEmpty := 0
				for j, xn := range x {
					got := flat[off[j]:off[j+1]]
					var want xmltree.NodeSet
					if pair {
						for _, n := range forward(d, &xpath.Path{Steps: p.Steps[i : i+1]}, xmltree.NodeSet{xn}) {
							for _, c := range axes.EvalNode(d, axes.Child, n) {
								if d.Type(c) == xmltree.Element && d.Name(c) == name {
									want = append(want, n)
									break
								}
							}
						}
					} else if want, err = k.Image(&xpath.Path{Steps: p.Steps[i : i+1]}, xmltree.NodeSet{xn}); err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Errorf("%s, step %d, x = %d: row %v, definition gives %v\n%s", src, i, xn, got, want, d.XMLString())
					}
					if len(got) > 0 {
						nonEmpty++
					}
				}
				switch {
				case pair:
					pairs++
				case step.Positional():
					positional++
				case len(step.Preds) > 0:
					judged++
				}
				if nonEmpty > 1 {
					split++
				}
			}
			if !x.Equal(given) {
				t.Fatalf("%s: the kernel wrote to its X", src)
			}
			ix.ReleaseArena(ar)
		}
	}
	if pairs < 300 || positional < 300 || judged < 200 || split < 1000 {
		t.Errorf("%d unfused pairs, %d positional and %d judged steps, %d relations with two rows or more",
			pairs, positional, judged, split)
	}
}

// unranked matches the predicates randPath draws.
var unranked = regexp.MustCompile(`\[[^]]*\]`)
