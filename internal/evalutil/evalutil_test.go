package evalutil

import (
	"strings"
	"testing"

	"repro/internal/axes"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func doc(t *testing.T) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(`<a x="1"><b/>t<c/><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func step(t *testing.T, src string) *xpath.Step {
	t.Helper()
	p := xpath.MustParse(src).(*xpath.Path)
	return p.Steps[len(p.Steps)-1]
}

func TestStepCandidates(t *testing.T) {
	d := doc(t)
	a := d.DocumentElement()
	s := step(t, "child::b")
	got := StepCandidates(d, s.Axis, s.Test, a)
	if len(got) != 2 {
		t.Errorf("child::b candidates = %v", got)
	}
	s = step(t, "child::node()")
	got = StepCandidates(d, s.Axis, s.Test, a)
	if len(got) != 4 { // b, text, c, b — not the attribute
		t.Errorf("child::node() candidates = %v (want 4)", got)
	}
	s = step(t, "child::text()")
	got = StepCandidates(d, s.Axis, s.Test, a)
	if len(got) != 1 || d.Type(got[0]) != xmltree.Text {
		t.Errorf("child::text() candidates = %v", got)
	}
	s = step(t, "attribute::x")
	got = StepCandidates(d, s.Axis, s.Test, a)
	if len(got) != 1 || d.Type(got[0]) != xmltree.Attribute {
		t.Errorf("@x candidates = %v", got)
	}
}

func TestStepCandidatesSetEqualsUnion(t *testing.T) {
	d := doc(t)
	a := d.DocumentElement()
	kids := d.Children(a)
	s := step(t, "following-sibling::*")
	xs := xmltree.NewNodeSet(kids[0], kids[2])
	got := StepCandidatesSet(d, s.Axis, s.Test, xs)
	want := StepCandidates(d, s.Axis, s.Test, kids[0]).
		Union(StepCandidates(d, s.Axis, s.Test, kids[2]))
	if !got.Equal(want) {
		t.Errorf("set = %v, union = %v", got, want)
	}
}

func TestAxisOrdered(t *testing.T) {
	s := xmltree.NodeSet{1, 2, 3}
	fw := AxisOrdered(axes.Child, s)
	if fw[0] != 1 || fw[2] != 3 {
		t.Errorf("forward order = %v", fw)
	}
	rv := AxisOrdered(axes.Ancestor, s)
	if rv[0] != 3 || rv[2] != 1 {
		t.Errorf("reverse order = %v", rv)
	}
	// Input slice must not be mutated.
	if s[0] != 1 {
		t.Error("AxisOrdered mutated its input")
	}
}

func TestFilterTestPrincipalType(t *testing.T) {
	d := doc(t)
	a := d.DocumentElement()
	// The * test under the child axis matches elements only (principal
	// type element): text nodes are excluded.
	all := axes.EvalNode(d, axes.Child, a)
	starTest := xpath.NodeTest{Kind: xpath.TestName, Name: "*"}
	got := FilterTest(d, axes.Child, starTest, all)
	for _, n := range got {
		if d.Type(n) != xmltree.Element {
			t.Errorf("* matched non-element %v", d.Type(n))
		}
	}
	if len(got) != 3 {
		t.Errorf("child::* = %d nodes, want 3", len(got))
	}
}

// TestContextsReaching: the restriction is exactly xs ∩ χ⁻¹(ys) — the
// context nodes that have a candidate in ys — attribute context nodes
// included.
func TestContextsReaching(t *testing.T) {
	d, err := xmltree.ParseString(`<r><a x="1"><b/><c/></a><a><c/></a><d y="2"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	var all xmltree.NodeSet
	for i := 0; i < d.Len(); i++ {
		all = append(all, xmltree.NodeID(i))
	}
	for _, q := range []string{
		"child::b", "child::*", "descendant::c", "parent::a", "ancestor::*",
		"following-sibling::c", "preceding-sibling::*", "following::d",
		"preceding::b", "self::a", "descendant-or-self::node()",
		"ancestor-or-self::a", "attribute::x",
	} {
		s := step(t, q)
		ys := StepCandidatesSet(d, s.Axis, s.Test, all)
		got := ContextsReaching(d, s.Axis, all, ys)
		for _, x := range all {
			has := len(StepCandidates(d, s.Axis, s.Test, x)) > 0
			switch {
			case has && !got.Contains(x):
				t.Errorf("%s: context node %d has candidates but was dropped", q, x)
			case !has && got.Contains(x):
				t.Errorf("%s: context node %d kept without candidates", q, x)
			}
		}
	}
	if one := (xmltree.NodeSet{3}); !ContextsReaching(d, axes.Child, one, nil).Equal(one) {
		t.Error("a single context node must be returned as is")
	}
}

// TestFilterPositionsOrder: positions count from the end for reverse
// axes, survivors stay in document order, and z[:0] filters in place.
func TestFilterPositionsOrder(t *testing.T) {
	z := xmltree.NodeSet{10, 20, 30, 40}
	var seen []int
	got, err := FilterPositions(axes.Ancestor, nil, z, z[:0], func(_ xpath.Expr, c semantics.Context) (semantics.Value, error) {
		seen = append(seen, c.Pos)
		if c.Size != 4 {
			t.Errorf("size = %d, want 4", c.Size)
		}
		return semantics.Boolean(c.Pos <= 2), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(xmltree.NodeSet{30, 40}) {
		t.Errorf("ancestor[position() <= 2] kept %v, want [30 40]", got)
	}
	if len(seen) != 4 || seen[0] != 4 || seen[3] != 1 {
		t.Errorf("reverse positions = %v, want 4..1", seen)
	}
	got, _ = FilterPositions(axes.Child, nil, xmltree.NodeSet{10, 20, 30}, nil, func(_ xpath.Expr, c semantics.Context) (semantics.Value, error) {
		return semantics.Boolean(c.Pos == c.Size), nil
	}, nil)
	if !got.Equal(xmltree.NodeSet{30}) {
		t.Errorf("child[last()] kept %v, want [30]", got)
	}
}

// TestPairLoopZeroAlloc pins the property the index-served positional
// path was introduced for: with a reused buffer, one previous context
// node's child::name candidates and their rank-and-filter pass allocate
// nothing.
func TestPairLoopZeroAlloc(t *testing.T) {
	var b strings.Builder
	b.WriteString(`<root>`)
	for i := 0; i < 64; i++ {
		b.WriteString(`<c>x</c><e/>`)
	}
	b.WriteString(`</root>`)
	d, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	d.Index() // build the index outside the measured region
	x := d.DocumentElement()
	s := step(t, "child::c[position() = last() - 1]")
	buf := make(xmltree.NodeSet, 0, 64)
	loop := NewPairLoop(d, s, nil, func(_ xpath.Expr, c semantics.Context) (semantics.Value, error) {
		return semantics.Boolean(c.Pos == c.Size-1), nil
	})
	allocs := testing.AllocsPerRun(200, func() {
		z, _ := loop.RankedCandidates(x, buf)
		if len(z) != 1 {
			t.Fatalf("child::c[position() = last() - 1] kept %d nodes, want 1", len(z))
		}
	})
	if allocs != 0 {
		t.Errorf("pair loop body allocates %v per run, want 0", allocs)
	}
}

// TestPairLoopCandidatesWalkThePostingList: for child::name the loop
// reads each previous context node's candidates off one walk of name's
// posting list. They equal StepCandidates for nested same-named
// elements, for nodes without a candidate, in document order (the order
// the loops use) and out of it.
func TestPairLoopCandidatesWalkThePostingList(t *testing.T) {
	d, err := xmltree.ParseString(`<r><a><a><a/><b/></a><b/><a/></a><b><a/></b><a/><c/><a><b><a/></b></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	var all xmltree.NodeSet
	for i := 0; i < d.Len(); i++ {
		all = append(all, xmltree.NodeID(i))
	}
	backwards := append(xmltree.NodeSet(nil), all...).Reversed()
	for _, q := range []string{"child::a", "child::b", "child::nosuch", "child::*", "descendant::a"} {
		s := step(t, q)
		for _, order := range []xmltree.NodeSet{all, backwards, {4, 1, 4, 9, 2}} {
			loop := NewPairLoop(d, s, nil, nil)
			var buf xmltree.NodeSet
			for _, x := range order {
				if buf, err = loop.Candidates(x, buf); err != nil {
					t.Fatal(err)
				}
				if want := StepCandidates(d, s.Axis, s.Test, x); !buf.Equal(want) {
					t.Errorf("%s at %d: %v, want %v", q, x, buf, want)
				}
			}
		}
	}
}

// TestPairLoopReaching: Reaching is xs ∩ χ⁻¹(ys), except that for
// child::name with candidates no predicate has narrowed the posting list
// stands in for the inverse axis and xs comes back as it is.
func TestPairLoopReaching(t *testing.T) {
	d, err := xmltree.ParseString(`<r><a><a><a/><b/></a><b/><a/></a><b><a/></b><a/><c/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	var all xmltree.NodeSet
	for i := 0; i < d.Len(); i++ {
		all = append(all, xmltree.NodeID(i))
	}
	for _, q := range []string{"child::a", "child::*", "descendant::a"} {
		s := step(t, q)
		loop := NewPairLoop(d, s, nil, nil)
		ys := StepCandidatesSet(d, s.Axis, s.Test, all)
		some := ys[len(ys)-1:]
		if got, want := loop.Reaching(all, some, true), ContextsReaching(d, s.Axis, all, some); !got.Equal(want) {
			t.Errorf("%s, narrowed: %v, want %v", q, got, want)
		}
		want := ContextsReaching(d, s.Axis, all, ys)
		if q == "child::a" {
			want = all
		}
		if got := loop.Reaching(all, ys, false); !got.Equal(want) {
			t.Errorf("%s: %v, want %v", q, got, want)
		}
	}
}

// TestVerdictsPerPositionAndSize: a predicate whose relevant context
// lacks cn and that is built of position(), last() and numbers alone is
// decided by its rank test, with no interpreter call at all; one the
// compiler refuses is evaluated once per ⟨cp, cs⟩ over all the previous
// context nodes of a loop; one that reads cn at every candidate. The
// survivors are the same either way.
func TestVerdictsPerPositionAndSize(t *testing.T) {
	d, err := xmltree.ParseString(`<r><a><c/><c/><c/></a><a><c/><c/><c/></a><a><c/><c/></a><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	as := d.Index().Named("a")
	for _, tc := range []struct {
		step      string
		wantEvals int // 0 compiled; distinct ⟨cp, cs⟩: sizes 3 and 2; or all 8 candidates
		wantKept  int
	}{
		{"child::c[position() = last()]", 0, 3},
		{"child::c[position() mod 2 = 1]", 0, 5},
		{"child::c[position() = 2][position() = last()]", 0, 3},
		{"child::c[position() = count(/r/a) - 2]", 5, 3},
		{"child::c[position() = count(/r/a) - 2][last()]", 5, 3},
		{"child::c[position() = 1 and self::c]", 8, 3},
	} {
		s := step(t, tc.step)
		evals, kept := 0, 0
		loop := NewPairLoop(d, s, nil, func(p xpath.Expr, c semantics.Context) (semantics.Value, error) {
			evals++
			// The test's stand-in for an engine: count(/r/a) is 4, and
			// the one predicate reading cn asks for position 1.
			if strings.Contains(p.String(), "count") {
				return semantics.Boolean(c.Pos == 2), nil
			}
			return semantics.Boolean(c.Pos == 1), nil
		})
		var buf xmltree.NodeSet
		for _, a := range as {
			z, err := loop.RankedCandidates(a, buf)
			if err != nil {
				t.Fatal(err)
			}
			kept += len(z)
			buf = z
		}
		if evals != tc.wantEvals || kept != tc.wantKept {
			t.Errorf("%s: %d evaluations keeping %d, want %d keeping %d", tc.step, evals, kept, tc.wantEvals, tc.wantKept)
		}
	}
}
