package wadler

import (
	"context"
	"testing"

	"repro/internal/semantics"
	"repro/internal/topdown"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestPropagateBackwardsDirect exercises propagate_path_backwards in
// isolation against brute force: X = {x | π(x) ∩ Y ≠ ∅}.
func TestPropagateBackwardsDirect(t *testing.T) {
	d := xmltree.MustParseString(
		`<a><b><c>1</c><c>2</c></b><b><c>3</c></b><d>2</d></a>`)
	td := topdown.New(d)
	paths := []string{
		"child::c",
		"child::b/child::c",
		"descendant::c",
		"following-sibling::*/child::c",
		"child::c[position() = 2]",
		"child::c[last()]",
	}
	// Y = all text-value "2" nodes' parents… keep it simple: Y = all c
	// and d elements.
	var y xmltree.NodeSet
	for i := 0; i < d.Len(); i++ {
		n := xmltree.NodeID(i)
		if d.Name(n) == "c" || d.Name(n) == "d" {
			y = append(y, n)
		}
	}
	for _, q := range paths {
		p := xpath.MustParse(q).(*xpath.Path)
		st, err := newState(context.Background(), d, p)
		if err != nil {
			t.Fatal(err)
		}
		got, everywhere, err := st.back().Reach(p, y)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if everywhere {
			t.Errorf("%s: a relative path holds everywhere", q)
		}
		var want xmltree.NodeSet
		for i := 0; i < d.Len(); i++ {
			x := xmltree.NodeID(i)
			v, err := td.Evaluate(p, semantics.Context{Node: x, Pos: 1, Size: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !v.Set.Intersect(y).IsEmpty() {
				want = append(want, x)
			}
		}
		if !got.Equal(want) {
			t.Errorf("%s: backward %v, brute force %v", q, got, want)
		}
	}
}

// TestHoldsEverywhereIsAFlag: a path that does not start at the context
// node reaches Y from every node or from none, and says so with the
// boolean instead of enumerating dom; a tree without slots is refused.
func TestHoldsEverywhereIsAFlag(t *testing.T) {
	d := xmltree.MustParseString(`<a><b><c>1</c></b><b id="x"/><d>2</d></a>`)
	cs := d.Index().Named("c")
	for q, want := range map[string]bool{
		"/a/b/c": true, "//c": true, "/a/c": false, "/a/d/c": false,
		"id('x')/preceding-sibling::b/c": true, "id('nobody')/c": false, "id('x')/c": false,
	} {
		p := xpath.MustParse(q)
		st, err := newState(context.Background(), d, p)
		if err != nil {
			t.Fatal(err)
		}
		reach, everywhere, err := st.back().Reach(p, cs)
		if err != nil || reach != nil || everywhere != want {
			t.Errorf("%s: reach %v, everywhere %v, err %v; want no set and %v", q, reach, everywhere, err, want)
		}
	}
	byHand := &xpath.Call{Name: "boolean", Args: []xpath.Expr{xpath.MustParse("//c")}}
	if _, err := New(d).Evaluate(byHand, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}); err == nil {
		t.Error("a hand-built tree must be refused")
	}
}

// TestEvalBottomUpPathRelOps covers each RelOp and operand typing of
// eval_bottomup_path.
func TestEvalBottomUpPathRelOps(t *testing.T) {
	d := xmltree.MustParseString(
		`<a><b>5</b><b>10</b><b>15</b><c>x</c></a>`)
	ref := topdown.New(d)
	ev := New(d)
	ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
	queries := []string{
		"//*[child::b = 10]",
		"//*[child::b != 10]",
		"//*[child::b < 6]",
		"//*[child::b <= 5]",
		"//*[child::b > 14]",
		"//*[child::b >= 15]",
		"//*[child::b = '10']",
		"//*[child::c = 'x']",
		"//*[child::b = true()]",      // bool comparison route
		"//*[child::b = /a/child::c]", // nset constant side (context free)
		"//*[10 = child::b]",          // flipped operand order
		"//*[6 > child::b]",
	}
	for _, q := range queries {
		e := xpath.MustParse(q)
		want, err := ref.Evaluate(e, ctx)
		if err != nil {
			t.Fatalf("topdown(%q): %v", q, err)
		}
		got, err := ev.Evaluate(e, ctx)
		if err != nil {
			t.Errorf("%q: %v", q, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("%q: optmincontext %+v, topdown %+v", q, got, want)
		}
		if ev.LastBottomUpPaths == 0 {
			t.Errorf("%q: expected at least one bottom-up path", q)
		}
	}
}

// TestPositionalPredicateInsideBottomUpPath covers the pair-loop branch
// of propagate_step_backwards.
func TestPositionalPredicateInsideBottomUpPath(t *testing.T) {
	d := xmltree.MustParseString(
		`<a><b><c>1</c><c>2</c></b><b><c>2</c><c>1</c></b></a>`)
	ref := topdown.New(d)
	ev := New(d)
	ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
	queries := []string{
		"//b[child::c[position() = 2] = '2']",
		"//b[child::c[last()] = 1]",
		"//b[child::c[position() != last()] = '1']",
	}
	for _, q := range queries {
		e := xpath.MustParse(q)
		want, err := ref.Evaluate(e, ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.Evaluate(e, ctx)
		if err != nil {
			t.Errorf("%q: %v", q, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("%q: optmincontext %+v, topdown %+v", q, got, want)
		}
	}
}

// TestPredicatesLeftToTheRun: a bottom-up path whose predicate holds a
// part the bottom-up phase does not take itself — a comparison of two
// context-free operands — is still propagated backwards; the predicate
// is tabulated by the MinContext run over the step's candidates, all of
// them where the step ranks.
func TestPredicatesLeftToTheRun(t *testing.T) {
	d := xmltree.MustParseString(
		`<a><b>5</b><b>10</b><b>15</b><c>x</c><d><b>10</b></d></a>`)
	ref := topdown.New(d)
	ev := New(d)
	ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
	for _, q := range []string{
		"//*[boolean(child::b[//c = 'x'])]",
		"//*[boolean(child::b[//c = 'y'])]",
		"//*[child::b[/a/c = /a/c] = 10]",
		"//*[boolean(child::b[position() = 2][//c = 'x'])]",
		"//*[child::b[position() = last() and //c = 'x'] = 10]",
	} {
		e := xpath.MustParse(q)
		if !InFragment(e) {
			t.Errorf("%q: not in the fragment", q)
		}
		want, err := ref.Evaluate(e, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ev.Evaluate(e, ctx); err != nil || !got.Equal(want) {
			t.Errorf("%q: optmincontext %+v, %v; topdown %+v", q, got, err, want)
		}
		if ev.LastBottomUpPaths == 0 {
			t.Errorf("%q: no bottom-up path", q)
		}
	}
}

// TestIDChainRestriction3 exercises nested id() heads in bottom-up
// paths.
func TestIDChainRestriction3(t *testing.T) {
	d := xmltree.MustParseString(
		`<r id="top"><x id="one">two</x><y id="two">one</y></r>`)
	ref := topdown.New(d)
	ev := New(d)
	ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
	for _, q := range []string{
		"//*[boolean(id('one'))]",
		"//*[id('one')/child::text() = 'two']",
		"//*[boolean(id(id('one')))]",
	} {
		e := xpath.MustParse(q)
		want, err := ref.Evaluate(e, ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.Evaluate(e, ctx)
		if err != nil {
			t.Errorf("%q: %v", q, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("%q: got %+v, want %+v", q, got, want)
		}
	}
}
