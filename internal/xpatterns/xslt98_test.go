package xpatterns

import (
	"testing"

	"repro/internal/naive"
	"repro/internal/semantics"
	"repro/internal/topdown"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestXSLT98PredicatesInQueries evaluates the extension predicates of
// the December 1998 XSLT draft through the query syntax, comparing the
// linear-time XPatterns evaluator with the general engines (which
// resolve the functions per node via semantics.Eval).
func TestXSLT98PredicatesInQueries(t *testing.T) {
	d := xmltree.MustParseString(
		`<r><a/>text<b/><a/><c><a/>more<a/></c></r>`)
	ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
	queries := []string{
		"//a[first-of-type()]",
		"//a[last-of-type()]",
		"//*[first-of-any()]",
		"//*[last-of-any()]",
		"//a[first-of-type() and last-of-type()]",
		"//c/a[not(first-of-any())]",
	}
	xp := New(d)
	nv := naive.New(d)
	td := topdown.New(d)
	for _, q := range queries {
		e := xpath.MustParse(q)
		if !InFragment(e) {
			t.Errorf("InFragment(%q) = false", q)
			continue
		}
		want, err := nv.Evaluate(e, ctx)
		if err != nil {
			t.Fatalf("naive(%q): %v", q, err)
		}
		gotTD, err := td.Evaluate(e, ctx)
		if err != nil {
			t.Fatalf("topdown(%q): %v", q, err)
		}
		if !gotTD.Equal(want) {
			t.Errorf("topdown(%q) = %+v, naive = %+v", q, gotTD, want)
		}
		got, err := xp.Evaluate(e, ctx)
		if err != nil {
			t.Errorf("xpatterns(%q): %v", q, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("xpatterns(%q) = %+v, naive = %+v", q, got, want)
		}
	}
}

// TestXSLT98Pinned pins concrete answers.
func TestXSLT98Pinned(t *testing.T) {
	d := xmltree.MustParseString(`<r><a/><b/><a/><c><a/><a/></c></r>`)
	ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
	ev := New(d)
	sel := func(q string) xmltree.NodeSet {
		t.Helper()
		v, err := ev.Evaluate(xpath.MustParse(q), ctx)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return v.Set
	}
	// first-of-type a: the first a under r and the first a under c.
	if got := sel("//a[first-of-type()]"); len(got) != 2 {
		t.Errorf("//a[first-of-type()] = %v, want 2 nodes", got)
	}
	// b is both first and last of its type.
	if got := sel("//b[first-of-type() and last-of-type()]"); len(got) != 1 {
		t.Errorf("b both-boundaries = %v", got)
	}
	// last-of-any under r is c; under c it is the second a.
	got := sel("//*[last-of-any()]")
	names := map[string]int{}
	for _, n := range got {
		names[d.Name(n)]++
	}
	if names["c"] != 1 || names["a"] != 1 || names["r"] != 1 {
		t.Errorf("last-of-any = %v (names %v)", got, names)
	}
	// Text siblings are ignored: in <x><a/>t<b/></x> the a is still
	// first-of-any and b last-of-any.
	d2 := xmltree.MustParseString(`<x><a/>t<b/></x>`)
	ev2 := New(d2)
	v, err := ev2.Evaluate(xpath.MustParse("//a[first-of-any()]"),
		semantics.Context{Node: d2.RootID(), Pos: 1, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Set) != 1 {
		t.Errorf("a with text sibling should still be first-of-any")
	}
}
