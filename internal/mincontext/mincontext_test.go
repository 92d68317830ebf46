package mincontext

import (
	"testing"

	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const fig8 = `<a id="10"><b id="11"><c id="12">21 22</c><c id="13">23 24</c><d id="14">100</d></b><b id="21"><c id="22">11 12</c><d id="23">13 14</d><d id="24">100</d></b></a>`

func ctxAt(n xmltree.NodeID) semantics.Context {
	return semantics.Context{Node: n, Pos: 1, Size: 1}
}

// TestExample81 reproduces the running example of Section 8 from the
// context ⟨x10, 1, 1⟩.
func TestExample81(t *testing.T) {
	d := xmltree.MustParseString(fig8)
	ev := New(d)
	e := xpath.MustParse("/descendant::*/descendant::*[position() > last()*0.5 or self::* = 100]")
	v, err := ev.Evaluate(e, ctxAt(d.IDOf("10")))
	if err != nil {
		t.Fatal(err)
	}
	want := xmltree.NewNodeSet(d.IDOf("13"), d.IDOf("14"), d.IDOf("21"),
		d.IDOf("22"), d.IDOf("23"), d.IDOf("24"))
	if !v.Set.Equal(want) {
		t.Errorf("Q = %v, want %v", v.Set, want)
	}
}

// TestRelevExample82 checks the Relev sets computed in Example 8.2.
func TestRelevExample82(t *testing.T) {
	cases := map[string]xpath.Relev{
		"descendant::*":             xpath.RelevNode,
		"position()":                xpath.RelevPos,
		"last()":                    xpath.RelevSize,
		"0.5":                       0,
		"self::*":                   xpath.RelevNode,
		"100":                       0,
		"last() * 0.5":              xpath.RelevSize,
		"position() > last() * 0.5": xpath.RelevPos | xpath.RelevSize,
		"self::* = 100":             xpath.RelevNode,
		"position() > last() * 0.5 or self::* = 100": xpath.RelevNode | xpath.RelevPos | xpath.RelevSize,
		"/descendant::*": 0, // absolute: no context needed
	}
	for q, want := range cases {
		e := xpath.MustParse(q)
		if got := xpath.RelevantContext(e); got != want {
			t.Errorf("Relev(%s) = %v, want %v", q, got, want)
		}
	}
}

// TestOutermostPathSetSemantics: outermost location paths propagate node
// sets, so queries rooted at different contexts still get correct
// results.
func TestOutermostPathSetSemantics(t *testing.T) {
	d := xmltree.MustParseString(`<a><b><c/></b><b><c/><c/></b></a>`)
	ev := New(d)
	bs := d.Children(d.DocumentElement())
	// child::c from b1 has 1 node, from b2 has 2.
	v1, err := ev.Evaluate(xpath.MustParse("child::c"), ctxAt(bs[0]))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ev.Evaluate(xpath.MustParse("child::c"), ctxAt(bs[1]))
	if err != nil {
		t.Fatal(err)
	}
	if len(v1.Set) != 1 || len(v2.Set) != 2 {
		t.Errorf("child::c = %v / %v", v1.Set, v2.Set)
	}
}

// TestNonPathQueries exercises Algorithm 8.5's else branch
// (eval_by_cnode_only + eval_single_context).
func TestNonPathQueries(t *testing.T) {
	d := xmltree.MustParseString(fig8)
	ev := New(d)
	cases := map[string]float64{
		"count(//c)":              3,
		"count(//b) + count(//d)": 5,
		"sum(//d)":                313, // 100 + 13 14→13? strval("13 14") is NaN… see below
	}
	// sum over d nodes: "100", "13 14", "100" → 100 + NaN + 100 = NaN.
	delete(cases, "sum(//d)")
	for q, want := range cases {
		v, err := ev.Evaluate(xpath.MustParse(q), ctxAt(d.RootID()))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if v.Num != want {
			t.Errorf("%s = %v, want %v", q, v.Num, want)
		}
	}
	// Boolean query.
	v, err := ev.Evaluate(xpath.MustParse("boolean(//c) and not(//nosuch)"), ctxAt(d.RootID()))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Bool {
		t.Error("boolean query wrong")
	}
}

// TestPrecomputedHook verifies that a table complete on arrival, as
// fillBottomUp installs it in an OptMinContext run, short-circuits
// evaluation: the run reads the predicate off it and computes nothing.
func TestPrecomputedHook(t *testing.T) {
	d := xmltree.MustParseString(`<a><b/><c/></a>`)
	ev := New(d)
	// Parse //*[boolean(child::b)]; pre-set the predicate to be true
	// everywhere, which changes the result to all elements.
	e := xpath.MustParse("//*[child::b]").(*xpath.Path)
	pred := e.Steps[1].Preds[0] // boolean(child::b)
	all := xmltree.NewBitset(d.Len())
	all.Fill()
	run, err := ev.Begin(nil, nil, e, nil)
	if err != nil {
		t.Fatal(err)
	}
	run.tabs[xpath.Slot(pred)].truth, run.tabs[xpath.Slot(pred)].whole = ext{neg: true}, true
	v, err := run.Evaluate(ctxAt(d.RootID()))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Set) != 3 { // a, b, c all pass the forced predicate
		t.Errorf("precomputed-true predicate: got %v, want all 3 elements", v.Set)
	}
}

// TestUnionTopLevel exercises the π1 | π2 case of
// eval_outermost_locpath.
func TestUnionTopLevel(t *testing.T) {
	d := xmltree.MustParseString(`<a><b/><c/></a>`)
	ev := New(d)
	v, err := ev.Evaluate(xpath.MustParse("//b | //c"), ctxAt(d.RootID()))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Set) != 2 {
		t.Errorf("//b | //c = %v", v.Set)
	}
}

func TestIDHeadOutermost(t *testing.T) {
	d := xmltree.MustParseString(fig8)
	ev := New(d)
	v, err := ev.Evaluate(xpath.MustParse("id('11')/child::c"), ctxAt(d.RootID()))
	if err != nil {
		t.Fatal(err)
	}
	want := xmltree.NewNodeSet(d.IDOf("12"), d.IDOf("13"))
	if !v.Set.Equal(want) {
		t.Errorf("id('11')/child::c = %v, want %v", v.Set, want)
	}
}
