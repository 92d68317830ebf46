package core

import (
	"testing"

	"repro/internal/workload"
	"repro/internal/xpath"
)

func TestCompileAndSelect(t *testing.T) {
	d, err := ParseString(`<a><b/><b/><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Select(d, "//b")
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 {
		t.Errorf("Select(//b) = %v", s)
	}
	if _, err := Select(d, "count(//b)"); err == nil {
		t.Error("Select on a number query must error")
	}
}

func TestFragmentClassification(t *testing.T) {
	cases := map[string]Fragment{
		"//b[child::c]":                FragmentCoreXPath,
		"//b[child::c = 'x']":          FragmentXPatterns,
		"//b[position() != last()]":    FragmentWadler,
		"//b[count(child::*) > 1]":     FragmentFullXPath,
		"/descendant::a/child::b":      FragmentCoreXPath,
		"id('x')/child::b":             FragmentXPatterns,
		"//*[. = '100']":               FragmentXPatterns,
		"//*[position() > last()*0.5]": FragmentWadler,
		"count(//b)":                   FragmentFullXPath,
	}
	for src, want := range cases {
		q := MustCompile(src)
		if q.Fragment() != want {
			t.Errorf("Fragment(%q) = %v, want %v", src, q.Fragment(), want)
		}
	}
}

func TestAutoStrategySelection(t *testing.T) {
	d, _ := ParseString(`<a><b/></a>`)
	en := NewEngine(d, Auto)
	cases := map[string]Strategy{
		"//b[child::c]":             CoreXPath,
		"//b[child::c = 'x']":       XPatterns,
		"//b[position() != last()]": OptMinContext,
		"count(//b)":                OptMinContext,
	}
	for src, want := range cases {
		if got := en.StrategyFor(MustCompile(src)); got != want {
			t.Errorf("StrategyFor(%q) = %v, want %v", src, got, want)
		}
	}
	// A fixed strategy overrides Auto selection.
	en2 := NewEngine(d, TopDown)
	if en2.StrategyFor(MustCompile("//b")) != TopDown {
		t.Error("fixed strategy not honoured")
	}
}

func TestAllStrategiesAgree(t *testing.T) {
	d := workload.Catalog(20)
	queries := []string{
		"//product[price]",
		"//product[@category = 'audio']/name",
		"count(//product)",
		"//product[position() = last()]",
		"//product[discontinued]/price",
	}
	strategies := []Strategy{Naive, DataPool, BottomUp, TopDown, MinContext, OptMinContext, Auto}
	for _, src := range queries {
		q := MustCompile(src)
		ref, err := NewEngine(d, Naive).Evaluate(q, Context{Node: d.RootID(), Pos: 1, Size: 1})
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		for _, s := range strategies[1:] {
			got, err := NewEngine(d, s).Evaluate(q, Context{Node: d.RootID(), Pos: 1, Size: 1})
			if err != nil {
				t.Errorf("%q via %v: %v", src, s, err)
				continue
			}
			if !got.Equal(ref) {
				t.Errorf("%q via %v: %+v != %+v", src, s, got, ref)
			}
		}
	}
}

// TestQueryKeepsBothTrees: Literal is the normal form xpath.Parse
// returns, Expr the optimized tree every strategy but the two baselines
// evaluates, and the rewrite happens after variable substitution — [$w]
// with a numeric binding is positional and blocks the fusion of its
// step.
func TestQueryKeepsBothTrees(t *testing.T) {
	q := MustCompile("//a[1]//b[c]")
	if got, want := q.Literal().String(), xpath.MustParse("//a[1]//b[c]").String(); got != want {
		t.Errorf("Literal() = %s, want the parser's normal form %s", got, want)
	}
	if got, want := q.Expr().String(), "/descendant-or-self::node()/child::a[(position() = 1)]/descendant::b[boolean(child::c)]"; got != want {
		t.Errorf("Expr() = %s, want %s", got, want)
	}
	if q := MustCompile("/a/b[c]"); q.Expr() != q.Literal() {
		t.Error("a query no rule applies to must keep one tree")
	}
	bound, err := CompileWithBindings("//b[$w]/c", xpath.Bindings{"w": &xpath.Number{Val: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bound.Expr().String(), "/descendant-or-self::node()/child::b[(position() = 2)]/child::c"; got != want {
		t.Errorf("bound Expr() = %s, want %s", got, want)
	}
	bound, err = CompileWithBindings("//b[$w]/c", xpath.Bindings{"w": &xpath.Literal{Val: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bound.Expr().String(), "/descendant::b[boolean('x')]/child::c"; got != want {
		t.Errorf("bound Expr() = %s, want %s", got, want)
	}
	// //b[1] and /descendant::b[1] differ on this document; every
	// strategy, on whichever tree it runs, must give the former.
	d, _ := ParseString(`<r><a><b/><b/></a><a><b/></a></r>`)
	first := MustCompile("//b[1]")
	for _, s := range []Strategy{Naive, DataPool, BottomUp, TopDown, MinContext, OptMinContext, Auto} {
		got, err := NewEngine(d, s).Select(first)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(got) != 2 {
			t.Errorf("//b[1] via %v selects %d nodes, want 2", s, len(got))
		}
	}
}

func TestFragmentEnginesRejectOutside(t *testing.T) {
	d, _ := ParseString(`<a><b/></a>`)
	q := MustCompile("count(//b)")
	if _, err := NewEngine(d, CoreXPath).Evaluate(q, Context{Node: d.RootID(), Pos: 1, Size: 1}); err == nil {
		t.Error("CoreXPath strategy must reject count()")
	}
	if _, err := NewEngine(d, XPatterns).Evaluate(q, Context{Node: d.RootID(), Pos: 1, Size: 1}); err == nil {
		t.Error("XPatterns strategy must reject count()")
	}
}

func TestBindings(t *testing.T) {
	d, _ := ParseString(`<a><b x="1"/><b x="2"/></a>`)
	q, err := CompileWithBindings("//b[@x = $v]", xpath.Bindings{"v": &xpath.Literal{Val: "2"}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewEngine(d, Auto).Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 1 {
		t.Errorf("bound query = %v", s)
	}
	if _, err := Compile("//b[@x = $v]"); err == nil {
		t.Error("unbound variable must fail compilation")
	}
}

func TestNumericVariablePredicate(t *testing.T) {
	// [$w] with a numeric binding means [position() = $w] (Section 5's
	// normal form is computed after variable substitution).
	d, _ := ParseString(`<a><b/><b/><b/></a>`)
	q, err := CompileWithBindings("//b[$w]", xpath.Bindings{"w": &xpath.Number{Val: 2}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewEngine(d, Auto).Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 1 {
		t.Fatalf("//b[$w=2] = %v, want exactly the second b", s)
	}
	kids := d.Children(d.DocumentElement())
	if s[0] != kids[1] {
		t.Errorf("selected %v, want %v", s[0], kids[1])
	}
	// A string binding is a boolean predicate instead.
	q, err = CompileWithBindings("//b[$w]", xpath.Bindings{"w": &xpath.Literal{Val: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	s, err = NewEngine(d, Auto).Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 {
		t.Errorf("//b['x'] = %v, want all three (non-empty string is true)", s)
	}
}

func TestEvalString(t *testing.T) {
	d, _ := ParseString(`<a><b>hi</b></a>`)
	en := NewEngine(d, Auto)
	got, err := en.EvalString(MustCompile("string(//b)"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "hi" {
		t.Errorf("EvalString = %q", got)
	}
	got, err = en.EvalString(MustCompile("count(//b) + 1"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "2" {
		t.Errorf("EvalString = %q", got)
	}
}

func TestStrategyNames(t *testing.T) {
	for _, s := range []Strategy{Auto, Naive, DataPool, BottomUp, TopDown,
		MinContext, OptMinContext, CoreXPath, XPatterns} {
		got, ok := StrategyByName(s.String())
		if !ok || got != s {
			t.Errorf("round trip %v failed", s)
		}
	}
	if _, ok := StrategyByName("quantum"); ok {
		t.Error("bogus strategy resolved")
	}
}
