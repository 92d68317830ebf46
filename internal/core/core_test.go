package core

import (
	"context"
	"errors"
	"os"
	"strings"
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
	// The one document-dependent row: full XPath with predicates nested
	// three deep runs TopDown up to 1024 nodes.
	deep, flat := MustCompile("//a[b[c[count(d) > 1]]]"), MustCompile("//a[b[count(c) > 1]]")
	small, large := workload.Doc(500), workload.Doc(1100)
	if small.Len() > smallDocNodes || large.Len() <= smallDocNodes {
		t.Fatalf("|D| = %d and %d do not straddle %d", small.Len(), large.Len(), smallDocNodes)
	}
	for _, c := range []struct {
		d    *Document
		q    *Query
		want Strategy
	}{
		{small, deep, TopDown}, {large, deep, OptMinContext}, {small, flat, OptMinContext},
	} {
		if got := NewEngine(c.d, Auto).StrategyFor(c.q); got != c.want {
			t.Errorf("StrategyFor(%s) at |D| = %d: %v, want %v", c.q, c.d.Len(), got, c.want)
		}
	}
	// A fixed strategy ignores the table.
	for _, q := range []*Query{MustCompile("//b"), deep} {
		if got := NewEngine(small, MinContext).StrategyFor(q); got != MinContext {
			t.Errorf("fixed MinContext engine runs %s with %v", q, got)
		}
	}
}

// tableSizes are the |D| columns of testdata/auto_table.txt.
var tableSizes = []int{0, 1, 52, 614, 1024, 1025, 20706}

// forEachTableRow calls f with every query of testdata/auto_table.txt
// and the strategy names planner.Rules picked for it at tableSizes.
func forEachTableRow(t *testing.T, f func(q *Query, want []string)) {
	t.Helper()
	data, err := os.ReadFile("testdata/auto_table.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		picks, src, _ := strings.Cut(line, "\t")
		want := strings.Fields(picks)
		if len(want) != len(tableSizes) {
			t.Fatalf("malformed row %q", line)
		}
		f(MustCompile(src), want)
		rows++
	}
	if rows < 300 {
		t.Fatalf("only %d rows read", rows)
	}
}

// TestAutoTableMatchesRules: collapsing the planner into Explain changed
// no decision. The expected table was dumped from the parent commit's
// planner.Rules over the conformance batteries, the benchmark's 24 pool
// templates, the paper's experiment queries and boundary rows
// (predicate depth 2 vs 3, |D| 1024 vs 1025, |D| unknown).
func TestAutoTableMatchesRules(t *testing.T) {
	forEachTableRow(t, func(q *Query, want []string) {
		for i, n := range tableSizes {
			got, why := Explain(q, n)
			if got.String() != want[i] {
				t.Errorf("Explain(%s, %d) = %v, planner.Rules picked %s", q, n, got, want[i])
			}
			if why == "" {
				t.Errorf("Explain(%s, %d): no rationale", q, n)
			}
		}
	})
}

// TestAutoNeverPicksDominated: the exponential baselines and the full
// context-value tables of BottomUp exist for experiments and explicit
// -strategy requests; the table never routes to them.
func TestAutoNeverPicksDominated(t *testing.T) {
	forEachTableRow(t, func(q *Query, _ []string) {
		for _, n := range tableSizes {
			switch s, _ := Explain(q, n); s {
			case Auto, Naive, DataPool, BottomUp:
				t.Errorf("Explain(%s, %d) = %v", q, n, s)
			}
		}
	})
}

func TestFragmentLabel(t *testing.T) {
	want := map[Fragment]string{
		FragmentCoreXPath: "core_xpath",
		FragmentXPatterns: "xpatterns",
		FragmentWadler:    "wadler",
		FragmentFullXPath: "full_xpath",
	}
	for f, label := range want {
		if got := f.Label(); got != label {
			t.Fatalf("%v.Label() = %q, want %q", f, got, label)
		}
	}
}

// TestShapePredDepth: depth is counted on the optimized tree, over
// steps, filter heads and function arguments alike.
func TestShapePredDepth(t *testing.T) {
	for src, want := range map[string]int{
		"//a[b[c[d]]]":                3,
		"//t":                         0,
		"//a/b[c]//d":                 1,
		"count(//a[b[c]]) + 1":        2,
		"(//a[b])[c[d[e]]]/f":         3,
		"//a[count(b[c[d[e]]]) > -1]": 4,
	} {
		if got := MustCompile(src).PredDepth(); got != want {
			t.Errorf("PredDepth(%s) = %d, want %d", src, got, want)
		}
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

// TestFragmentEnginesRejectOutside: a fragment algebra named explicitly
// refuses a query the classification places outside its fragment, on
// every document — the algebras themselves notice only when the data
// leads them to the offending node (corexpath ignored an id() head and
// answered the first two queries with an empty set; xpatterns did the
// same for the last one on a document without an a).
func TestFragmentEnginesRejectOutside(t *testing.T) {
	root := func(d *Document) Context { return Context{Node: d.RootID(), Pos: 1, Size: 1} }
	auction := workload.Auction(1, 30)
	noA, _ := ParseString(`<r/>`)
	withA, _ := ParseString(`<a><b><c><d/></c></b></a>`)
	for _, c := range []struct {
		d     *Document
		s     Strategy
		query string
	}{
		{noA, CoreXPath, "count(//b)"},
		{noA, XPatterns, "count(//b)"},
		{auction, CoreXPath, "id('person1')/name"},
		{auction, CoreXPath, "id(//bidder/personref)/name"},
		{noA, XPatterns, "//a[b[c[count(d) = position()]]]"},
		{withA, XPatterns, "//a[b[c[count(d) = position()]]]"},
	} {
		v, err := NewEngine(c.d, c.s).Evaluate(MustCompile(c.query), root(c.d))
		if !errors.Is(err, ErrNotInFragment) {
			t.Errorf("%v on %s: value %+v, err %v; want ErrNotInFragment", c.s, c.query, v, err)
		}
	}
	// Inside the fragment — and Core XPath is inside XPatterns — nothing
	// changed.
	for query, want := range map[string]int{"id('person1')/name": 1, "id(//bidder/personref)/name": 14, "//person/name": 15} {
		v, err := NewEngine(auction, Auto).EvaluateStrategy(context.Background(), MustCompile(query), root(auction), XPatterns)
		if err != nil || len(v.Set) != want {
			t.Errorf("XPatterns on %s: %d nodes, err %v; want %d", query, len(v.Set), err, want)
		}
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
