package core

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/naive"
	"repro/internal/wadler"
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

// TestAutoStrategySelection: Auto picks OptMinContext for every
// fragment, over every document — Core XPath and XPatterns as well as
// full XPath with predicates nested three deep, on a tiny document as on
// a large one.
func TestAutoStrategySelection(t *testing.T) {
	cases := map[string]Strategy{
		"//b[child::c]":             OptMinContext,
		"//b[child::c = 'x']":       OptMinContext,
		"//b[position() != last()]": OptMinContext,
		"count(//b)":                OptMinContext,
		"//a[b[c[count(d) > 1]]]":   OptMinContext,
	}
	tiny, _ := ParseString(`<a><b/></a>`)
	for _, d := range []*Document{tiny, workload.Doc(500), workload.Doc(1100)} {
		en := NewEngine(d, Auto)
		for src, want := range cases {
			if got := en.StrategyFor(MustCompile(src)); got != want {
				t.Errorf("StrategyFor(%q) at |D| = %d: %v, want %v", src, d.Len(), got, want)
			}
		}
	}
	// A fixed strategy ignores the table.
	for _, src := range []string{"//b", "//a[b[c[count(d) > 1]]]"} {
		if got := NewEngine(tiny, MinContext).StrategyFor(MustCompile(src)); got != MinContext {
			t.Errorf("fixed MinContext engine runs %s with %v", src, got)
		}
	}
}

// forEachTableRow calls f with every query of testdata/auto_table.txt
// and the name of the strategy Auto must pick for it.
func forEachTableRow(t *testing.T, f func(q *Query, want string)) {
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
		want, src, ok := strings.Cut(line, "\t")
		if !ok || strings.ContainsAny(want, " \t") {
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
// no decision but the |D| row's. The expected table was dumped from
// planner.Rules over the conformance batteries, the benchmark's 24 pool
// templates, the paper's experiment queries and boundary rows
// (predicate depth 2 vs 3), and its seven topdown rows were then turned
// into optmincontext when the document-size row went.
func TestAutoTableMatchesRules(t *testing.T) {
	forEachTableRow(t, func(q *Query, want string) {
		got, why := Explain(q)
		if got.String() != want {
			t.Errorf("Explain(%s) = %v, want %s", q, got, want)
		}
		if why == "" {
			t.Errorf("Explain(%s): no rationale", q)
		}
	})
}

// TestAutoNeverPicksDominated: the table resolves every query to
// OptMinContext — never to Auto itself, and never to TopDown or
// MinContext, which OptMinContext dominates (the exponential baselines
// and Section 6's tables are not strategies at all), nor to the two
// fragment gates, which run the same evaluation and only refuse more.
func TestAutoNeverPicksDominated(t *testing.T) {
	forEachTableRow(t, func(q *Query, _ string) {
		if s, _ := Explain(q); s != OptMinContext {
			t.Errorf("Explain(%s) = %v", q, s)
		}
	})
}

// TestCoreXPathInWadler: Figure 1's inclusion on every row of the table.
// A Core XPath query lies in the Extended Wadler Fragment, so the run
// computes each of its predicates bottom-up as a whole table; an
// XPatterns query does too.
func TestCoreXPathInWadler(t *testing.T) {
	forEachTableRow(t, func(q *Query, _ string) {
		if q.Fragment() <= FragmentXPatterns && !wadler.InFragment(q.Expr()) {
			t.Errorf("%s: %v but not in the Extended Wadler Fragment", q, q.Fragment())
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

func TestAllStrategiesAgree(t *testing.T) {
	d := workload.Catalog(20)
	queries := []string{
		"//product[price]",
		"//product[@category = 'audio']/name",
		"count(//product)",
		"//product[position() = last()]",
		"//product[discontinued]/price",
	}
	for _, src := range queries {
		q := MustCompile(src)
		ref, err := naive.New(d).Evaluate(q.Literal(), Context{Node: d.RootID(), Pos: 1, Size: 1})
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		for _, s := range []Strategy{TopDown, MinContext, OptMinContext, Auto} {
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

// TestModelDeviations pins the data model's two known departures from
// XPath 1.0 §5.4, where every element has a namespace node for each
// namespace in scope — those declared on its ancestors and the implicit
// xml prefix. Here names are opaque strings (the paper's model): a
// namespace node is a declaration, attached to the element that makes
// it, so (1) descendants inherit none, and (2) no element has an xml
// namespace node. The naive oracle and every strategy a server can run
// give today's answer; changing either is a decision this test makes
// visible. The XPath 1.0 answer is in each comment.
func TestModelDeviations(t *testing.T) {
	d, err := ParseString(`<r xmlns:p="urn:p"><c><d/></c></r>`)
	if err != nil {
		t.Fatal(err)
	}
	root := Context{Node: d.RootID(), Pos: 1, Size: 1}
	for query, want := range map[string]int{
		"/r/namespace::*":    1, // 2: p and xml
		"/r/namespace::p":    1, // 1
		"//c/namespace::*":   0, // 2: p inherited, and xml
		"//d/namespace::p":   0, // 1: inherited from r
		"//namespace::p":     1, // 3: one on each of r, c and d
		"//namespace::xml":   0, // 3: one on each element
		"/r/namespace::*/..": 1, // 1: r is the parent of its namespace nodes
	} {
		q := MustCompile(query)
		v, err := naive.New(d).Evaluate(q.Literal(), root)
		if err != nil || len(v.Set) != want {
			t.Errorf("%s via naive: %d nodes, err %v; want %d", query, len(v.Set), err, want)
		}
		for _, s := range []Strategy{Auto, TopDown, MinContext, OptMinContext, CoreXPath, XPatterns} {
			got, err := NewEngine(d, s).Select(q)
			if err != nil || len(got) != want {
				t.Errorf("%s via %v: %d nodes, err %v; want %d", query, s, len(got), err, want)
			}
		}
	}
}

// TestQueryKeepsBothTrees: Literal is the normal form xpath.Parse
// returns and the naive baseline evaluates, Expr the optimized tree
// every strategy evaluates.
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
	// //b[1] and /descendant::b[1] differ on this document; naive on the
	// literal tree and every strategy on the optimized one must give the
	// former.
	d, _ := ParseString(`<r><a><b/><b/></a><a><b/></a></r>`)
	first := MustCompile("//b[1]")
	if v, err := naive.New(d).Evaluate(first.Literal(), Context{Node: d.RootID(), Pos: 1, Size: 1}); err != nil || len(v.Set) != 2 {
		t.Errorf("//b[1] via naive selects %d nodes (err %v), want 2", len(v.Set), err)
	}
	for _, s := range []Strategy{TopDown, MinContext, OptMinContext, Auto} {
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
	for _, s := range []Strategy{Auto, TopDown, MinContext, OptMinContext, CoreXPath, XPatterns} {
		got, ok := StrategyByName(s.String())
		if !ok || got != s {
			t.Errorf("round trip %v failed", s)
		}
	}
	if len(strategyNames) != 6 {
		t.Errorf("%d strategies named, want Auto and the five a server may run: %v", len(strategyNames), strategyNames)
	}
	// The oracles are not strategies: a server cannot be configured to
	// run them.
	for _, name := range []string{"quantum", "naive", "datapool", "bottomup"} {
		if _, ok := StrategyByName(name); ok {
			t.Errorf("%q resolved to a strategy", name)
		}
	}
}
