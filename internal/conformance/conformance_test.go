// Package conformance cross-checks every evaluation engine against the
// naive reference implementation of the W3C semantics: identical queries
// over identical documents must produce identical values. The paper's
// correctness theorems (6.2, 7.4, 9.2) assert exactly these agreements.
package conformance

import (
	"errors"
	"testing"

	"repro/internal/bottomup"
	"repro/internal/core"
	"repro/internal/datapool"
	"repro/internal/mincontext"
	"repro/internal/naive"
	"repro/internal/semantics"
	"repro/internal/topdown"
	"repro/internal/wadler"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xpatterns"
)

// engine is the common evaluation interface.
type engine interface {
	Evaluate(e xpath.Expr, c semantics.Context) (semantics.Value, error)
}

// engines returns every engine for a document, keyed by name. The naive
// engine is the reference. The two linear-time fragment algebras take
// part through fragmentEngine, so every differential test in this
// package also runs them on the queries they accept — they are what the
// servers pick for those queries.
//
// As in core, the two baselines evaluate the literal tree xpath.Parse
// returns and every other engine xpath.Optimize of it, so each
// differential test of this package also checks the rewrite.
func engines(d *xmltree.Document) map[string]engine {
	dp, _ := datapool.NewEvaluator(d)
	ref := naive.New(d)
	return map[string]engine{
		"naive":         ref,
		"datapool":      dp,
		"bottomup":      optimized{bottomup.New(d)},
		"bottomup-pair": optimized{bottomup.NewPair(d)},
		"topdown":       optimized{topdown.New(d)},
		"mincontext":    optimized{mincontext.New(d)},
		"optmincontext": optimized{wadler.New(d)},
		"corexpath":     optimized{fragmentEngine{xpatterns.InCoreXPath, xpatterns.New(d), ref}},
		"xpatterns":     optimized{fragmentEngine{xpatterns.InFragment, xpatterns.New(d), ref}},
	}
}

// optimized runs an engine on xpath.Optimize of the query it is given.
type optimized struct{ engine }

func (o optimized) Evaluate(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	return o.engine.Evaluate(xpath.Optimize(e), c)
}

// fragmentEngine runs an evaluator that accepts one fragment only on the
// queries of that fragment and answers the rest with the reference.
type fragmentEngine struct {
	accepts func(xpath.Expr) bool
	eval    engine
	ref     engine
}

func (f fragmentEngine) Evaluate(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	if !f.accepts(e) {
		return f.ref.Evaluate(e, c)
	}
	return f.eval.Evaluate(e, c)
}

// docs are the test documents: the paper's figures plus structural
// variety (depth, text, attributes, ids, mixed types).
var docs = map[string]string{
	"doc4":   `<a><b/><b/><b/><b/></a>`,
	"doc2":   `<a><b/><b/></a>`,
	"docP3":  `<a><b>c</b><b>c</b><b>c</b></a>`,
	"fig8":   `<a id="10"><b id="11"><c id="12">21 22</c><c id="13">23 24</c><d id="14">100</d></b><b id="21"><c id="22">11 12</c><d id="23">13 14</d><d id="24">100</d></b></a>`,
	"deep":   `<b><b><b><b><b/></b></b></b></b>`,
	"mixed":  `<r><x a="1">one<y>two</y></x><x a="2">three</x><z><!--c--><?pi d?>4</z></r>`,
	"idsdoc": `<t id="1"> 3 <t id="2"> 1 </t><t id="3"> 1 2 </t></t>`,
	"wide":   `<r><a>1</a><b>2</b><a>3</a><c>4</c><a>5</a><b>6</b></r>`,
	"attrs":  `<r><e a="1"/><a b="2" c="3"><b d="4"/></a></r>`,
}

// queries is the conformance battery. Every query must be accepted by
// the parser and produce equal values in every engine on every document.
var queries = []string{
	// Paths and axes.
	"/",
	"/child::a",
	"/descendant::b",
	"//b",
	"//*",
	"/descendant-or-self::node()",
	"//b/parent::*",
	"//b/ancestor::*",
	"//*/following-sibling::*",
	"//*/preceding-sibling::*",
	"//*/following::*",
	"//*/preceding::*",
	"//*/ancestor-or-self::*",
	"//text()",
	"//comment()",
	"//processing-instruction()",
	"//node()",
	"//@*",
	"//@a",
	"//x/@a/parent::*",
	// Preimages around attribute nodes (exact axes.EvalInverse).
	"//@*[parent::a]",
	"//@*[ancestor::r]",
	"//*[child::node()]",
	"self::node()",
	"..",
	".",
	// Example 6.4.
	"descendant::b/following-sibling::*[position() != last()]",
	// Experiment-style antagonist-axis queries.
	"//a/b/parent::a/b",
	"//a/b/parent::a/b/parent::a/b",
	"//*[parent::a/child::* = 'c']",
	"//a/b[count(parent::a/b) > 1]",
	"count(//b/following::b)",
	"count(//b//b)",
	// Positions.
	"//b[1]",
	"//b[last()]",
	"//b[position() = 2]",
	"//b[position() mod 2 = 1]",
	"//*[position() = last()]",
	"(//b)[2]",
	"(//b)[last()]",
	// Predicates: existence, nesting, boolean ops.
	"//*[child::b]",
	"//*[not(child::*)]",
	"//*[child::a and child::b]",
	"//*[child::a or child::c]",
	"//*[child::*[child::b]]",
	"//b[following-sibling::b[following-sibling::b]]",
	// Values, arithmetic, strings.
	"count(//*)",
	"sum(//a)",
	"count(//*) + count(//@*)",
	"count(//*) * 2 - 1",
	"count(//*) div 2",
	"count(//*) mod 3",
	"-count(//*)",
	"string(//b)",
	"string-length(string(//x))",
	"concat(string(//a), '-', string(//c))",
	"normalize-space(string(/))",
	"boolean(//b)",
	"boolean(//nonexistent)",
	"number('42') + 1",
	"floor(count(//*) div 2)",
	"ceiling(count(//*) div 2)",
	"round(count(//*) div 3)",
	"translate(string(//x), '123', 'abc')",
	"substring(string(/), 2, 3)",
	"starts-with(string(//b), '2')",
	"contains(string(/), '2')",
	// Comparisons with all type pairings.
	"//*[. = '100']",
	"//*[. = 100]",
	"//c = //d",
	"//c != //d",
	"//c < //d",
	"//b = 'c'",
	"2 > 1",
	"'a' = 'a'",
	"true() != false()",
	"//b > 1",
	// id().
	"id('1')",
	"id('10')",
	"id('11 21')",
	"id('12')/parent::*",
	"count(id('2 3'))",
	// Unions.
	"//a | //b",
	"//a | //a",
	"//a[1] | //b[last()]",
	// Name functions.
	"name(//*[last()])",
	"local-name(//*[2])",
	"count(//*[name() = 'b'])",
	// XSLT'98 extension predicates (Section 10.2).
	"//*[first-of-type()]",
	"//*[last-of-type()]",
	"//*[first-of-any()]",
	"//*[last-of-any()]",
	"//b[first-of-type()]/following-sibling::*",
	// Filter expressions with trailing steps.
	"(//b)[1]/parent::*",
	"(//*)[2]/child::*",
	// Deeply mixed: the paper's Example 8.1 and 11.2 shapes.
	"/descendant::*/descendant::*[position() > last()*0.5 or self::* = 100]",
	"/child::a/descendant::*[boolean(following::d[(position() != last()) and (preceding-sibling::*/preceding::* = 100)]/following::d)]",
	"/descendant::a[count(descendant::b/child::c) + position() < last()]/child::d",
}

func TestEnginesAgree(t *testing.T) {
	for dname, src := range docs {
		d := xmltree.MustParseString(src)
		es := engines(d)
		ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
		for _, q := range queries {
			e, err := xpath.Parse(q)
			if err != nil {
				t.Fatalf("parse %q: %v", q, err)
			}
			ref, err := es["naive"].Evaluate(e, ctx)
			if err != nil {
				t.Fatalf("doc %s query %q: naive: %v", dname, q, err)
			}
			for name, eng := range es {
				if name == "naive" {
					continue
				}
				got, err := eng.Evaluate(e, ctx)
				if err != nil {
					t.Errorf("doc %s query %q: %s: %v", dname, q, name, err)
					continue
				}
				if !got.Equal(ref) {
					t.Errorf("doc %s query %q: %s = %+v, naive = %+v", dname, q, name, got, ref)
				}
			}
		}
	}
}

// TestFragmentStrategiesRefuseOutside: over the whole battery and every
// fixture document, a fragment algebra named explicitly answers the
// queries core.Compile classified into its fragment and refuses every
// other one with core.ErrNotInFragment — on every document, never with
// a value, whatever the data would have led the algebra to notice.
func TestFragmentStrategiesRefuseOutside(t *testing.T) {
	for dname, src := range docs {
		d := xmltree.MustParseString(src)
		root := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
		for _, query := range queries {
			q := core.MustCompile(query)
			for s, inside := range map[core.Strategy]bool{
				core.CoreXPath: q.Fragment() == core.FragmentCoreXPath,
				core.XPatterns: q.Fragment() <= core.FragmentXPatterns,
			} {
				v, err := core.NewEngine(d, s).Evaluate(q, root)
				if inside && err != nil {
					t.Errorf("doc %s query %q (%v): %v refused it: %v", dname, query, q.Fragment(), s, err)
				}
				if !inside && !errors.Is(err, core.ErrNotInFragment) {
					t.Errorf("doc %s query %q (%v): %v returned %+v, %v; want ErrNotInFragment", dname, query, q.Fragment(), s, v, err)
				}
			}
		}
	}
}

// TestExample64 checks the worked Example 6.4: query over DOC(4) from
// context ⟨a,1,1⟩ returns {b2, b3}.
func TestExample64(t *testing.T) {
	d := xmltree.MustParseString(`<a><b/><b/><b/><b/></a>`)
	a := d.DocumentElement()
	kids := d.Children(a)
	e := xpath.MustParse("descendant::b/following-sibling::*[position() != last()]")
	want := xmltree.NewNodeSet(kids[1], kids[2])
	for name, eng := range engines(d) {
		v, err := eng.Evaluate(e, semantics.Context{Node: a, Pos: 1, Size: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !v.Set.Equal(want) {
			t.Errorf("%s = %v, want %v", name, v.Set, want)
		}
	}
}

// TestExample81 checks the running example of Section 8: the query over
// the Figure 8 document selects {x13, x14, x21, x22, x23, x24}.
func TestExample81(t *testing.T) {
	d := xmltree.MustParseString(docs["fig8"])
	x10 := d.IDOf("10")
	e := xpath.MustParse("/descendant::*/descendant::*[position() > last()*0.5 or self::* = 100]")
	want := xmltree.NewNodeSet(d.IDOf("13"), d.IDOf("14"), d.IDOf("21"),
		d.IDOf("22"), d.IDOf("23"), d.IDOf("24"))
	for name, eng := range engines(d) {
		v, err := eng.Evaluate(e, semantics.Context{Node: x10, Pos: 1, Size: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !v.Set.Equal(want) {
			t.Errorf("%s = %v, want %v", name, v.Set, want)
		}
	}
}

// TestExample112 checks the worked Example 11.2: the query over Figure 8
// selects {x11, x12, x13, x14, x22}.
func TestExample112(t *testing.T) {
	d := xmltree.MustParseString(docs["fig8"])
	e := xpath.MustParse("/child::a/descendant::*[boolean(following::d[(position() != last()) and (preceding-sibling::*/preceding::* = 100)]/following::d)]")
	want := xmltree.NewNodeSet(d.IDOf("11"), d.IDOf("12"), d.IDOf("13"),
		d.IDOf("14"), d.IDOf("22"))
	for name, eng := range engines(d) {
		v, err := eng.Evaluate(e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !v.Set.Equal(want) {
			t.Errorf("%s = %v, want %v", name, v.Set, want)
		}
	}
}

// TestDataPoolSharing verifies the pool actually shares work: evaluating
// an Experiment-3 style query must hit the pool.
func TestDataPoolSharing(t *testing.T) {
	d := xmltree.MustParseString(`<a><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/></a>`)
	ev, pool := datapool.NewEvaluator(d)
	q := "//a/b[count(parent::a/b[count(parent::a/b) > 1]) > 1]"
	e := xpath.MustParse(q)
	if _, err := ev.Evaluate(e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if pool.Hits == 0 {
		t.Error("data pool recorded no hits on a sharing-heavy query")
	}
	if pool.Size() == 0 {
		t.Error("data pool stored nothing")
	}
}

// TestNaiveBudget verifies the step budget aborts exponential runs.
func TestNaiveBudget(t *testing.T) {
	d := xmltree.MustParseString(`<a><b/><b/></a>`)
	ev := naive.New(d)
	ev.Budget = 1000
	q := "//a/b"
	for i := 0; i < 12; i++ {
		q += "/parent::a/b"
	}
	_, err := ev.Evaluate(xpath.MustParse(q), semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
	if err == nil {
		t.Fatal("expected budget exhaustion")
	}
}

// TestExponentialSharingGap demonstrates the paper's core observation as
// a unit test: on the Experiment-1 query family, naive work grows
// superlinearly with query size while the pooled evaluator's does not.
func TestExponentialSharingGap(t *testing.T) {
	d := xmltree.MustParseString(`<a><b/><b/></a>`)
	ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
	build := func(k int) xpath.Expr {
		q := "//a/b"
		for i := 0; i < k; i++ {
			q += "/parent::a/b"
		}
		return xpath.MustParse(q)
	}
	naiveSteps := func(k int) int64 {
		ev := naive.New(d)
		if _, err := ev.Evaluate(build(k), ctx); err != nil {
			t.Fatal(err)
		}
		return ev.Steps()
	}
	pooledSteps := func(k int) int64 {
		ev, _ := datapool.NewEvaluator(d)
		if _, err := ev.Evaluate(build(k), ctx); err != nil {
			t.Fatal(err)
		}
		return ev.Steps()
	}
	// Doubling per appended parent::a/b (Section 2's discussion).
	n8, n10 := naiveSteps(8), naiveSteps(10)
	if n10 < 3*n8 {
		t.Errorf("naive growth too slow to be exponential: steps(8)=%d steps(10)=%d", n8, n10)
	}
	p8, p10 := pooledSteps(8), pooledSteps(10)
	if p10 > 2*p8 {
		t.Errorf("pooled growth not polynomial: steps(8)=%d steps(10)=%d", p8, p10)
	}
}
