package conformance

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/semantics"
	"repro/internal/workload"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// paymentsDoc is the three-item document of benchmark/README.md on which
// the XPatterns evaluator answered [payment = 'cash'] as if the
// predicate were absent: no node carries the literal.
const paymentsDoc = `<site><regions><africa>` +
	`<item id="item0"><name>Item 0</name><payment>check</payment><quantity>1</quantity></item>` +
	`<item id="item1"><name>Item 1</name><payment>creditcard</payment><quantity>2</quantity></item>` +
	`<item id="item2"><name>Item 2</name><payment>check</payment><quantity>3</quantity></item>` +
	`</africa></regions></site>`

// TestAbsentLiteral pins the answers of comparisons with a constant no
// node of the document carries, one per comparison operator, in every
// engine — the fragment algebras included, which is where a missing
// target set once meant "unrestricted".
func TestAbsentLiteral(t *testing.T) {
	d := xmltree.MustParseString(paymentsDoc)
	ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
	cases := []struct {
		query string
		want  int
	}{
		{"//item[payment='cash']/name", 0}, // the README's repro
		{"//item[payment = 'check']/name", 2},
		{"//item[payment = 'cash' or payment = 'creditcard']/name", 1},
		{"//item[not(payment = 'cash')]/name", 3},
		{"//item[payment != 'cash']/name", 3},
		{"//item[quantity = 7]/name", 0},
		{"//item[quantity != 7]/name", 3},
		{"//item[quantity < 1]/name", 0},
		{"//item[quantity <= 0]/name", 0},
		{"//item[quantity > 3]/name", 0},
		{"//item[quantity >= 4]/name", 0},
		{"//item['cash' = payment]/name", 0},
		{"//item[7 = quantity]/name", 0},
		{"//*[regions/africa/item/payment = 'cash']", 0},
		{"//item[@id = 'item9']/name", 0},
		{"id('item1')[payment = 'cash']", 0},
		{"//item[payment = 'cash'] | //item[quantity = 7]", 0},
	}
	for _, tc := range cases {
		e := xpath.MustParse(tc.query)
		for name, eng := range engines(d) {
			v, err := eng.Evaluate(e, ctx)
			if err != nil {
				t.Errorf("%s(%q): %v", name, tc.query, err)
				continue
			}
			if v.Kind != xpath.TypeNodeSet || len(v.Set) != tc.want {
				t.Errorf("%s(%q) selects %d node(s), want %d", name, tc.query, len(v.Set), tc.want)
			}
		}
	}
}

// shapesDoc has repeated names at two depths, ids, an empty element and
// values shared between b and c.
const shapesDoc = `<r id="root">` +
	`<a id="x"><b>1</b><b>2</b><c>2</c><x>p</x><x>q</x></a>` +
	`<a><b>3</b><c>9</c></a>` +
	`<a id="y"><c>1</c><c>3</c><d><x>r</x><x>s</x><x>t</x></d></a>` +
	`<e/></r>`

// shapeQueries exercise the paths MinContext and OptMinContext evaluate
// as node sets or visit through X ∩ χ⁻¹(Y).
var shapeQueries = []string{
	// Absolute and single-context inner paths nested in predicates.
	"//a[count(//b) > 1]",
	"//a[b = //c]",
	"sum(//a/b) + count(id('x')/c)",
	"//a[count(b) = count(//a[1]/b)]",
	"//a[b = id('y')/c]",
	"//a[count(id('x')/b) = 2]",
	"//a[c[. = //b]]",
	"//a[position() = count(//a[1]/b)]",
	"//a[count(//nosuch) = 0]",
	"count(//a[b = //nosuch])",
	"//a[count(b | c) > count(//a[2]/*)]",
	"count(//a[count(b) > 1]) + count(//a[count(c) > 1])",
	// Positional predicates on reverse axes and on non-child axes.
	"//x/ancestor::*[2]",
	"//c/preceding-sibling::b[last()]",
	"/r/descendant::x[position() mod 2 = 0]",
	"//d/x/preceding-sibling::x[1]",
	"//x/following-sibling::x[last()]",
	"//e/preceding::x[2]",
	"//b/following::x[position() = last()]",
	"//x/ancestor-or-self::*[position() > 1][last()]",
	"//a/descendant-or-self::*[2]",
	"//x/parent::*[1]/x[last()]",
	"//a[descendant::x[position() mod 2 = 0] = 's']",
	"//*[preceding-sibling::a[2]/b = 2]",
	// Attribute context nodes through the pair loops.
	"//@id/ancestor::*[1]",
	"//@id/ancestor::*[last()]",
	"//@id/following::x[1]",
	"//@id/preceding::b[1]",
	"//@id/parent::*[1]/b[last()]",
	// Empty candidate sets at every step.
	"//nosuch/b[1]",
	"//a/nosuch[last()]/b",
	"//a/b[1]/nosuch",
	"//a[nosuch[1]]",
	"//a[count(nosuch) = 0]/b[2]",
	"count(//a/nosuch) + sum(//nosuch/b)",
	"//e/*[1]",
	"//e/ancestor::nosuch[1]",
	"//a/b[5]",
	"//a[b[5] = 1]",
	// Unions of the above.
	"//a[count(//b) > 1]/b[1] | //x/ancestor::*[2]",
	"sum(//a/b | //a/c)",
	"(//a/b[last()] | //d/x[1])[2]",
	"//a[b = (//c | //nosuch)]",
	"//nosuch/b[1] | //a/nosuch[last()] | //e/*[1]",
	"//a[count(//b) > 1 and b = //c] | //c/preceding-sibling::b[last()]",
}

// TestInnerPathShapes cross-checks every engine against the reference
// on shapeQueries, from the root and from every content node.
func TestInnerPathShapes(t *testing.T) {
	agreeFromEveryNode(t, xmltree.MustParseString(shapesDoc), shapeQueries, false)
}

// agreeFromEveryNode evaluates the queries in every engine with each
// node of the document as context node — attribute and namespace nodes
// too if asked — and reports every value that differs from the
// reference's.
func agreeFromEveryNode(t *testing.T, d *xmltree.Document, queries []string, attrsToo bool) {
	t.Helper()
	es := engines(d)
	for _, q := range queries {
		e, err := xpath.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		for n := xmltree.NodeID(0); int(n) < d.Len(); n++ {
			if !attrsToo && d.IsAttrOrNS(n) {
				continue
			}
			ctx := semantics.Context{Node: n, Pos: 1, Size: 1}
			ref, err := es["naive"].Evaluate(e, ctx)
			if err != nil {
				t.Fatalf("naive(%q) at %d: %v", q, n, err)
			}
			for name, eng := range es {
				got, err := eng.Evaluate(e, ctx)
				if err != nil {
					t.Errorf("%s(%q) at %d: %v", name, q, n, err)
					continue
				}
				if !got.Equal(ref) {
					t.Errorf("%s(%q) at %d (%v) = %+v, naive = %+v", name, q, n, d.Type(n), got, ref)
				}
			}
		}
	}
}

// TestSetAtATimeScaling guards the complexity of the set-at-a-time
// paths without a clock: the bytes one evaluation allocates, as
// testing.Benchmark reports them, at |D| and at 4|D|. An absolute path
// under sum() and a positional step are linear, so the ratio is about
// 4; the relation-per-context-node and Union-per-context-node code they
// replace was quadratic, about 16.
func TestSetAtATimeScaling(t *testing.T) {
	benchtime := flag.Lookup("test.benchtime")
	defer benchtime.Value.Set(benchtime.Value.String())
	benchtime.Value.Set("3x")

	doc := func(n int) *xmltree.Document {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "<a><b>%d</b><c/></a>", i)
		}
		b.WriteString("</r>")
		d := xmltree.MustParseString(b.String())
		d.Index()
		return d
	}
	small, large := doc(1500), doc(6000)
	for _, src := range []string{"sum(//a/b)", "//a[position() mod 2 = 0]/b"} {
		q := core.MustCompile(src)
		for _, s := range []core.Strategy{core.MinContext, core.OptMinContext} {
			bytesPerOp := func(d *xmltree.Document) int64 {
				en := core.NewEngine(d, s)
				c := core.Context{Node: d.RootID(), Pos: 1, Size: 1}
				return testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := en.EvaluateStrategy(context.Background(), q, c, s); err != nil {
							b.Fatal(err)
						}
					}
				}).AllocedBytesPerOp()
			}
			at1, at4 := bytesPerOp(small), bytesPerOp(large)
			if at1 == 0 || at4 >= 6*at1 {
				t.Errorf("%s under %v: %d B/op at |D|, %d B/op at 4|D| (×%.1f), want < ×6",
					src, s, at1, at4, float64(at4)/float64(at1))
			}
		}
	}
}

// TestPredicatesNeverEnumerateDom pins the dom() cliff shut, in bytes:
// one copy of the Section 10 algebra once materialized all |D| node ids
// for every not(), true() and absolute-path predicate, so the same
// query cost 40× the bytes behind the XPatterns gate that it cost
// behind the Core XPath gate, and 4–14× what OptMinContext needs for
// it. Both gates now admit to one evaluator whose E1 complements a
// bitset and takes "holds everywhere" as a flag.
func TestPredicatesNeverEnumerateDom(t *testing.T) {
	benchtime := flag.Lookup("test.benchtime")
	defer benchtime.Value.Set(benchtime.Value.String())
	benchtime.Value.Set("5x")

	d := workload.Auction(1, 1200)
	d.Index()
	c := core.Context{Node: d.RootID(), Pos: 1, Size: 1}
	bytesPerOp := func(q *core.Query, s core.Strategy) int64 {
		en := core.NewEngine(d, s)
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := en.EvaluateStrategy(context.Background(), q, c, s); err != nil {
					b.Fatal(err)
				}
			}
		}).AllocedBytesPerOp()
	}
	for _, tc := range []struct {
		query   string
		against core.Strategy
		within  float64
	}{
		{"//person[not(emailaddress)]/name", core.CoreXPath, 1.5},
		{"//item[not(payment='cash')]/name", core.OptMinContext, 2},
		{"//item[true() and payment='cash']/name", core.OptMinContext, 2},
		{"//item[/site/people]/name", core.OptMinContext, 2},
	} {
		q := core.MustCompile(tc.query)
		got, ref := bytesPerOp(q, core.XPatterns), bytesPerOp(q, tc.against)
		if ref == 0 || float64(got) > tc.within*float64(ref) {
			t.Errorf("%s: %d B/op under xpatterns, %d under %v (×%.1f), want ≤ ×%.1f",
				tc.query, got, ref, tc.against, float64(got)/float64(ref), tc.within)
		}
	}
}

// TestContextTableScaling guards the storage of the context-value
// tables the same way: B/op and allocs/op of one evaluation over an
// auction document of |D| and of 4|D| nodes, for the two count(bidder)
// shapes — three tables and a relation over every open_auction — and
// the positional //item. A table is a handful of arrays sized to its
// context nodes, so bytes grow with the document (a little over 4×, the
// arrays are sized in powers of two here and there) and the number of
// allocations hardly at all. The two count(bidder) shapes also stay
// under 100 KB at the larger document: a 64-byte row per context node
// in a map, and a map entry per relation row, made that 347 KB.
func TestContextTableScaling(t *testing.T) {
	benchtime := flag.Lookup("test.benchtime")
	defer benchtime.Value.Set(benchtime.Value.String())
	benchtime.Value.Set("5x")

	small, large := workload.Auction(7, 300), workload.Auction(7, 1200)
	small.Index()
	large.Index()
	for src, maxBytes := range map[string]int64{
		"count(//open_auction[count(bidder) > 2])":  100 << 10,
		"//open_auction[count(bidder) = 3]/current": 100 << 10,
		"//item[position() mod 2 = 0]/name":         64 << 10,
	} {
		q := core.MustCompile(src)
		for _, s := range []core.Strategy{core.MinContext, core.OptMinContext} {
			measure := func(d *xmltree.Document) testing.BenchmarkResult {
				en := core.NewEngine(d, s)
				c := core.Context{Node: d.RootID(), Pos: 1, Size: 1}
				return testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := en.EvaluateStrategy(context.Background(), q, c, s); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			at1, at4 := measure(small), measure(large)
			if b1, b4 := at1.AllocedBytesPerOp(), at4.AllocedBytesPerOp(); b1 == 0 || float64(b4) > 4.6*float64(b1) || b4 > maxBytes {
				t.Errorf("%s under %v: %d B/op at |D|, %d B/op at 4|D| (×%.1f), want ≤ ×4.6 and ≤ %d",
					src, s, b1, b4, float64(b4)/float64(b1), maxBytes)
			}
			if a1, a4 := at1.AllocsPerOp(), at4.AllocsPerOp(); float64(a4) > 1.5*float64(a1) {
				t.Errorf("%s under %v: %d allocs/op at |D|, %d at 4|D|, want within ×1.5", src, s, a1, a4)
			}
		}
	}
}

// TestDescendantStepScaling guards, without a clock, that // costs its
// output and not the document: a fixed number of <needle><x/></needle>
// elements in a document of |D| and of 4|D| nodes, and the bytes one
// evaluation allocates (testing.Benchmark) under every strategy that
// accepts the query. With //needle a single descendant::needle step
// served from the posting list the needles decide the cost and the
// ratio stays near 1; with descendant-or-self::node() materialized
// first, four bytes a node, it was 1.9 to 3.4 on these documents.
// //needle[last()] cannot be fused (xpath.Optimize); the two
// context-table engines find its previous context nodes from the
// posting list all the same.
func TestDescendantStepScaling(t *testing.T) {
	benchtime := flag.Lookup("test.benchtime")
	defer benchtime.Value.Set(benchtime.Value.String())
	benchtime.Value.Set("20x")

	// Three filler pairs per needle at |D|, fifteen at 4|D|: dense enough
	// that the needles' own cost outweighs the handful of |D|-bit sets an
	// evaluation allocates even when the scratch pool misses every time
	// (as it does at random under the race detector).
	const needles = 1000
	doc := func(fillerPerNeedle int) *xmltree.Document {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < needles; i++ {
			b.WriteString("<needle><x/></needle>")
			for j := 0; j < fillerPerNeedle; j++ {
				b.WriteString("<f><g/></f>")
			}
		}
		b.WriteString("</r>")
		d := xmltree.MustParseString(b.String())
		d.Index()
		return d
	}
	small, large := doc(3), doc(15)
	if small.Len() != 8*needles+2 || large.Len() != 32*needles+2 {
		t.Fatalf("documents have %d and %d nodes", small.Len(), large.Len())
	}
	all := []core.Strategy{core.CoreXPath, core.XPatterns, core.OptMinContext, core.MinContext, core.TopDown}
	tables := []core.Strategy{core.OptMinContext, core.MinContext}
	for _, tc := range []struct {
		query      string
		strategies []core.Strategy
	}{
		{"count(//needle)", all},
		{"//needle/x", all},
		{"//needle[.//x]/x", all},
		{"//needle[last()]", tables},
	} {
		q := core.MustCompile(tc.query)
		for _, s := range tc.strategies {
			if s == core.CoreXPath && q.Fragment() > core.FragmentCoreXPath ||
				s == core.XPatterns && q.Fragment() > core.FragmentXPatterns {
				continue
			}
			bytesPerOp := func(d *xmltree.Document) int64 {
				en := core.NewEngine(d, s)
				c := core.Context{Node: d.RootID(), Pos: 1, Size: 1}
				return testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := en.EvaluateStrategy(context.Background(), q, c, s); err != nil {
							b.Fatal(err)
						}
					}
				}).AllocedBytesPerOp()
			}
			at1, at4 := bytesPerOp(small), bytesPerOp(large)
			t.Logf("%s under %v: %d B/op at |D|, %d B/op at 4|D| (×%.2f)", tc.query, s, at1, at4, float64(at4)/float64(at1))
			if at1 == 0 || 2*at4 >= 3*at1 {
				t.Errorf("%s under %v: %d B/op at |D|, %d B/op at 4|D| (×%.2f), want < ×1.5",
					tc.query, s, at1, at4, float64(at4)/float64(at1))
			}
		}
	}
}
