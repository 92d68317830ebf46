package conformance

import (
	"testing"

	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xpatterns"
)

// algebraDoc has what the XPatterns-only constructs read: ID attributes,
// texts naming IDs (each token between blanks, so the ref relation of
// Theorem 10.7 and id()'s string-value semantics agree), strings and
// numbers to compare with, attribute and namespace nodes to start from.
const algebraDoc = `<lib id="L" xmlns:p="urn:p">` +
	`<book id="b1" lang="en"><ref> b2 b3 </ref><title>X</title><price>10</price></book>` +
	`<book id="b2"><ref> b1 </ref><title>Y</title></book>` +
	`<p:book id="b3" lang="de"><title>X</title><price>12.5</price><note><ref> b1 nosuch </ref></note></p:book>` +
	`<!--c--><shelf><book id="b4"><title>Z</title></book></shelf></lib>`

// algebraPreds are XPatterns predicates: not(π = s), π = number,
// true()/false(), absolute paths, id(…) heads, boolean(π1 | π2), the
// XSLT'98 unary predicates, nested up to three deep.
var algebraPreds = []string{
	"not(title = 'X')",
	"not(price = 10)",
	"price = 12.5",
	"10 = price",
	"title = 'nosuch'",
	"true()",
	"false() or title",
	"true() and not(ref)",
	"/lib/book",
	"not(/lib/nosuch)",
	"/",
	"/lib/shelf/book[title = 'Z']",
	"id('b1')",
	"id('nosuch')",
	"id('b1 b3')/title = 'X'",
	"id(ref)",
	"id(ref)/title = 'Y'",
	"not(id(ref)/price)",
	"id(id(ref)/ref)",
	"id(id(ref))",
	"id(/lib/book/ref)/title = 'Y'",
	"boolean(title | price)",
	"not(boolean(ref | note/ref))",
	"first-of-type() and not(last-of-type())",
	"last-of-any() or first-of-any()",
	"book[ref[not(. = ' b1 ')]]",
	"descendant::book[not(id(ref)/self::*[title = 'X' and not(price = 10)])]",
	"not(not(*[not(price) and ../price = 10]))",
	"parent::*[book[title = 'Y' or id(ref)/self::*[price = 10]]]",
	"@lang = 'de' or @id = 'b2'",
	"namespace::p",
}

// algebraBases are the location paths the predicates are attached to;
// all of them depend on the context node.
var algebraBases = []string{
	"descendant-or-self::*",
	"ancestor-or-self::*",
	"parent::*",
	"following::*",
	"preceding-sibling::node()",
	"id(descendant-or-self::ref)/self::*",
}

// TestFragmentAlgebraFromEveryNode runs every base[pred] from every node
// of algebraDoc — attribute and namespace nodes included — in the
// Section 10 evaluator behind both gates and in the three engines auto
// can pick instead, against naive on the literal tree, and insists that
// the evaluator really took part: each query, optimized, is in the
// XPatterns fragment.
func TestFragmentAlgebraFromEveryNode(t *testing.T) {
	d := xmltree.MustParseString(algebraDoc)
	queries := []string{
		"id(.//ref)/title", "id(id(.//ref)/ref)", "id('b2 b4')/ref | .//title[. = 'X']", "id(id('b1')/ref)/price"}
	for i, p := range algebraPreds {
		queries = append(queries, algebraBases[i%len(algebraBases)]+"["+p+"]")
	}
	es := engines(d)
	for _, q := range queries {
		e := xpath.MustParse(q)
		if !xpatterns.InFragment(xpath.Optimize(e)) {
			t.Errorf("%s is not an XPatterns query", q)
		}
		for n := xmltree.NodeID(0); int(n) < d.Len(); n++ {
			c := semantics.Context{Node: n, Pos: 1, Size: 1}
			want, err := es["naive"].Evaluate(e, c)
			if err != nil {
				t.Fatalf("naive(%q) at %d: %v", q, n, err)
			}
			for _, name := range []string{"xpatterns", "corexpath", "optmincontext", "mincontext", "topdown"} {
				if got, err := es[name].Evaluate(e, c); err != nil || !got.Equal(want) {
					t.Errorf("%s(%q) at %d (%v) = %+v, %v; naive = %+v", name, q, n, d.Type(n), got, err, want)
				}
			}
		}
	}
}

// TestFragmentAlgebraIdentities checks the evaluator against itself, no
// oracle: not(not(p)) ≡ p and q[p] ⊆ q, for every base, predicate and
// context node.
func TestFragmentAlgebraIdentities(t *testing.T) {
	d := xmltree.MustParseString(algebraDoc)
	ev := xpatterns.New(d)
	for _, base := range algebraBases {
		for _, p := range algebraPreds {
			plain := xpath.MustParse(base + "[" + p + "]")
			twice := xpath.MustParse(base + "[not(not(" + p + "))]")
			all := xpath.MustParse(base)
			for n := xmltree.NodeID(0); int(n) < d.Len(); n++ {
				c := semantics.Context{Node: n, Pos: 1, Size: 1}
				got, err := ev.Evaluate(plain, c)
				if err != nil {
					t.Fatalf("%s: %v", plain, err)
				}
				neg, err := ev.Evaluate(twice, c)
				if err != nil {
					t.Fatalf("%s: %v", twice, err)
				}
				q, err := ev.Evaluate(all, c)
				if err != nil {
					t.Fatalf("%s: %v", all, err)
				}
				if !neg.Set.Equal(got.Set) {
					t.Errorf("at %d: %s = %v but %s = %v", n, plain, got.Set, twice, neg.Set)
				}
				if len(got.Set.Intersect(q.Set)) != len(got.Set) {
					t.Errorf("at %d: %s = %v is not within %s = %v", n, plain, got.Set, all, q.Set)
				}
			}
		}
	}
}
