package conformance

import (
	"context"
	"sort"
	"testing"

	"repro/internal/axes"
	"repro/internal/core"
	"repro/internal/mincontext"
	"repro/internal/naive"
	"repro/internal/semantics"
	"repro/internal/topdown"
	"repro/internal/wadler"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The differential tests of this package check xpath.Optimize as a side
// effect (engines). The cases here aim at it: attribute, namespace,
// comment, processing-instruction and root context nodes in front of a
// //, same-named elements nested in each other, and empty results at
// every step a fusion touches.

// descendantsDoc nests x in x (directly and below w), hangs attributes
// on most elements and has one namespace node, comment and processing
// instruction.
const descendantsDoc = `<r xmlns:p="urn:p" a="1"><!--c-->` +
	`<x a="2" id="i"><y>1</y><x a="3"><y>2</y><y>4</y><z/></x></x>` +
	`<?pi d?><e a="4"/><a k="5"><b/></a>` +
	`<w><x><y>3</y><w><x a="6"/></w></x></w></r>`

var descendantQueries = []string{
	// Context nodes of every type in front of a //.
	"//@a//x",
	"/.//x",
	"//x/@a/..//y",
	"//namespace::*//x",
	"//comment()//x",
	"//processing-instruction()//node()",
	"//@a/descendant-or-self::node()",
	"//@a/descendant-or-self::node()/descendant-or-self::node()",
	"//namespace::p/descendant-or-self::node()/self::node()",
	"//@*//@*",
	"//text()//node()",
	".//x",
	".//.",
	"././/./y/.",
	"descendant-or-self::node()/x",
	"descendant-or-self::node()/descendant::y",
	"descendant-or-self::node()/descendant-or-self::x",
	// Nested same-named elements; fusion inside predicates, filter
	// heads and function arguments.
	"//x//y",
	"//x//x",
	"//x[.//y = 2]",
	"//x[.//x]/y",
	"//w//x[y]",
	"count(//x//y) + count(.//x)",
	"sum(//x//y)",
	"(//x//y)[2]",
	"(//x)[2]//y",
	"id('i')//y",
	"id('i')//x/@a",
	"//x[count(.//y) > 1]",
	"//x[not(.//z)]//y",
	"//*[.//x and .//z]",
	"//x//y | //w//x | //@a//x",
	"//x[.//y[. > 2]]",
	"boolean(//x//z) and not(//z//x)",
	// The pairs that must not fuse, alone and next to ones that do.
	"//x[1]",
	"//x[last()]",
	"//y[2]",
	"//y[position() = last()]",
	"//x[y][1]",
	"//x[1]//y[. > 1]",
	"//x//y[1]",
	"//x//y[last()]",
	"//x[.//y[1] = 3]",
	"//x[.//y[last()] = 4]",
	"//*[.//x[1]/@a = 3]",
	"//w//x[1]",
	"//@a/..//y[1]",
	"count(//y[1]) + count(//y[last()])",
	"descendant-or-self::node()[y]/child::x",
	// What PR 16 found: exact preimages around attribute nodes.
	"//@*[parent::a]",
	"//@*[parent::x]",
	"//@*[ancestor::r]",
	"//@*[ancestor::x]",
	"//@*[ancestor-or-self::node()]",
	"//*[child::node()]",
	"//*[descendant::node()]",
	"//*[not(child::node())]",
	"//@*[following::y]",
	"//@*[preceding::y]",
	"//@*[following-sibling::node()]",
	"//@*[preceding-sibling::node()]",
	"//namespace::*[parent::r]",
	"//node()[following-sibling::x]",
	"//@*[following::y[1] = 1]",
	"//@*[ancestor::*[1]/@id]",
	// Empty results at every step of a fused path.
	"//nosuch//y",
	"//x//nosuch",
	"//x[nosuch]//y",
	"//x//y[nosuch]",
	"//x[.//nosuch]",
	"//nosuch[1]",
	"//nosuch//x[1]",
	"//z//x",
	"//e//node()",
	"count(//nosuch) + count(//x//nosuch)",
	"//@a//nosuch",
	"id('nosuch')//x",
}

// TestDescendantRewrites evaluates descendantQueries from every node of
// the document as context node, attribute and namespace nodes included.
func TestDescendantRewrites(t *testing.T) {
	agreeFromEveryNode(t, xmltree.MustParseString(descendantsDoc), descendantQueries, true)
}

// TestExactPreimagesPinned pins the three answers the
// backward-propagating engines got wrong while axes.EvalInverse was the
// image of the inverse axis, in every engine.
func TestExactPreimagesPinned(t *testing.T) {
	d := xmltree.MustParseString(`<r><e a="1"/><a b="2" c="3"/></r>`)
	ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"//@*[parent::a]", 2},
		{"//@*[ancestor::r]", 3},
		{"//*[child::node()]", 1}, // r; e and a have attributes only
	} {
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

// auctionDoc has the shape of the serving benchmark's documents in
// small: items in two regions, persons with and without an e-mail
// address, and open auctions with zero to five bidder children.
const auctionDoc = `<site><regions>` +
	`<africa><item id="item0"><name>A</name><quantity>5</quantity><shipping>s</shipping></item>` +
	`<item id="item1"><name>B</name><quantity>2</quantity></item></africa>` +
	`<asia><item id="item2"><name>C</name><quantity>7</quantity><shipping>t</shipping></item></asia></regions>` +
	`<people><person id="p0"><name>P</name><emailaddress>p@x</emailaddress></person>` +
	`<person id="p1"><name>Q</name></person>` +
	`<person id="p2"><name>R</name><emailaddress>r@x</emailaddress></person></people><open_auctions>` +
	`<open_auction><current>10</current><itemref>item0</itemref></open_auction>` +
	`<open_auction><bidder><increase>1</increase></bidder><current>70</current><itemref>item1</itemref></open_auction>` +
	`<open_auction><bidder><increase>2</increase></bidder><bidder><increase>3</increase></bidder><current>61</current><itemref>item2</itemref></open_auction>` +
	`<open_auction><bidder><increase>4</increase></bidder><bidder><increase>5</increase></bidder><bidder><increase>6</increase></bidder><current>60</current><itemref>item0</itemref></open_auction>` +
	`<open_auction><bidder><increase>7</increase></bidder><bidder><increase>8</increase></bidder><bidder><increase>9</increase></bidder><bidder><increase>10</increase></bidder><current>5</current><itemref>item1</itemref></open_auction>` +
	`<open_auction><bidder><increase>11</increase></bidder><bidder><increase>12</increase></bidder><bidder><increase>13</increase></bidder><bidder><increase>14</increase></bidder><bidder><increase>15</increase></bidder><current>99</current><itemref>item2</itemref></open_auction>` +
	`</open_auctions></site>`

// poolShapes are the twelve shapes OptMinContext answers in the
// serving benchmark's pool (BenchmarkOptMinContextShapes).
var poolShapes = []string{
	"//open_auction/bidder[1]/increase",
	"//open_auction/bidder[last()]/increase",
	"//open_auction[current > 60]/itemref",
	"//item[position() mod 2 = 0]/name",
	"boolean(//item[quantity > 4])",
	"//person[position() = last()]/name",
	"count(//item)",
	"sum(//open_auction/current)",
	"count(//open_auction[count(bidder) > 2])",
	"//open_auction[count(bidder) = 3]/current",
	"sum(//item[shipping]/quantity) + count(//person[emailaddress])",
	"count(//person[emailaddress]) > count(//item[shipping])",
}

// fuzzDocs is the docs table plus the documents of the targeted tests,
// in a fixed order so a corpus entry keeps meaning the same document;
// new documents go to the end.
var fuzzDocs = func() []string {
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := []string{descendantsDoc, shapesDoc, edgeDoc}
	for _, name := range names {
		out = append(out, docs[name])
	}
	return append(out, auctionDoc)
}()

// FuzzOptimizeAgrees: for any query text that parses, the naive engine
// on the literal tree, the top-down, MinContext and OptMinContext
// engines on xpath.Optimize of it, core.Engine at Auto — whichever of
// the Section 10 algebra, OptMinContext and top-down its table picks —
// and core.Engine behind each fixed fragment gate that admits the query
// (XPatterns for every query of that fragment, Core XPath queries
// included; CoreXPath for those) return the same value from the root of
// a document of fuzzDocs. The naive engine runs under a step budget;
// queries it cannot finish, or rejects, are skipped. The seeds — every
// battery of this package, and the files under testdata/fuzz — run as
// part of go test.
func FuzzOptimizeAgrees(f *testing.F) {
	// Each targeted battery on its own document (the order of fuzzDocs),
	// the general one across the docs table.
	for i, battery := range [][]string{descendantQueries, shapeQueries, edgeQueries} {
		for _, q := range battery {
			f.Add(q, uint8(i))
		}
	}
	for j, q := range queries {
		f.Add(q, uint8(3+j%len(docs)))
	}
	for _, q := range poolShapes {
		f.Add(q, uint8(len(fuzzDocs)-1))
	}
	// id() of attribute and text node sets, compared on every engine.
	for i, src := range fuzzDocs {
		if src == docs["fig8"] {
			for _, q := range []string{"id(//c/text())", "//d[id(text())]/@id", "id(//@id)/d", "//*[id(@id)/c]"} {
				f.Add(q, uint8(i))
			}
		}
	}
	for _, q := range []string{"id(//itemref/text())/name", "//open_auction[id(itemref/text())/quantity > 4]/current"} {
		f.Add(q, uint8(len(fuzzDocs)-1))
	}
	parsed := make([]*xmltree.Document, len(fuzzDocs))
	for i, src := range fuzzDocs {
		parsed[i] = xmltree.MustParseString(src)
	}
	f.Fuzz(func(t *testing.T, query string, doc uint8) {
		if len(query) > 160 {
			t.Skip("long query")
		}
		e, err := xpath.Parse(query)
		if err != nil || xpath.HasVariables(e) {
			t.Skip("not a closed query")
		}
		d := parsed[int(doc)%len(parsed)]
		ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
		ref := naive.New(d)
		ref.Budget = 200000
		want, err := ref.Evaluate(e, ctx)
		if err != nil {
			t.Skip("naive:", err)
		}
		opt := xpath.Optimize(e)
		engines := map[string]engine{
			"topdown": topdown.New(d), "mincontext": mincontext.New(d), "optmincontext": wadler.New(d),
			"auto": coreEngine{core.NewEngine(d, core.Auto), query, core.Auto},
		}
		if q, err := core.Compile(query); err == nil {
			switch q.Fragment() {
			case core.FragmentCoreXPath:
				engines["corexpath"] = coreEngine{core.NewEngine(d, core.CoreXPath), query, core.CoreXPath}
				fallthrough
			case core.FragmentXPatterns:
				engines["xpatterns"] = coreEngine{core.NewEngine(d, core.XPatterns), query, core.XPatterns}
			}
		}
		if idOfElements(e) {
			// Known gap, not this target's to trip over: the bottom-up
			// phase of OptMinContext and the XPatterns algebra evaluate
			// id(π) through the ref relation of Theorem 10.7, which reads
			// the text directly inside each element, while the
			// string-value of an element joins the texts below it without
			// a separator — on fig8, id(/a) has the tokens "2223" and
			// "2410011" for naive and 22, 23, 24, 100, 11 for ref. id() of
			// attribute, text, comment and processing-instruction nodes,
			// whose string-value is their own data, is compared everywhere.
			engines = map[string]engine{"topdown": engines["topdown"], "mincontext": engines["mincontext"]}
		}
		for name, eng := range engines {
			got, err := eng.Evaluate(opt, ctx)
			if err != nil {
				t.Fatalf("%s(%s): %v\nliteral: %s", name, opt, err, e)
			}
			if !got.Equal(want) {
				t.Fatalf("%s(%s) = %+v, naive(%s) = %+v\ndoc: %s", name, opt, got, e, want, d.XMLString())
			}
		}
	})
}

// coreEngine answers with core.Engine what the servers would: the query
// text compiled by core, run by the strategy Auto picks for it or by a
// fixed one.
type coreEngine struct {
	en       *core.Engine
	src      string
	strategy core.Strategy
}

func (a coreEngine) Evaluate(_ xpath.Expr, c semantics.Context) (semantics.Value, error) {
	q, err := core.Compile(a.src)
	if err != nil {
		return semantics.Value{}, err
	}
	return a.en.EvaluateStrategy(context.Background(), q, c, a.strategy)
}

// idOfElements reports whether e calls id() on a node set that may hold
// an element or the root: one whose path does not end in an attribute,
// namespace, text(), comment() or processing-instruction() step.
func idOfElements(e xpath.Expr) bool {
	found := false
	xpath.Walk(e, func(x xpath.Expr) {
		if c, ok := x.(*xpath.Call); ok && c.Name == "id" && len(c.Args) == 1 && c.Args[0].Type() == xpath.TypeNodeSet {
			found = found || mayHoldElements(c.Args[0])
		}
	})
	return found
}

func mayHoldElements(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Binary:
		return mayHoldElements(x.Left) || mayHoldElements(x.Right)
	case *xpath.FilterExpr:
		return mayHoldElements(x.Primary)
	case *xpath.Path:
		if len(x.Steps) == 0 {
			return true
		}
		last := x.Steps[len(x.Steps)-1]
		switch {
		case last.Axis == axes.AttributeAxis, last.Axis == axes.NamespaceAxis:
			return false
		case last.Test.Kind == xpath.TestText, last.Test.Kind == xpath.TestComment, last.Test.Kind == xpath.TestPI:
			return false
		}
	}
	return true
}
