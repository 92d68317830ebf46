package conformance

import (
	"testing"

	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// specDoc is a fixed document for golden-answer tests. Node names are
// chosen so expected node sets can be written as name lists.
const specDoc = `<doc lang="en">
<chapter id="c1"><title>One</title><p>first</p><p>second</p></chapter>
<chapter id="c2"><title>Two</title><p>third</p><section><p>fourth</p></section></chapter>
<appendix id="a1"><title>App</title><p>fifth</p></appendix>
</doc>`

// specCase pins the exact expected answer of one query.
type specCase struct {
	query string
	// Exactly one of the following is used.
	nodeStrings []string // string values of expected node set, in doc order
	num         *float64
	str         *string
	boolean     *bool
}

func num(v float64) *float64 { return &v }
func str(s string) *string   { return &s }
func bl(b bool) *bool        { return &b }

var specCases = []specCase{
	// Basic paths.
	{query: "/doc/chapter/title", nodeStrings: []string{"One", "Two"}},
	{query: "//p", nodeStrings: []string{"first", "second", "third", "fourth", "fifth"}},
	{query: "/doc/*/p", nodeStrings: []string{"first", "second", "third", "fifth"}},
	{query: "//section/p", nodeStrings: []string{"fourth"}},
	{query: "//chapter//p", nodeStrings: []string{"first", "second", "third", "fourth"}},
	// Axes.
	{query: "//section/ancestor::chapter/title", nodeStrings: []string{"Two"}},
	{query: "//appendix/preceding-sibling::chapter/title", nodeStrings: []string{"One", "Two"}},
	{query: "//chapter[1]/following-sibling::*/title", nodeStrings: []string{"Two", "App"}},
	{query: "//p[. = 'fourth']/ancestor::*[last()]/@lang", nodeStrings: []string{"en"}},
	{query: "//p[. = 'third']/following::p", nodeStrings: []string{"fourth", "fifth"}},
	{query: "//p[. = 'fourth']/preceding::p", nodeStrings: []string{"first", "second", "third"}},
	// Positions.
	{query: "//p[1]", nodeStrings: []string{"first", "third", "fourth", "fifth"}},
	{query: "(//p)[1]", nodeStrings: []string{"first"}},
	{query: "//p[last()]", nodeStrings: []string{"second", "third", "fourth", "fifth"}},
	{query: "(//p)[last()]", nodeStrings: []string{"fifth"}},
	{query: "//chapter[2]/p[1]", nodeStrings: []string{"third"}},
	{query: "//p[position() = 2]", nodeStrings: []string{"second"}},
	// Predicates.
	{query: "//chapter[section]/title", nodeStrings: []string{"Two"}},
	{query: "//*[title and p][not(section)]/@id", nodeStrings: []string{"c1", "a1"}},
	{query: "//chapter[title = 'One']/p", nodeStrings: []string{"first", "second"}},
	{query: "//*[@id = 'c2']/title", nodeStrings: []string{"Two"}},
	// id().
	{query: "id('c1')/title", nodeStrings: []string{"One"}},
	{query: "id('c1 a1')/title", nodeStrings: []string{"One", "App"}},
	{query: "id('zzz')", nodeStrings: []string{}},
	// Unions.
	{query: "//chapter/title | //appendix/title", nodeStrings: []string{"One", "Two", "App"}},
	{query: "//title | //title", nodeStrings: []string{"One", "Two", "App"}},
	// Numbers.
	{query: "count(//p)", num: num(5)},
	{query: "count(//chapter) * 10 + count(//appendix)", num: num(21)},
	{query: "count(//p[string-length(.) = 5])", num: num(3)}, // first third fifth
	{query: "string-length(string(//title))", num: num(3)},
	{query: "floor(7 div 2)", num: num(3)},
	{query: "ceiling(7 div 2)", num: num(4)},
	{query: "round(2.5)", num: num(3)},
	{query: "round(-2.5)", num: num(-2)},
	{query: "7 mod 3", num: num(1)},
	// Number ::= Digits ('.' Digits?)? | '.' Digits — no exponent, no
	// sign but '-', nothing strconv would add. Every engine converts
	// through semantics.StringToNumber, so only a golden answer sees it.
	{query: "string(number('1e3'))", str: str("NaN")},
	{query: "concat(number('+5'), '|', number('0x10'), '|', number('inf'), '|', number(' -.5 '), '|', number('5.'))", str: str("NaN|NaN|NaN|-0.5|5")},
	// Strings.
	{query: "string(//title)", str: str("One")},
	{query: "concat(//title, '-', //appendix/title)", str: str("One-App")},
	{query: "substring-before('1999/04/01', '/')", str: str("1999")},
	{query: "substring-after('1999/04/01', '/')", str: str("04/01")},
	{query: "substring('12345', 2, 3)", str: str("234")},
	{query: "normalize-space('  a   b  ')", str: str("a b")},
	{query: "translate('bar', 'abc', 'ABC')", str: str("BAr")},
	{query: "string(1 = 1)", str: str("true")},
	{query: "string(count(//p) > 100)", str: str("false")},
	{query: "name(//*[@id = 'a1'])", str: str("appendix")},
	{query: "local-name((//@id)[1])", str: str("id")},
	// Booleans.
	{query: "boolean(//section)", boolean: bl(true)},
	{query: "boolean(//nosuch)", boolean: bl(false)},
	{query: "not(//nosuch)", boolean: bl(true)},
	{query: "contains(string(//p[2]), 'eco')", boolean: bl(true)},
	{query: "starts-with('abc', 'ab')", boolean: bl(true)},
	{query: "lang('en')", boolean: bl(false)}, // context is the root, outside doc's lang scope? root inherits nothing
	{query: "//p = 'third'", boolean: bl(true)},
	{query: "//p != //title", boolean: bl(true)},
	{query: "count(//p) > count(//title)", boolean: bl(true)},
	{query: "2 = '2'", boolean: bl(true)},
	{query: "true() > false()", boolean: bl(true)},
}

func TestSpecGoldenAnswers(t *testing.T) { checkGolden(t, specDoc, specCases) }

// TestTextNodeGoldenAnswers: a text node never has a text sibling
// (XPath 1.0 §5.7), however the document wrote the text — character
// data around and inside CDATA sections is one node, and whether it is
// whitespace to drop is decided on the whole of it. Every engine reads
// the same tree, so only a golden answer sees how the parser built it
// (the parser before PR 21 made three siblings of the first document:
// count 3, [1] = "x", and lost the space in the second).
func TestTextNodeGoldenAnswers(t *testing.T) {
	checkGolden(t, `<a>x<![CDATA[y<]]>z</a>`, []specCase{
		{query: "count(/a/text())", num: num(1)},
		{query: "/a/text()[1]", nodeStrings: []string{"xy<z"}},
		{query: "/a/text()[last()]", nodeStrings: []string{"xy<z"}},
		{query: "/a/text()/following-sibling::text()", nodeStrings: []string{}},
		{query: "string(/a)", str: str("xy<z")},
		{query: "string-length(/a/text())", num: num(4)},
	})
	checkGolden(t, `<a>x<![CDATA[ ]]>y<b> <![CDATA[ ]]> </b><c> <![CDATA[c]]></c></a>`, []specCase{
		{query: "string(/a)", str: str("x y c")},
		{query: "count(//text())", num: num(2)},
		{query: "count(/a/b/node())", num: num(0)},
		{query: "string(/a/c/text()[1])", str: str(" c")},
	})
}

func checkGolden(t *testing.T, doc string, cases []specCase) {
	t.Helper()
	d := xmltree.MustParseString(doc)
	es := engines(d)
	ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
	for _, tc := range cases {
		e, err := xpath.Parse(tc.query)
		if err != nil {
			t.Errorf("parse %q: %v", tc.query, err)
			continue
		}
		for name, eng := range es {
			v, err := eng.Evaluate(e, ctx)
			if err != nil {
				t.Errorf("%s(%q): %v", name, tc.query, err)
				continue
			}
			switch {
			case tc.nodeStrings != nil:
				if v.Kind != xpath.TypeNodeSet {
					t.Errorf("%s(%q): kind %v, want nset", name, tc.query, v.Kind)
					continue
				}
				if len(v.Set) != len(tc.nodeStrings) {
					t.Errorf("%s(%q) = %d nodes, want %d", name, tc.query, len(v.Set), len(tc.nodeStrings))
					continue
				}
				for i, n := range v.Set {
					if got := d.StringValue(n); got != tc.nodeStrings[i] {
						t.Errorf("%s(%q)[%d] = %q, want %q", name, tc.query, i, got, tc.nodeStrings[i])
					}
				}
			case tc.num != nil:
				if v.Kind != xpath.TypeNumber || v.Num != *tc.num {
					t.Errorf("%s(%q) = %+v, want num %v", name, tc.query, v, *tc.num)
				}
			case tc.str != nil:
				if v.Kind != xpath.TypeString || v.Str != *tc.str {
					t.Errorf("%s(%q) = %+v, want str %q", name, tc.query, v, *tc.str)
				}
			case tc.boolean != nil:
				if v.Kind != xpath.TypeBoolean || v.Bool != *tc.boolean {
					t.Errorf("%s(%q) = %+v, want bool %v", name, tc.query, v, *tc.boolean)
				}
			}
		}
	}
}
