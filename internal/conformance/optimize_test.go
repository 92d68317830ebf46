package conformance

import (
	"sort"
	"testing"

	"repro/internal/mincontext"
	"repro/internal/naive"
	"repro/internal/semantics"
	"repro/internal/topdown"
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

// fuzzDocs is the docs table plus the documents of the targeted tests,
// in a fixed order so a corpus entry keeps meaning the same document.
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
	return out
}()

// FuzzOptimizeAgrees: for any query text that parses, the naive engine
// on the literal tree, and the top-down and MinContext engines on
// xpath.Optimize of it, return the same value from the root of a
// document of fuzzDocs. The naive engine runs under a step budget;
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
		for name, eng := range map[string]engine{"topdown": topdown.New(d), "mincontext": mincontext.New(d)} {
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
