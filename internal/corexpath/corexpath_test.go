package corexpath_test

import (
	"testing"

	"repro/internal/naive"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xpatterns"
)

var docs = map[string]string{
	"doc4":  `<a><b/><b/><b/><b/></a>`,
	"tree":  `<a><b><c/><d/></b><e><f/><c/></e><b><c/></b></a>`,
	"text":  `<r><x>1</x><y><x>2</x></y><z/></r>`,
	"attrs": `<r><a x="1"/><a/><a x="2" y="3"/></r>`,
}

// coreQueries are all within the Core XPath fragment.
var coreQueries = []string{
	"/descendant::a",
	"/descendant::b/child::c",
	"//c",
	"//b[child::c]",
	"//*[child::c and child::d]",
	"//*[child::c or child::d]",
	"//*[not(child::*)]",
	"//*[not(following::*)]",
	"/descendant::a/child::b[child::c/child::d or not(following::*)]", // Example 10.3
	"//c/ancestor::b",
	"//*[ancestor::e]",
	"//*[preceding-sibling::b]",
	"//*[descendant::c][child::b]",
	"//*[child::*[child::c]]",
	"//a | //b",
	"//*[/descendant::d]", // absolute path predicate: dom_root
	"//*[not(/descendant::nosuch)]",
	"//x[parent::y]",
	"//*[@x]",
	"//@x/parent::*",
	"//*[child::text()]",
	"self::node()/descendant::c",
	"//*[/]", // zero-step absolute predicate path: dom_root(dom)
}

func TestFragmentClassifier(t *testing.T) {
	for _, q := range coreQueries {
		if !xpatterns.InCoreXPath(xpath.MustParse(q)) {
			t.Errorf("InFragment(%q) = false, want true", q)
		}
	}
	notCore := []string{
		"//b[1]", // positions are not in Core XPath
		"//b[position() = last()]",
		"count(//b)", // numbers
		"//b[count(child::*) > 1]",
		"//*[. = 'c']", // string comparison
		"string(//b)",
		"id('x')/b",     // id needs XPatterns
		"//b[@x = '1']", // value comparison
		"1 + 1",
	}
	for _, q := range notCore {
		if xpatterns.InCoreXPath(xpath.MustParse(q)) {
			t.Errorf("InFragment(%q) = true, want false", q)
		}
	}
}

// TestAgainstNaive cross-checks the algebra against the reference
// engine on every fragment query and document.
func TestAgainstNaive(t *testing.T) {
	for dname, src := range docs {
		d := xmltree.MustParseString(src)
		core := xpatterns.New(d)
		ref := naive.New(d)
		ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
		for _, q := range coreQueries {
			e := xpath.MustParse(q)
			want, err := ref.Evaluate(e, ctx)
			if err != nil {
				t.Fatalf("naive %q: %v", q, err)
			}
			got, err := core.Evaluate(e, ctx)
			if err != nil {
				t.Errorf("doc %s query %q: %v", dname, q, err)
				continue
			}
			if !got.Set.Equal(want.Set) {
				t.Errorf("doc %s query %q: core = %v, naive = %v", dname, q, got.Set, want.Set)
			}
		}
	}
}

// TestExample103 walks the worked example of Section 10.1.
func TestExample103(t *testing.T) {
	d := xmltree.MustParseString(`<r><a><b><c><d/></c></b><b/><x/></a><a><b/></a></r>`)
	core := xpatterns.New(d)
	e := xpath.MustParse("/descendant::a/child::b[child::c/child::d or not(following::*)]")
	got, err := core.Evaluate(e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := naive.New(d).Evaluate(e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Set.Equal(ref.Set) {
		t.Errorf("core = %v, naive = %v", got.Set, ref.Set)
	}
	// The first b (has c/d) qualifies; the last b in the second a
	// qualifies only if nothing follows it.
	if len(got.Set) == 0 {
		t.Error("expected non-empty result")
	}
}

// TestSBackEquivalence checks Theorem 10.4: S←[[π]] = {x | S↓[[π]]({x}) ≠ ∅}
// by brute force over all context nodes.
func TestSBackEquivalence(t *testing.T) {
	d := xmltree.MustParseString(docs["tree"])
	core := xpatterns.New(d)
	ref := naive.New(d)
	paths := []string{
		"child::c",
		"child::b/child::c",
		"descendant::c",
		"following::c",
		"parent::b",
		"ancestor::a/child::e",
		"/descendant::c", // absolute
	}
	for _, q := range paths {
		p := xpath.MustParse(q).(*xpath.Path)
		// E1[[π]] = S←[[π]] is what self::node()[π] keeps of dom.
		got, err := core.MatchSet(xpath.MustParse("self::node()[" + q + "]"))
		if err != nil {
			t.Fatalf("S←[[%s]]: %v", q, err)
		}
		var want xmltree.NodeSet
		for i := 0; i < d.Len(); i++ {
			x := xmltree.NodeID(i)
			v, err := ref.Evaluate(p, semantics.Context{Node: x, Pos: 1, Size: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !v.Set.IsEmpty() {
				want = append(want, x)
			}
		}
		if !got.Equal(want) {
			t.Errorf("S←[[%s]] = %v, want %v", q, got, want)
		}
	}
}

func TestRejectsNonFragment(t *testing.T) {
	d := xmltree.MustParseString(docs["doc4"])
	core := xpatterns.New(d)
	_, err := core.Evaluate(xpath.MustParse("count(//b)"), semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
	if err == nil {
		t.Error("expected error on non-fragment query")
	}
}
