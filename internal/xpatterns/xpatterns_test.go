package xpatterns

import (
	"testing"

	"repro/internal/naive"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

var idDoc = xmltree.MustParseString(
	`<lib id="root"><book id="b1"><ref>b2 b3</ref></book>` +
		`<book id="b2"><ref>b1</ref><title>X</title></book>` +
		`<book id="b3"><title>X</title><price>10</price></book></lib>`)

var patternQueries = []string{
	"id('b1')",
	"id('b1 b3')",
	"id('b1')/child::ref",
	"//book[child::title]",
	"//book[child::title = 'X']",
	"//*[. = '10']",
	"//book[child::price = 10]",
	"//book[not(child::ref)]",
	"//book[child::title = 'X' and child::price]",
	"id('b1') | //price",
	"//*[child::ref = 'b1']/child::title",
}

func ctxRoot(d *xmltree.Document) semantics.Context {
	return semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
}

func TestClassifier(t *testing.T) {
	for _, q := range patternQueries {
		if !InFragment(xpath.MustParse(q)) {
			t.Errorf("InFragment(%q) = false, want true", q)
		}
	}
	notPatterns := []string{
		"//book[1]",
		"count(//book)",
		"//book[child::price > 5]", // only = comparisons are unary "=s"
		"//book[child::title = child::ref]",
		"string(//book)",
	}
	for _, q := range notPatterns {
		if InFragment(xpath.MustParse(q)) {
			t.Errorf("InFragment(%q) = true, want false", q)
		}
	}
}

func TestAgainstNaive(t *testing.T) {
	ref := naive.New(idDoc)
	ev := New(idDoc)
	for _, q := range patternQueries {
		e := xpath.MustParse(q)
		want, err := ref.Evaluate(e, ctxRoot(idDoc))
		if err != nil {
			t.Fatalf("naive %q: %v", q, err)
		}
		got, err := ev.Evaluate(e, ctxRoot(idDoc))
		if err != nil {
			t.Errorf("%q: %v", q, err)
			continue
		}
		if !got.Set.Equal(want.Set) {
			t.Errorf("%q: xpatterns = %v, naive = %v", q, got.Set, want.Set)
		}
	}
}

func TestIDOfPath(t *testing.T) {
	// id(π): dereference the string values of the nodes π reaches.
	// id(//ref) derefs "b2 b3" and "b1" → books b1, b2, b3.
	ev := New(idDoc)
	ref := naive.New(idDoc)
	for _, q := range []string{"id(//ref)", "id(//ref)/child::title", "id(id('b1')/child::ref)"} {
		e := xpath.MustParse(q)
		want, err := ref.Evaluate(e, ctxRoot(idDoc))
		if err != nil {
			t.Fatalf("naive %q: %v", q, err)
		}
		got, err := ev.Evaluate(e, ctxRoot(idDoc))
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if !got.Set.Equal(want.Set) {
			t.Errorf("%q: xpatterns = %v, naive = %v", q, got.Set, want.Set)
		}
	}
}

func TestIDHeadInPredicate(t *testing.T) {
	// A predicate containing an id(…) head path: books that id('b1')'s
	// refs point to.
	q := "//book[id('b1')]" // existential: true iff id('b1') non-empty
	e := xpath.MustParse(q)
	ev := New(idDoc)
	ref := naive.New(idDoc)
	want, err := ref.Evaluate(e, ctxRoot(idDoc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.Evaluate(e, ctxRoot(idDoc))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Set.Equal(want.Set) {
		t.Errorf("%q: xpatterns = %v, naive = %v", q, got.Set, want.Set)
	}
}

// boundary is the set of one XSLT'98 unary predicate over the whole
// document: the first (or last) element of every sibling list, per tag
// name with byType.
func boundary(ev *Evaluator, first, byType bool) (xmltree.NodeSet, error) {
	name := map[bool]string{true: "first", false: "last"}[first] + map[bool]string{true: "-of-type", false: "-of-any"}[byType]
	v, err := ev.Evaluate(xpath.MustParse("//*["+name+"()]"), ctxRoot(ev.doc))
	return v.Set, err
}

func TestUnaryPredicateSets(t *testing.T) {
	d := xmltree.MustParseString(`<r><a/><b/><a/><c><a/><a/></c></r>`)
	ev := New(d)
	name := func(id xmltree.NodeID) string { return d.Name(id) }

	foa, err := boundary(ev, true, false)
	if err != nil {
		t.Fatal(err)
	}
	// First children: r (of root), a (first child of r), first a in c.
	if len(foa) != 3 {
		t.Errorf("first-of-any = %d nodes, want 3", len(foa))
	}
	loa, err := boundary(ev, false, false)
	if err != nil {
		t.Fatal(err)
	}
	// Last children: r, c (last child of r), last a in c.
	if len(loa) != 3 {
		t.Errorf("last-of-any = %d nodes, want 3", len(loa))
	}

	fot, err := ev.FirstOfType()
	if err != nil {
		t.Fatal(err)
	}
	// Per sibling list, first of each tag: r; a(first),b,c under r;
	// first a under c → 5.
	if len(fot) != 5 {
		var ns []string
		for _, id := range fot {
			ns = append(ns, name(id))
		}
		t.Errorf("FirstOfType = %v (%d), want 5", ns, len(fot))
	}
	lot, err := boundary(ev, false, true)
	if err != nil {
		t.Fatal(err)
	}
	// r; b, second a, c under r; second a under c → 5.
	if len(lot) != 5 {
		t.Errorf("last-of-type = %d, want 5", len(lot))
	}
	// first-of-type ∩ last-of-type = types occurring once per list.
	both := fot.Intersect(lot)
	for _, id := range both {
		if name(id) == "a" && d.Parent(id) == d.DocumentElement() {
			t.Errorf("a under r occurs twice; cannot be both first and last of type")
		}
	}
}

func TestRejectsOutOfFragment(t *testing.T) {
	ev := New(idDoc)
	if _, err := ev.Evaluate(xpath.MustParse("count(//book)"), ctxRoot(idDoc)); err == nil {
		t.Error("expected error for count()")
	}
	if _, err := ev.Evaluate(xpath.MustParse("//book[child::price > 5]"), ctxRoot(idDoc)); err == nil {
		t.Error("expected error for > comparison")
	}
}
