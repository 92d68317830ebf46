package corexpath_test

import (
	"testing"

	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xpatterns"
)

func TestMatchSet(t *testing.T) {
	d := xmltree.MustParseString(`<a><s><t/><p/></s><s><t/></s><t/></a>`)
	ev := xpatterns.New(d)

	// Relative pattern s/t: any t with an s parent matches.
	set, err := ev.MatchSet(xpath.MustParse("s/child::t"))
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Errorf("s/t match set = %v, want the two nested t", set)
	}
	for _, n := range set {
		if d.Name(n) != "t" || d.Name(d.Parent(n)) != "s" {
			t.Errorf("bad match %v", n)
		}
	}

	// Absolute pattern /a/t: only the top-level t.
	set, err = ev.MatchSet(xpath.MustParse("/child::a/child::t"))
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || d.Name(d.Parent(set[0])) != "a" {
		t.Errorf("/a/t match set = %v", set)
	}

	// Pattern with predicate.
	set, err = ev.MatchSet(xpath.MustParse("s[child::p]/child::t"))
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Errorf("s[p]/t match set = %v", set)
	}

	// Matches on an individual node.
	ok, err := ev.Matches(xpath.MustParse("child::p"), set[0])
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("t must not match pattern p")
	}

	// Non-fragment pattern errors.
	if _, err := ev.MatchSet(xpath.MustParse("count(//t)")); err == nil {
		t.Error("non-fragment pattern must error")
	}
}

// TestMatchSetAgainstBruteForce: n ∈ MatchSet(π) iff ∃x: n ∈ π(x).
func TestMatchSetAgainstBruteForce(t *testing.T) {
	d := xmltree.MustParseString(`<a><b><c/><b><c/></b></b><c/></a>`)
	ev := xpatterns.New(d)
	patterns := []string{
		"child::c",
		"b/child::c",
		"descendant::b/child::c",
		"/descendant::b[child::b]/descendant::c",
		"b[not(child::b)]/child::c",
	}
	for _, p := range patterns {
		e := xpath.MustParse(p)
		got, err := ev.MatchSet(e)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var want xmltree.NodeSet
		for x := 0; x < d.Len(); x++ {
			v, err := ev.Evaluate(e, semantics.Context{Node: xmltree.NodeID(x), Pos: 1, Size: 1})
			if err != nil {
				t.Fatal(err)
			}
			want = want.Union(v.Set)
		}
		if !got.Equal(want) {
			t.Errorf("%s: MatchSet = %v, brute force = %v", p, got, want)
		}
	}
}
