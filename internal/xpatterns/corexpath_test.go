package xpatterns

import (
	"testing"

	"repro/internal/naive"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestExample103 walks the worked example of Section 10.1.
func TestExample103(t *testing.T) {
	d := xmltree.MustParseString(`<r><a><b><c><d/></c></b><b/><x/></a><a><b/></a></r>`)
	core := New(d)
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
	d := xmltree.MustParseString(`<a><b><c/><d/></b><e><f/><c/></e><b><c/></b></a>`)
	core := New(d)
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
