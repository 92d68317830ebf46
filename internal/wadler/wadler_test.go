package wadler

import (
	"testing"

	"repro/internal/naive"
	"repro/internal/semantics"
	"repro/internal/workload"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const fig8 = `<a id="10"><b id="11"><c id="12">21 22</c><c id="13">23 24</c><d id="14">100</d></b><b id="21"><c id="22">11 12</c><d id="23">13 14</d><d id="24">100</d></b></a>`

func ctxRoot(d *xmltree.Document) semantics.Context {
	return semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
}

func TestFragmentClassification(t *testing.T) {
	inFragment := []string{
		// Core XPath is contained in the Extended Wadler Fragment
		// (Corollary 11.5 discussion).
		"/descendant::a/child::b[child::c/child::d or not(following::*)]",
		"//b[child::c]",
		// Positions and arithmetic on position()/last() (Wadler's
		// original fragment).
		"//b[position() != last()]",
		"//b[position() > last()*0.5]",
		"//b[position() mod 2 = 1]",
		// nset RelOp constant.
		"//*[. = '100']",
		"//*[child::c = '21 22']",
		"//*[self::* = 100]",
		// The paper's Example 11.2 query.
		"/child::a/descendant::*[boolean(following::d[(position() != last()) and (preceding-sibling::*/preceding::* = 100)]/following::d)]",
		// id with constant argument (Restriction 3).
		"id('10')/child::b",
	}
	for _, q := range inFragment {
		if !InFragment(xpath.MustParse(q)) {
			t.Errorf("InFragment(%q) = false, want true", q)
		}
	}
	outOfFragment := []string{
		"count(//b)",                       // Restriction 2: count
		"//b[count(child::*) > 1]",         // count
		"sum(//b)",                         // sum
		"//*[child::a = child::b]",         // nset RelOp nset, both context dependent
		"//*[string(child::a) = 'x']",      // Restriction 1: string()
		"//*[name() = 'b']",                // Restriction 1: name()
		"//*[child::a = position()]",       // scalar depends on context
		"//*[string-length(child::a) = 2]", // Restriction 1
	}
	for _, q := range outOfFragment {
		if InFragment(xpath.MustParse(q)) {
			t.Errorf("InFragment(%q) = true, want false", q)
		}
	}
}

func TestExample112BottomUp(t *testing.T) {
	// Example 11.2 has two inner location paths (E5 and E14) that must
	// be evaluated bottom-up.
	d := xmltree.MustParseString(fig8)
	ev := New(d)
	q := "/child::a/descendant::*[boolean(following::d[(position() != last()) and (preceding-sibling::*/preceding::* = 100)]/following::d)]"
	v, err := ev.Evaluate(xpath.MustParse(q), ctxRoot(d))
	if err != nil {
		t.Fatal(err)
	}
	want := xmltree.NewNodeSet(d.IDOf("11"), d.IDOf("12"), d.IDOf("13"),
		d.IDOf("14"), d.IDOf("22"))
	if !v.Set.Equal(want) {
		t.Errorf("result = %v, want %v", v.Set, want)
	}
	if n := bottomUpPaths(t, d, xpath.MustParse(q)); n != 2 {
		t.Errorf("bottom-up paths = %d, want 2 (E5 and E14 of the example)", n)
	}
}

// TestBottomUpOnDemand: a bottom-up location path is computed when the
// MinContext run first needs its table, so behind a step that selects
// nothing none is. DOC(10) holds neither open_auction nor p, and the
// answers there cost no backward pass; on a document holding both
// names the same queries compute theirs. Either way the answer is
// naive's.
func TestBottomUpOnDemand(t *testing.T) {
	queries := []string{
		"//open_auction[count(bidder[increase[. > 1][position() = last()]]) > 1]/itemref",
		"//p[@i]",
		"//p[not(@i)]",
		"//p[@i = '2']",
	}
	holds := xmltree.MustParseString(`<site><open_auction><bidder><increase>2</increase></bidder>` +
		`<bidder><increase>3</increase></bidder><itemref/></open_auction><p i="1"/><p i="2"/><p/></site>`)
	for _, tc := range []struct {
		name  string
		d     *xmltree.Document
		empty bool
	}{{"DOC(10)", workload.Doc(10), true}, {"both names", holds, false}} {
		for _, q := range queries {
			e := xpath.MustParse(q)
			want, err := naive.New(tc.d).Evaluate(e, ctxRoot(tc.d))
			if err != nil {
				t.Fatal(err)
			}
			opt := xpath.Optimize(e)
			if got, err := New(tc.d).Evaluate(opt, ctxRoot(tc.d)); err != nil || !got.Equal(want) {
				t.Errorf("%s, %s: optmincontext %+v, %v; naive %+v", tc.name, q, got, err, want)
			}
			switch n := bottomUpPaths(t, tc.d, opt); {
			case tc.empty && n != 0:
				t.Errorf("%s, %s: %d bottom-up paths computed behind an empty step, want 0", tc.name, q, n)
			case !tc.empty && n == 0:
				t.Errorf("%s, %s: no bottom-up path computed", tc.name, q)
			}
		}
	}
}

func TestBottomUpAgainstNaive(t *testing.T) {
	d := xmltree.MustParseString(fig8)
	ref := naive.New(d)
	ev := New(d)
	queries := []string{
		"//*[. = '100']",
		"//*[child::c = '21 22']",
		"//*[descendant::d = 100]",
		"//b[boolean(child::c)]",
		"//*[not(child::* = '100')]",
		"//*[following::* = 100]",
		"//*[preceding-sibling::*/preceding::* = 100]",
		"//*[child::c = '21 22' or child::d = '13 14']",
		"//c[. = '21 22'][position() = 1]",
		"id('11')/child::c",
		"//*[boolean(id('14'))]",
	}
	for _, q := range queries {
		e := xpath.MustParse(q)
		want, err := ref.Evaluate(e, ctxRoot(d))
		if err != nil {
			t.Fatalf("naive %q: %v", q, err)
		}
		got, err := ev.Evaluate(e, ctxRoot(d))
		if err != nil {
			t.Errorf("%q: %v", q, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("%q: optmincontext = %+v, naive = %+v", q, got, want)
		}
	}
}

func TestFallbackOutsideFragment(t *testing.T) {
	// OptMinContext must still answer queries outside the fragment
	// (via MinContext), with no bottom-up paths collected for the
	// non-qualifying parts.
	d := xmltree.MustParseString(fig8)
	ev := New(d)
	ref := naive.New(d)
	for _, q := range []string{
		"count(//b)",
		"//b[count(child::*) > 1]",
		"sum(//d) + 1",
		"//*[string(child::c) = '21 22']",
		"//b[count((c)[count(text()) > 0]) > 1]", // a predicate tabulated once per b
	} {
		e := xpath.MustParse(q)
		want, err := ref.Evaluate(e, ctxRoot(d))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.Evaluate(e, ctxRoot(d))
		if err != nil {
			t.Errorf("%q: %v", q, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("%q: got %+v, want %+v", q, got, want)
		}
		if n := bottomUpPaths(t, d, e); n != 0 {
			t.Errorf("%q: %d bottom-up paths outside the fragment", q, n)
		}
	}
}

// TestFragmentLattice verifies the Figure 1 inclusion: Core XPath ⊂
// Extended Wadler Fragment (every Core XPath query is Wadler), and both
// are proper subsets of XPath.
func TestFragmentLattice(t *testing.T) {
	coreQueries := []string{
		"/descendant::a/child::b",
		"//b[child::c]",
		"//*[not(child::*) and following::b]",
		"/descendant::a/child::b[child::c/child::d or not(following::*)]",
		"//a[b | c]",
		"//a[not(b | c)]",
	}
	for _, q := range coreQueries {
		if !InFragment(xpath.MustParse(q)) {
			t.Errorf("Core XPath query %q must be in the Wadler fragment", q)
		}
	}
	// Wadler-but-not-Core: positions.
	wadlerOnly := "//b[position() != last()]"
	if !InFragment(xpath.MustParse(wadlerOnly)) {
		t.Errorf("%q should be Wadler", wadlerOnly)
	}
	// Full-XPath-only: count.
	full := "//b[count(child::*) > 1]"
	if InFragment(xpath.MustParse(full)) {
		t.Errorf("%q should not be Wadler", full)
	}
}
