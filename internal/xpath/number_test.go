package xpath

import (
	"math/rand"
	"testing"
)

// numberedQueries cover every node type, predicates in steps and in
// filters, id heads, unions and the shapes Optimize rewrites.
var numberedQueries = []string{
	"/", ".", "//a", "//a/b[1]", "//a[b][2]/c", "a/./b", ".//x[last()]",
	"count(//open_auction[count(bidder) > 2])",
	"//item[position() mod 2 = 0]/name",
	"sum(//a/b) + count(.//c[d = 'x']) * -2",
	"(//a | //b)[2]/c", "id('x')/a", "id(//a/@ref)/b[.//c]",
	"//a[not(b) and (c or lang('en'))]",
	"//x[.//y[. > 2]][position() != last()]",
	"(//x)[2]//y | //w//x | //@a//x",
	"string-length() + string-length(normalize-space(.))",
	"(a)/.", "(//a)[1]/./.",
}

// slotsOf returns the nodes of e's tree in Walk order and checks that
// each carries its own slot below Slots(e).
func slotsOf(t *testing.T, src string, e Expr) []Expr {
	t.Helper()
	var nodes []Expr
	seen := map[int]bool{}
	Walk(e, func(x Expr) {
		nodes = append(nodes, x)
		s := Slot(x)
		if s < 0 || s >= Slots(e) || seen[s] || Slots(x) != Slots(e) {
			t.Errorf("%s: node %s has slot %d of %d (seen before: %v)", src, x, s, Slots(x), seen[s])
		}
		seen[s] = true
	})
	return nodes
}

// TestNumberingDense: Parse numbers densely, 0 … n−1 in post-order with
// the root last, and records in every node the Relev the rules of
// Section 8.2 give an un-numbered copy of it.
func TestNumberingDense(t *testing.T) {
	for _, src := range numberedQueries {
		e := MustParse(src)
		nodes := slotsOf(t, src, e)
		if Slots(e) != len(nodes) || Slot(e) != len(nodes)-1 {
			t.Errorf("%s: %d nodes, Slots %d, root slot %d", src, len(nodes), Slots(e), Slot(e))
		}
		for _, x := range nodes {
			Walk(x, func(sub Expr) {
				if sub != x && Slot(sub) >= Slot(x) {
					t.Errorf("%s: %s has slot %d, its subexpression %s slot %d", src, x, Slot(x), sub, Slot(sub))
				}
			})
		}
		checkRecordedRelev(t, src, e)
	}
}

// checkRecordedRelev compares the Relev recorded in every node of e with
// the rules applied to an un-numbered copy (substitute builds one).
func checkRecordedRelev(t *testing.T, src string, e Expr) {
	t.Helper()
	twin, err := substitute(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	var plain []Expr
	Walk(twin, func(x Expr) { plain = append(plain, x) })
	i := 0
	Walk(e, func(x Expr) {
		if Slots(plain[i]) != 0 {
			t.Fatalf("%s: the copy of %s is numbered", src, x)
		}
		if got, want := RelevantContext(x), RelevantContext(plain[i]); got != want {
			t.Errorf("%s: %s records Relev %v, the rules give %v", src, x, got, want)
		}
		i++
	})
}

// TestOptimizeKeepsNumbering: the optimized tree is a second view of the
// literal tree's numbering — same slot count, every node its own slot,
// Relev as the rules give it, the root's slot kept unless the root
// itself was a path dropped for its head — and optimizing again returns
// it as is.
func TestOptimizeKeepsNumbering(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	queries := append([]string(nil), numberedQueries...)
	for i := 0; i < 300; i++ {
		queries = append(queries, genExpr(r, 3).String())
	}
	for _, src := range queries {
		e, err := Parse(src)
		if err != nil {
			continue // a generated tree may print what the grammar lacks
		}
		opt := Optimize(e)
		if again := Optimize(opt); again != opt {
			t.Errorf("%s: Optimize is not stable", src)
		}
		if Slots(opt) != Slots(e) {
			t.Errorf("%s: %d slots became %d", src, Slots(e), Slots(opt))
		}
		slotsOf(t, src, opt)
		slotsOf(t, src, e) // the literal tree still stands
		checkRecordedRelev(t, src, opt)
		if _, wasPath := e.(*Path); Slot(opt) != Slot(e) && !wasPath {
			t.Errorf("%s: root slot %d became %d", src, Slot(e), Slot(opt))
		}
	}
}

// TestSubstituteNumbersAFreshTree: a binding used twice, and used again
// by a second query, is copied — the constants the caller holds are
// never numbered, the trees are.
func TestSubstituteNumbersAFreshTree(t *testing.T) {
	w := &Number{Val: 2}
	b := Bindings{"w": w}
	for _, src := range []string{"//a[$w]/b[. = $w]", "count(//c) > $w"} {
		e, err := Substitute(MustParse(src), b)
		if err != nil {
			t.Fatal(err)
		}
		if nodes := slotsOf(t, src, e); Slots(e) != len(nodes) {
			t.Errorf("%s: %d nodes, %d slots", src, len(nodes), Slots(e))
		}
		checkRecordedRelev(t, src, e)
	}
	if Slots(w) != 0 || Slot(w) != -1 {
		t.Errorf("the bound constant was numbered: slot %d of %d", Slot(w), Slots(w))
	}
}

// TestHandBuiltTreeHasNoSlots: nothing is guessed for a tree no
// constructor numbered, and Optimize does not invent a numbering.
func TestHandBuiltTreeHasNoSlots(t *testing.T) {
	e := &Binary{Op: OpGt, Left: &Call{Name: "position"}, Right: &Number{Val: 1}}
	for _, x := range []Expr{e, Optimize(e)} {
		if Slots(x) != 0 || Slot(x) != -1 {
			t.Errorf("hand-built %s: slot %d of %d", x, Slot(x), Slots(x))
		}
		if got := RelevantContext(x); got != RelevPos {
			t.Errorf("RelevantContext(%s) = %v, want {cp}", x, got)
		}
	}
}
