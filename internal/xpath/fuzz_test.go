package xpath

import (
	"errors"
	"testing"
)

// FuzzXPathParse: on any bytes Parse returns a tree or an error —
// ErrTooDeep, not a stack overflow, for deep nesting — and never panics.
// A tree it returns is numbered densely in post-order, prints as a query
// that parses back to the same printed form, and Optimize of it is a
// fixpoint that keeps every slot below the count, each node's below its
// parent's. Seeded with every query of the golden file and the non-ASCII
// names.
func FuzzXPathParse(f *testing.F) {
	for _, e := range readGolden(f) {
		f.Add(e.query)
	}
	for q := range nonASCIIQueries {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			if e != nil {
				t.Fatalf("Parse(%q) returned %s with error %v", src, e, err)
			}
			return
		}
		printed := e.String()
		again, err := Parse(printed)
		switch {
		case errors.Is(err, ErrTooDeep):
			// The printed form spells out what the query abbreviates —
			// parentheses around every operator, boolean(·) around
			// predicates — so it may nest deeper than the bound allows.
		case err != nil:
			t.Fatalf("Parse(%q) prints %q, which does not parse: %v", src, printed, err)
		case again.String() != printed:
			t.Fatalf("Parse(%q) prints %q, which parses to %q", src, printed, again)
		}
		if n := checkPostOrder(t, src, e); n != Slots(e) || Slot(e) != n-1 {
			t.Fatalf("%q: %d nodes, %d slots, root slot %d", src, n, Slots(e), Slot(e))
		}
		opt := Optimize(e)
		if Optimize(opt) != opt {
			t.Fatalf("%q: Optimize is not a fixpoint", src)
		}
		if Slots(opt) != Slots(e) {
			t.Fatalf("%q: Optimize changed the slot count %d to %d", src, Slots(e), Slots(opt))
		}
		checkPostOrder(t, src, opt)
	})
}

// checkPostOrder checks that every node of e has its own slot below
// Slots(e), each subexpression's below its parent's, and returns the
// node count.
func checkPostOrder(t *testing.T, src string, e Expr) int {
	seen := make(map[int]bool)
	above := []int{Slots(e)} // the slots of the nodes x lies in
	walk(e, func(x Expr) {
		s, parent := Slot(x), above[len(above)-1]
		if s < 0 || s >= parent || seen[s] {
			t.Fatalf("%q: %s has slot %d of %d under slot %d (taken: %v)", src, x, s, Slots(e), parent, seen[s])
		}
		seen[s] = true
		above = append(above, s)
	}, func(Expr) { above = above[:len(above)-1] })
	return len(seen)
}
