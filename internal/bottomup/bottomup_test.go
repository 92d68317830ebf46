package bottomup

import (
	"testing"

	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestFigure6Tables reproduces the context-value tables of Example 6.4
// (Figure 6) for DOC(4).
func TestFigure6Tables(t *testing.T) {
	d := xmltree.MustParseString(`<a><b/><b/><b/><b/></a>`)
	r := d.RootID()
	a := d.DocumentElement()
	kids := d.Children(a)
	b1, b2, b3, b4 := kids[0], kids[1], kids[2], kids[3]
	ev := New(d)

	// E1 = descendant::b.
	e1 := xpath.MustParse("descendant::b")
	tab, err := ev.Table(e1)
	if err != nil {
		t.Fatal(err)
	}
	all := xmltree.NewNodeSet(b1, b2, b3, b4)
	wantE1 := map[xmltree.NodeID]xmltree.NodeSet{
		r: all, a: all, b1: nil, b2: nil, b3: nil, b4: nil,
	}
	for x, want := range wantE1 {
		got, ok := tab[semantics.Context{Node: x, Pos: -1, Size: -1}]
		if !ok {
			t.Fatalf("E1 table missing row for node %d", x)
		}
		if !got.Set.Equal(want) {
			t.Errorf("E↑[[E1]](%d) = %v, want %v", x, got.Set, want)
		}
	}

	// E2 = following-sibling::*[position() != last()] (as a whole step
	// relation we check via the full query).
	q := xpath.MustParse("descendant::b/following-sibling::*[position() != last()]")
	tabQ, err := ev.Table(q)
	if err != nil {
		t.Fatal(err)
	}
	wantQ := map[xmltree.NodeID]xmltree.NodeSet{
		r: xmltree.NewNodeSet(b2, b3), a: xmltree.NewNodeSet(b2, b3),
		b1: nil, b2: nil, b3: nil, b4: nil,
	}
	for x, want := range wantQ {
		got := tabQ[semantics.Context{Node: x, Pos: -1, Size: -1}]
		if !got.Set.Equal(want) {
			t.Errorf("E↑[[Q]](%d) = %v, want %v", x, got.Set, want)
		}
	}
}

// TestPositionLastTables checks E↑[[position()]] and E↑[[last()]]
// (Example 6.4: E5 and E6).
func TestPositionLastTables(t *testing.T) {
	d := xmltree.MustParseString(`<a><b/></a>`)
	ev := New(d)
	tab, err := ev.Table(xpath.MustParse("position()"))
	if err != nil {
		t.Fatal(err)
	}
	// position() has Relev {cp}: one row per position value.
	if len(tab) != d.Len() {
		t.Errorf("position() table has %d rows, want %d", len(tab), d.Len())
	}
	for c, v := range tab {
		if v.Num != float64(c.Pos) {
			t.Errorf("position() at pos %d = %v", c.Pos, v.Num)
		}
	}
	tab, err = ev.Table(xpath.MustParse("last()"))
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range tab {
		if v.Num != float64(c.Size) {
			t.Errorf("last() at size %d = %v", c.Size, v.Num)
		}
	}
}

// TestRelevProjection confirms tables only materialize relevant columns:
// a constant has one row; a node-dependent expression has |dom| rows;
// position() != last() has O(|dom|²) rows.
func TestRelevProjection(t *testing.T) {
	d := xmltree.MustParseString(`<a><b/><b/><b/></a>`) // |dom| = 5
	ev := New(d)
	rows := func(q string) int {
		tab, err := ev.Table(xpath.MustParse(q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return len(tab)
	}
	if got := rows("1"); got != 1 {
		t.Errorf("constant table rows = %d, want 1", got)
	}
	if got := rows("child::b"); got != d.Len() {
		t.Errorf("path table rows = %d, want %d", got, d.Len())
	}
	n := d.Len()
	if got := rows("position() != last()"); got != n*(n+1)/2 {
		t.Errorf("pos/size table rows = %d, want %d", got, n*(n+1)/2)
	}
}

func TestAbsolutePathIgnoresContext(t *testing.T) {
	d := xmltree.MustParseString(`<a><b/><c/></a>`)
	ev := New(d)
	e := xpath.MustParse("/descendant::b")
	// Same result from every context node.
	var first xmltree.NodeSet
	for i := 0; i < d.Len(); i++ {
		v, err := ev.Evaluate(e, semantics.Context{Node: xmltree.NodeID(i), Pos: 1, Size: 1})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = v.Set
		} else if !v.Set.Equal(first) {
			t.Errorf("absolute path varies with context node %d", i)
		}
	}
}
