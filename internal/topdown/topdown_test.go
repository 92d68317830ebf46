package topdown

import (
	"testing"

	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func ctxAt(n xmltree.NodeID) semantics.Context {
	return semantics.Context{Node: n, Pos: 1, Size: 1}
}

// TestExample73 walks Example 7.3: evaluating the Example 6.4 query
// top-down over DOC(4).
func TestExample73(t *testing.T) {
	d := xmltree.MustParseString(`<a><b/><b/><b/><b/></a>`)
	a := d.DocumentElement()
	kids := d.Children(a)
	ev := New(d)
	e := xpath.MustParse("descendant::b/following-sibling::*[position() != last()]")
	v, err := ev.Evaluate(e, ctxAt(a))
	if err != nil {
		t.Fatal(err)
	}
	want := xmltree.NewNodeSet(kids[1], kids[2])
	if !v.Set.Equal(want) {
		t.Errorf("query = %v, want %v", v.Set, want)
	}
}

// TestExample72Shape runs the Example 7.2 query, which mixes an
// outer positional predicate with nested paths and count().
func TestExample72Shape(t *testing.T) {
	d := xmltree.MustParseString(
		`<r><a><b><c/></b><d/></a><a><d/></a><a><b><c/><c/></b></a></r>`)
	ev := New(d)
	e := xpath.MustParse("/descendant::a[count(descendant::b/child::c) + position() < last()]/child::d")
	v, err := ev.Evaluate(e, ctxAt(d.RootID()))
	if err != nil {
		t.Fatal(err)
	}
	// First a: count(c)=1, pos=1, last=3 → 2 < 3 true → contributes d.
	// Second a: count=0, pos=2 → 2 < 3 true → contributes its d.
	// Third a: count=2, pos=3 → 5 < 3 false.
	if len(v.Set) != 2 {
		t.Errorf("result = %v, want the two d children", v.Set)
	}
}

// TestVectorSharing checks that evaluating a path for many contexts in
// one vector gives the same answers as evaluating per context.
func TestVectorSharing(t *testing.T) {
	d := xmltree.MustParseString(`<a><b><c/></b><b/><b><c/><c/></b></a>`)
	ev := New(d)
	p := xpath.MustParse("child::c")
	var ctxs []semantics.Context
	for i := 0; i < d.Len(); i++ {
		ctxs = append(ctxs, ctxAt(xmltree.NodeID(i)))
	}
	vec, err := newRun(nil, nil, d).evalVector(p, ctxs)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range ctxs {
		single, err := ev.Evaluate(p, c)
		if err != nil {
			t.Fatal(err)
		}
		if !vec[i].Set.Equal(single.Set) {
			t.Errorf("context %d: vector %v != single %v", i, vec[i].Set, single.Set)
		}
	}
}

// TestPredicateContextDedup ensures positions are computed per
// previous-context-node candidate set, not globally.
func TestPredicateContextDedup(t *testing.T) {
	// Two b parents with different numbers of c children: [2] must
	// select the second c *within each parent*.
	d := xmltree.MustParseString(`<a><b><c/><c/></b><b><c/><c/><c/></b></a>`)
	ev := New(d)
	v, err := ev.Evaluate(xpath.MustParse("//b/c[2]"), ctxAt(d.RootID()))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Set) != 2 {
		t.Errorf("//b/c[2] = %v, want one node per parent", v.Set)
	}
	// [last()] likewise.
	v, err = ev.Evaluate(xpath.MustParse("//b/c[last()]"), ctxAt(d.RootID()))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Set) != 2 {
		t.Errorf("//b/c[last()] = %v, want 2 nodes", v.Set)
	}
}

// TestReverseAxisPositions checks <doc,χ ordering: positions on
// reverse axes count backwards in document order.
func TestReverseAxisPositions(t *testing.T) {
	d := xmltree.MustParseString(`<a><b/><b/><b/></a>`)
	kids := d.Children(d.DocumentElement())
	ev := New(d)
	// preceding-sibling::b[1] of the last b is its nearest preceding
	// sibling, i.e. the second b.
	v, err := ev.Evaluate(xpath.MustParse("preceding-sibling::b[1]"),
		semantics.Context{Node: kids[2], Pos: 1, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Set) != 1 || v.Set[0] != kids[1] {
		t.Errorf("preceding-sibling::b[1] = %v, want %v", v.Set, kids[1])
	}
	// ancestor-or-self::*[1] is the element itself.
	v, err = ev.Evaluate(xpath.MustParse("ancestor-or-self::*[1]"),
		semantics.Context{Node: kids[0], Pos: 1, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Set) != 1 || v.Set[0] != kids[0] {
		t.Errorf("ancestor-or-self::*[1] = %v, want self", v.Set)
	}
}
