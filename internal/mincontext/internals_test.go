package mincontext

import (
	"math/bits"
	"strings"
	"testing"

	"repro/internal/naive"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestInnerLocpathRelation checks eval_inner_locpath's relation against
// brute-force per-node evaluation.
func TestInnerLocpathRelation(t *testing.T) {
	d := xmltree.MustParseString(
		`<a><b><c/><c/></b><b><c/></b><d><c/></d></a>`)
	nv := naive.New(d)
	ev := New(d)
	paths := []string{
		"child::c",
		"child::b/child::c",
		"descendant::c",
		"child::c[position() = 2]",
		"following-sibling::*/child::c",
	}
	var all xmltree.NodeSet
	for i := 0; i < d.Len(); i++ {
		all = append(all, xmltree.NodeID(i))
	}
	for _, q := range paths {
		p := xpath.MustParse(q).(*xpath.Path)
		st, err := ev.Begin(nil, nil, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := st.evalInnerLocpath(p, all)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, x := range all {
			want, err := nv.Evaluate(p, semantics.Context{Node: x, Pos: 1, Size: 1})
			if err != nil {
				t.Fatal(err)
			}
			if row := rel.row(rel.index(x)); !row.Equal(want.Set) {
				t.Errorf("%s from %d: relation %v, naive %v", q, x, row, want.Set)
			}
		}
	}
}

// TestTablesShareAcrossPredicates: evaluating a query whose predicate
// repeats a subexpression must reuse the covered rows (the whole point
// of the context-value tables). We verify observable behaviour: the
// repeated-subexpression query evaluates correctly and the state covers
// each node once.
func TestCoverageBookkeeping(t *testing.T) {
	d := xmltree.MustParseString(`<a><b/><b/><b/></a>`)
	ev := New(d)
	e := xpath.MustParse("count(child::b)")
	st, err := ev.Begin(nil, nil, e, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := xmltree.NodeSet{0, 1, 2}
	if err := st.evalByCnodeOnly(e, all); err != nil {
		t.Fatal(err)
	}
	// A second call with an overlapping set must be a no-op (uncovered
	// returns empty) and not error.
	if err := st.evalByCnodeOnly(e, xmltree.NodeSet{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Values are correct per node.
	for n := xmltree.NodeID(0); n < 4; n++ {
		v, err := st.evalSingleContext(e, semantics.Context{Node: n, Pos: -1, Size: -1})
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		if d.Type(n) == xmltree.Root || d.Name(n) == "a" {
			if d.Name(n) == "a" {
				want = 3
			}
		}
		if v.Num != want {
			t.Errorf("count(child::b) at %d = %v, want %v", n, v.Num, want)
		}
	}
}

// TestOnDemandSingleContext: evalSingleContext must fill tables lazily
// for nodes never passed to evalByCnodeOnly.
func TestOnDemandSingleContext(t *testing.T) {
	d := xmltree.MustParseString(`<a><b><c/></b></a>`)
	ev := New(d)
	e := xpath.MustParse("count(child::*)")
	st, err := ev.Begin(nil, nil, e, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No prior evalByCnodeOnly for node b.
	b := d.Children(d.DocumentElement())[0]
	v, err := st.evalSingleContext(e, semantics.Context{Node: b, Pos: -1, Size: -1})
	if err != nil {
		t.Fatal(err)
	}
	if v.Num != 1 {
		t.Errorf("on-demand count = %v, want 1", v.Num)
	}
}

// TestErrorPaths covers the error return of a tree put together by
// hand: it has no slots, and is refused instead of being evaluated on
// slot 0.
func TestErrorPaths(t *testing.T) {
	d := xmltree.MustParseString(`<a/>`)
	ev := New(d)
	root := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
	byHand := &xpath.Call{Name: "count", Args: []xpath.Expr{xpath.MustParse("//a")}}
	if _, err := ev.Evaluate(byHand, root); err == nil || !strings.Contains(err.Error(), "not numbered") {
		t.Errorf("hand-built tree: %v", err)
	}
}

// TestTableColumns: context nodes asked for behind the ones a table has
// extend its column, nodes in front of them start a second one, and
// every row is found again whatever the order of the lookups.
func TestTableColumns(t *testing.T) {
	d := xmltree.MustParseString(`<r><a><b/></a><a><b/><b/></a><a/><a><b/><b/><b/></a></r>`)
	as := d.Index().Named("a")
	for _, src := range []string{"count(child::b)", "child::b", "count(child::b) > 1", "string(count(child::b))"} {
		e := xpath.MustParse(src)
		st, err := New(d).Begin(nil, nil, e, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []xmltree.NodeSet{as[1:2], as[1:3], as[3:], as[:2]} {
			if err := st.evalByCnodeOnly(e, x); err != nil {
				t.Fatal(err)
			}
		}
		if cols := st.tabs[xpath.Slot(e)].cols; len(cols) != 2 || len(cols[0].nodes) != 3 || len(cols[1].nodes) != 1 {
			t.Errorf("%s: columns %+v, want one of three rows and one of one", src, cols)
		}
		nv := naive.New(d)
		for _, k := range []int{3, 0, 2, 1, 0, 3} {
			c := semantics.Context{Node: as[k], Pos: 1, Size: 1}
			want, err := nv.Evaluate(e, c)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := st.evalSingleContext(e, c); err != nil || !got.Equal(want) {
				t.Errorf("%s at a[%d]: %+v, %v; naive %+v", src, k+1, got, err, want)
			}
		}
	}
}

// TestTableColumnsStayFew: rows asked for on demand against document
// order — one context node at a time from the back, then the odd ones
// from the front — are merged as they arrive, so the table of n rows
// has at most log₂ n + 1 columns and every row is still found.
func TestTableColumnsStayFew(t *testing.T) {
	const n = 300
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		sb.WriteString("<a>" + strings.Repeat("<b/>", i%7) + "</a>")
	}
	sb.WriteString("</r>")
	d := xmltree.MustParseString(sb.String())
	as := d.Index().Named("a")
	for _, src := range []string{"count(child::b)", "child::b", "count(child::b) > 3", "string(count(child::b))"} {
		e := xpath.MustParse(src)
		st, err := New(d).Begin(nil, nil, e, nil)
		if err != nil {
			t.Fatal(err)
		}
		var order []int
		for k := n - 2; k >= 0; k -= 2 {
			order = append(order, k)
		}
		for k := 1; k < n; k += 2 {
			order = append(order, k)
		}
		for _, k := range order {
			if err := st.evalByCnodeOnly(e, as[k:k+1]); err != nil {
				t.Fatal(err)
			}
			if cols := len(st.tabs[xpath.Slot(e)].cols); cols > bits.Len(uint(n)) {
				t.Fatalf("%s: %d columns after a[%d]", src, cols, k+1)
			}
		}
		rows := 0
		for _, c := range st.tabs[xpath.Slot(e)].cols {
			rows += len(c.nodes)
		}
		if rows != n {
			t.Errorf("%s: %d rows, want %d", src, rows, n)
		}
		nv := naive.New(d)
		for k := range as {
			c := semantics.Context{Node: as[k], Pos: 1, Size: 1}
			want, err := nv.Evaluate(e, c)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := st.evalSingleContext(e, c); err != nil || !got.Equal(want) {
				t.Fatalf("%s at a[%d]: %+v, %v; naive %+v", src, k+1, got, err, want)
			}
		}
	}
}
