package naive

import (
	"testing"

	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func TestPoolStoresAndRetrieves(t *testing.T) {
	d := xmltree.MustParseString(`<a><b/></a>`)
	p := &DataPool{}
	e := xpath.MustParse("count(//b)")
	c := ctxAt(d.RootID())
	if _, ok := p.lookup(e, c); ok {
		t.Fatal("empty pool must miss")
	}
	p.store(e, c, semantics.Number(1))
	v, ok := p.lookup(e, c)
	if !ok || v.Num != 1 {
		t.Fatalf("lookup = %+v, %v", v, ok)
	}
	if p.Hits != 1 || p.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", p.Hits, p.Misses)
	}
	if p.Size() != 1 {
		t.Errorf("size = %d", p.Size())
	}
}

// TestRelevProjectionSharing: a context-free expression stored under one
// context must be found under any other context.
func TestRelevProjectionSharing(t *testing.T) {
	p := &DataPool{}
	e := xpath.MustParse("1 + 1") // Relev = ∅
	p.store(e, ctxAt(1), semantics.Number(2))
	if _, ok := p.lookup(e, ctxAt(2)); !ok {
		t.Error("context-free value not shared across contexts")
	}
	// Node-dependent: shared across positions but not nodes.
	e2 := xpath.MustParse("count(child::*)")
	p.store(e2, semantics.Context{Node: 1, Pos: 3, Size: 9}, semantics.Number(2))
	if _, ok := p.lookup(e2, semantics.Context{Node: 1, Pos: 5, Size: 7}); !ok {
		t.Error("position change must not invalidate node-keyed entry")
	}
	if _, ok := p.lookup(e2, semantics.Context{Node: 2, Pos: 3, Size: 9}); ok {
		t.Error("different node must miss")
	}
}

// TestPolynomialEvaluation: the pooled evaluator answers the paper's
// Table V query family at sizes where the classic evaluator would need
// billions of steps.
func TestPolynomialEvaluation(t *testing.T) {
	// DOC(10).
	src := "<a>"
	for i := 0; i < 10; i++ {
		src += "<b/>"
	}
	src += "</a>"
	d := xmltree.MustParseString(src)
	// |Q| = 8 nesting of Experiment 3: P(1) = count(parent::a/b) > 1,
	// P(k) = count(parent::a/b[P(k-1)]) > 1, Q = //a/b[P(8)].
	pred := "count(parent::a/b) > 1"
	for i := 1; i < 8; i++ {
		pred = "count(parent::a/b[" + pred + "]) > 1"
	}
	q := "//a/b[" + pred + "]"
	ev, pool := NewPooled(d)
	v, err := ev.Evaluate(xpath.MustParse(q), ctxAt(d.RootID()))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Set) != 10 {
		t.Errorf("result = %d nodes, want 10", len(v.Set))
	}
	if ev.Steps() > 100000 {
		t.Errorf("pooled evaluation took %d steps; pool is not sharing", ev.Steps())
	}
	if pool.Hits == 0 {
		t.Error("no pool hits")
	}
}
