package wadler

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/evalutil"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// cancelAt is a context that is cancelled, from another goroutine, while
// the evaluation is inside its at-th consultation of Err: cancellation
// lands mid-evaluation at a point the test picks, with no clock. One
// evaluation consults it from one goroutine, so the countdown needs no
// lock; the cancel itself is a real cross-goroutine one for -race.
type cancelAt struct {
	context.Context
	cancel context.CancelFunc
	at     int
}

func (c *cancelAt) Err() error {
	c.at--
	if c.at == 0 {
		done := make(chan struct{})
		go func() { c.cancel(); close(done) }()
		<-done
	}
	return c.Context.Err()
}

// cancelDoc is 3 000 <a><b>i</b><b>i+1</b><c/></a> under one root: every
// whole-set operation of a backward pass over it crosses the checkpoint
// throttle (1 024 units).
func cancelDoc() *xmltree.Document {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&b, "<a><b>%d</b><b>%d</b><c/></a>", i, i+1)
	}
	b.WriteString("</r>")
	return xmltree.MustParseString(b.String())
}

// TestEvaluateContextCancelsMidEvaluation cancels a bottom-up
// comparison and a positional backward step at every consultation one
// evaluation makes on cancelDoc: wherever the cancellation lands — the seeding of Y, a node-test filter, an inverse
// axis image, the per-pair position loop, the MinContext phase after
// them — the evaluation stops with context.Canceled. Run under -race in
// CI.
func TestEvaluateContextCancelsMidEvaluation(t *testing.T) {
	d := cancelDoc()
	root := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"//a[b > 1500]", 1500},                 // Y from the posting list
		{"//a[* > 1500]", 1500},                 // Y from a scan of dom
		{"//a[b[position() = 2] > 1500]", 1500}, // position loop over χ⁻¹(Y)
		{"//a[boolean(b[position() = last()])]", 3000},
	} {
		e := xpath.MustParse(tc.query)
		if !InFragment(e) {
			t.Fatalf("%s left the fragment", tc.query)
		}
		for at := 1; ; at++ {
			ctx, cancel := context.WithCancel(context.Background())
			v, err := New(d).EvaluateContext(&cancelAt{Context: ctx, cancel: cancel, at: at}, e, root)
			cancel()
			if err == nil {
				// Fewer than at consultations: this one ran to its end.
				if len(v.Set) != tc.want {
					t.Errorf("%s: %d nodes, want %d", tc.query, len(v.Set), tc.want)
				}
				if at == 1 {
					t.Errorf("%s: the evaluation never consulted its context", tc.query)
				}
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s cancelled at consultation %d: err = %v, want context.Canceled", tc.query, at, err)
			}
		}
	}
}

// TestBackwardPassBillsTheEvaluation pins where the backward pass bills
// the evaluation's own checkpoint: with the context already cancelled, a
// scan of dom for T(t) and one inverted step — plain or positional —
// over more candidates than the throttle lets through unconsulted each
// return the context's error instead of their set.
func TestBackwardPassBillsTheEvaluation(t *testing.T) {
	d := cancelDoc()
	e := xpath.MustParse("//a[* > 1500][b[position() = 2] > 1500]")
	ctx, cancel := context.WithCancel(context.Background())
	st, err := newState(ctx, d, e)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	steps := e.(*xpath.Path).Steps
	preds := steps[len(steps)-1].Preds
	scan := preds[0].(*xpath.Binary).Left.(*xpath.Path)       // child::*
	positional := preds[1].(*xpath.Binary).Left.(*xpath.Path) // child::b[position() = 2]
	bs := d.Index().Named("b")
	if _, err := st.back().Targets(scan); !errors.Is(err, context.Canceled) {
		t.Errorf("Targets(%s): err = %v, want context.Canceled", scan, err)
	}
	for _, p := range []*xpath.Path{scan, positional} {
		st.cancel = evalutil.NewCanceller(ctx) // each operation on its own: nothing billed before it
		if _, _, err := st.back().Reach(p, bs); !errors.Is(err, context.Canceled) {
			t.Errorf("Reach(%s): err = %v, want context.Canceled", p, err)
		}
	}
}
