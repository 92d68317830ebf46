package core

import (
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestConcurrentEvaluation verifies that one Engine may serve many
// goroutines: Evaluate constructs per-call evaluator state, the
// Document is immutable after parsing, and its lazily filled strval
// memo is a slice of atomic pointers. The goroutines start against a
// cold cache so -race exercises the concurrent first fill.
func TestConcurrentEvaluation(t *testing.T) {
	d := workload.Catalog(60)
	en := NewEngine(d, Auto)
	queries := []*Query{
		MustCompile("//product[discontinued]/name"),
		MustCompile("count(//product)"),
		MustCompile("//product[@category = 'audio'][position() < 4]"),
		MustCompile("sum(//price)"),
		MustCompile("id(//accessory)/name"),
		// One cached, numbered tree under the engines that keep their
		// tables by slot: a positional step //… cannot fuse, and a
		// count() per context node.
		MustCompile("//product[position() mod 2 = 0]/name"),
		MustCompile("count(//product[count(accessory) > 0])"),
	}
	// Compute expectations on a second, structurally identical document
	// (the generator is deterministic, so NodeIDs coincide) to keep
	// d's strval cache cold for the concurrent phase.
	warm := workload.Catalog(60)
	warmEn := NewEngine(warm, Auto)
	want := make([]Value, len(queries))
	for i, q := range queries {
		v, err := warmEn.Evaluate(q, Context{Node: warm.RootID(), Pos: 1, Size: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				for i, q := range queries {
					v, err := en.Evaluate(q, Context{Node: d.RootID(), Pos: 1, Size: 1})
					if err != nil {
						errs <- err
						return
					}
					if !v.Equal(want[i]) {
						errs <- errMismatch{}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errMismatch struct{}

func (errMismatch) Error() string { return "concurrent evaluation returned a different value" }
