package main

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/semantics"
	"repro/internal/xpath"
)

// TestExperimentTable: experiment names are unique; every engine a
// line or grid names is in bench.Engines and evaluates the smallest
// point of that line or grid without error; -exp accepts each
// experiment's name and prints its title, and an unknown name exits 2
// listing them all.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, x := range bench.Experiments {
		if seen[x.Name] {
			t.Errorf("experiment name %q is taken", x.Name)
		}
		seen[x.Name] = true
		type point struct {
			engine   string
			docs, ks []int
		}
		var points []point
		for _, l := range x.Lines {
			points = append(points, point{l.Engine, l.Docs, l.Ks})
		}
		for _, g := range x.Bench {
			for _, e := range g.Engines {
				points = append(points, point{e, g.Docs, g.Ks})
			}
		}
		for _, p := range points {
			mk, ok := bench.Engines[p.engine]
			if !ok {
				t.Errorf("%s: no engine %q", x.Name, p.engine)
				continue
			}
			d, q := x.Doc(slices.Min(p.docs)), x.Query(slices.Min(p.ks))
			e, err := xpath.Parse(q)
			if err != nil {
				t.Fatalf("%s: %v", x.Name, err)
			}
			if _, err := mk(d).Evaluate(e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}); err != nil {
				t.Errorf("%s/%s on %s: %v", x.Name, p.engine, q, err)
			}
		}

		// A 1ns cap ends every series after its first point.
		var out, errs bytes.Buffer
		if code := run([]string{"-exp", x.Name, "-cap", "1ns", "-scale", "0.01"}, &out, &errs); code != 0 {
			t.Errorf("-exp %s exits %d: %s", x.Name, code, errs.String())
		}
		if !strings.Contains(out.String(), "== "+x.Title) {
			t.Errorf("-exp %s does not print %q:\n%s", x.Name, x.Title, out.String())
		}
	}

	var errs bytes.Buffer
	if code := run([]string{"-exp", "nope"}, io.Discard, &errs); code != 2 {
		t.Errorf("-exp nope exits %d, want 2", code)
	}
	for _, x := range bench.Experiments {
		if !strings.Contains(errs.String(), x.Name) {
			t.Errorf("-exp nope does not list %s: %s", x.Name, errs.String())
		}
	}
}
