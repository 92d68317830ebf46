// Package bench is the harness that regenerates every table and figure
// of the paper's evaluation (Experiments 1–5, Table V / Figure 12, and
// Table VII), plus an ablation across all engines in this repository:
// one row of Experiments each, which Run sweeps (cmd/xpathbench) and
// the root package's BenchmarkPaper times at fixed points. Absolute
// times differ from the 2002 hardware, so the harness reports raw
// measurements, and its tests the *shape* checks (exponential versus
// polynomial growth, quadratic data complexity) that the reproduction
// is judged on.
//
// The naive engine is exponential by design; per-point wall-clock caps
// are enforced through its step budget, calibrated from the points
// already measured in the same series. A capped point is reported like
// the '-' entries of Table V and terminates its series.
package bench

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/bottomup"
	"repro/internal/mincontext"
	"repro/internal/naive"
	"repro/internal/semantics"
	"repro/internal/topdown"
	"repro/internal/wadler"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xpatterns"
)

// Point is one measurement.
type Point struct {
	QuerySize int
	DocSize   int
	Millis    float64
	Steps     int64  // naive-engine step count, 0 for other engines
	Words     int64  // node-id words the evaluation kept in its arena, 0 for engines without one
	Bytes     uint64 // heap bytes the evaluation allocated
	TimedOut  bool
}

// Series is a labeled curve (one line of a figure, one column of a
// table).
type Series struct {
	Label  string
	Points []Point
}

// Config controls a harness run.
type Config struct {
	// Cap is the wall-clock budget per measurement; a point expected
	// to exceed it is reported as timed out ('-' in the paper's
	// tables) and ends its series. Default 2s.
	Cap time.Duration
	// Scale shrinks the sweep ranges for quick runs (1 = paper-sized
	// ranges where feasible; 0 defaults to 1).
	Scale float64
	// Out receives the printed tables; nil discards them.
	Out io.Writer
}

// FprintConfig prints the run configuration header. Measurements are
// meaningless without the machine context, so the header always
// includes GOMAXPROCS alongside the knobs of this run.
func (c Config) FprintConfig(w io.Writer) {
	fmt.Fprintf(w, "== config ==\n")
	fmt.Fprintf(w, "gomaxprocs: %d\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "cap:        %s\n", c.cap())
	fmt.Fprintf(w, "scale:      %g\n", c.scale())
	fmt.Fprintln(w)
}

func (c Config) cap() time.Duration {
	if c.Cap <= 0 {
		return 2 * time.Second
	}
	return c.Cap
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// Evaluator is what every engine of Engines builds for a document.
type Evaluator interface {
	Evaluate(e xpath.Expr, c semantics.Context) (semantics.Value, error)
}

// Engines maps each engine name an experiment compares to its
// constructor. One evaluation runs on a fresh evaluator: the data
// pool's memo must not carry over from one measurement to the next.
var Engines = map[string]func(*xmltree.Document) Evaluator{
	"naive":         func(d *xmltree.Document) Evaluator { return naive.New(d) },
	"datapool":      func(d *xmltree.Document) Evaluator { ev, _ := naive.NewPooled(d); return ev },
	"topdown":       func(d *xmltree.Document) Evaluator { return topdown.New(d) },
	"mincontext":    func(d *xmltree.Document) Evaluator { return mincontext.New(d) },
	"optmincontext": func(d *xmltree.Document) Evaluator { return wadler.New(d) },
	"corexpath":     func(d *xmltree.Document) Evaluator { return xpatterns.New(d) },
	"bottomup":      func(d *xmltree.Document) Evaluator { return bottomup.New(d) },
}

// measure evaluates e once on d with a fresh engine under budget (the
// naive engines' step cap; hitting it is TimedOut). Besides the time it
// reports what the run materialized — the words kept in d's arena and
// the heap bytes allocated: costs that neither the clock nor a busy
// neighbour moves, so the shape tests compare them.
func measure(engine string, d *xmltree.Document, e xpath.Expr, budget int64) (Point, time.Duration, error) {
	ev := Engines[engine](d)
	nv, _ := ev.(*naive.Evaluator)
	if nv != nil {
		nv.Budget = budget
	}
	var before, after runtime.MemStats
	words := d.Index().Materialized()
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := ev.Evaluate(e, semantics.Context{Node: d.RootID(), Pos: 1, Size: 1})
	dur := time.Since(start)
	runtime.ReadMemStats(&after)
	p := Point{DocSize: d.Len(), Millis: float64(dur.Microseconds()) / 1000,
		Words: d.Index().Materialized() - words, Bytes: after.TotalAlloc - before.TotalAlloc}
	if nv != nil {
		p.Steps = nv.Steps()
	}
	if errors.Is(err, naive.ErrBudget) {
		p.TimedOut, err = true, nil
	}
	return p, dur, err
}

// Fprint renders series as an aligned text table: one row per value of
// the swept axis — the document size when byDoc, else the query size —
// and one column per series.
func Fprint(w io.Writer, title string, byDoc bool, series []Series) {
	head, width, key := "|Q|", 8, func(p Point) int { return p.QuerySize }
	if byDoc {
		head, width, key = "|D|", 10, func(p Point) int { return p.DocSize }
	}
	var rows []int
	cells := map[int][]string{} // row → one cell per series
	for i, s := range series {
		for _, p := range s.Points {
			k := key(p)
			if cells[k] == nil {
				cells[k], rows = make([]string, len(series)), append(rows, k)
			}
			cells[k][i] = fmt.Sprintf("%.2fms", p.Millis)
			if p.TimedOut {
				cells[k][i] = "-"
			}
		}
	}
	sort.Ints(rows)
	fmt.Fprintf(w, "== %s ==\n%*s", title, width, head)
	for _, s := range series {
		fmt.Fprintf(w, " %22s", s.Label)
	}
	fmt.Fprintln(w)
	for _, k := range rows {
		fmt.Fprintf(w, "%*d", width, k)
		for _, c := range cells[k] {
			fmt.Fprintf(w, " %22s", c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
