// Package bench is the harness that regenerates every table and figure
// of the paper's evaluation (Experiments 1–5, Table V / Figure 12, and
// Table VII), plus ablation comparisons across all engines in this
// repository. Absolute times differ from the 2002 hardware, so the
// harness reports raw measurements and the *shape* checks (exponential
// versus polynomial growth, quadratic data complexity) that the
// reproduction is judged on.
//
// The naive engine is exponential by design; per-point wall-clock caps
// are enforced through its step budget, calibrated from the points
// already measured in the same series. A capped point is reported like
// the '-' entries of Table V and terminates its series.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/datapool"
	"repro/internal/naive"
	"repro/internal/semantics"
	"repro/internal/topdown"
	"repro/internal/wadler"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Point is one measurement.
type Point struct {
	QuerySize int
	DocSize   int
	Millis    float64
	Steps     int64  // naive-engine step count, 0 for other engines
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
	scale := c.Scale
	if scale <= 0 {
		scale = 1
	}
	fmt.Fprintf(w, "scale:      %g\n", scale)
	fmt.Fprintln(w)
}

func (c Config) cap() time.Duration {
	if c.Cap <= 0 {
		return 2 * time.Second
	}
	return c.Cap
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

// rootCtx builds the initial context for a document.
func rootCtx(d *xmltree.Document) semantics.Context {
	return semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
}

// engineRunner abstracts "evaluate this query once, report cost".
type engineRunner interface {
	// run evaluates the expression; it reports duration, optional step
	// count, and whether the step budget was exhausted.
	run(e xpath.Expr, budget int64) (time.Duration, int64, bool, error)
}

type naiveRunner struct{ d *xmltree.Document }

func (r naiveRunner) run(e xpath.Expr, budget int64) (time.Duration, int64, bool, error) {
	ev := naive.New(r.d)
	ev.Budget = budget
	start := time.Now()
	_, err := ev.Evaluate(e, rootCtx(r.d))
	dur := time.Since(start)
	if err == naive.ErrBudget {
		return dur, ev.Steps(), true, nil
	}
	return dur, ev.Steps(), false, err
}

type datapoolRunner struct{ d *xmltree.Document }

func (r datapoolRunner) run(e xpath.Expr, budget int64) (time.Duration, int64, bool, error) {
	ev, _ := datapool.NewEvaluator(r.d)
	ev.Budget = budget
	start := time.Now()
	_, err := ev.Evaluate(e, rootCtx(r.d))
	dur := time.Since(start)
	if err == naive.ErrBudget {
		return dur, ev.Steps(), true, nil
	}
	return dur, ev.Steps(), false, err
}

type topdownRunner struct{ d *xmltree.Document }

func (r topdownRunner) run(e xpath.Expr, _ int64) (time.Duration, int64, bool, error) {
	ev := topdown.New(r.d)
	start := time.Now()
	_, err := ev.Evaluate(e, rootCtx(r.d))
	return time.Since(start), 0, false, err
}

type optmincontextRunner struct{ d *xmltree.Document }

func (r optmincontextRunner) run(e xpath.Expr, _ int64) (time.Duration, int64, bool, error) {
	ev := wadler.New(r.d)
	start := time.Now()
	_, err := ev.Evaluate(e, rootCtx(r.d))
	return time.Since(start), 0, false, err
}

// allocating runs r once and also reports the heap bytes the run
// allocated: a cost that grows with the work done and that neither the
// clock nor a busy neighbour moves, so the shape tests compare it where
// the printed curves show milliseconds.
func allocating(r engineRunner, e xpath.Expr, budget int64) (dur time.Duration, steps int64, capped bool, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dur, steps, capped, err = r.run(e, budget)
	runtime.ReadMemStats(&after)
	return dur, steps, capped, after.TotalAlloc - before.TotalAlloc, err
}

// sweep measures one engine over a query-size sweep on one document.
// For step-budgeted engines the budget for point k is extrapolated from
// the measured step rate so that no point exceeds ~1.5× the cap.
func sweep(r engineRunner, d *xmltree.Document, queryGen func(k int) string, ks []int, cap time.Duration, label string) Series {
	s := Series{Label: label}
	var rate float64 = 5e6 // steps/sec initial guess; recalibrated per point
	for _, k := range ks {
		e, err := xpath.Parse(queryGen(k))
		if err != nil {
			panic(fmt.Sprintf("bench: bad generated query: %v", err))
		}
		budget := int64(rate * cap.Seconds() * 1.5)
		dur, steps, capped, bytes, err := allocating(r, e, budget)
		if err != nil {
			panic(fmt.Sprintf("bench: %s k=%d: %v", label, k, err))
		}
		p := Point{QuerySize: k, DocSize: d.Len(), Millis: float64(dur.Microseconds()) / 1000, Steps: steps, Bytes: bytes, TimedOut: capped}
		s.Points = append(s.Points, p)
		if capped || dur > cap {
			// The next point would be strictly worse; stop the series
			// like the paper's '-' entries.
			break
		}
		if steps > 0 && dur > time.Millisecond {
			rate = float64(steps) / dur.Seconds()
		}
	}
	return s
}

// docSweep measures one engine over a document-size sweep with a fixed
// query. mk builds the engine runner for each document.
func docSweep(mk func(*xmltree.Document) engineRunner, docs []*xmltree.Document, query string, cap time.Duration, label string) Series {
	s := Series{Label: label}
	e, err := xpath.Parse(query)
	if err != nil {
		panic(fmt.Sprintf("bench: bad query: %v", err))
	}
	for _, d := range docs {
		dur, _, capped, bytes, err := allocating(mk(d), e, 0)
		if err != nil {
			panic(fmt.Sprintf("bench: %s |D|=%d: %v", label, d.Len(), err))
		}
		s.Points = append(s.Points, Point{DocSize: d.Len(), Millis: float64(dur.Microseconds()) / 1000, Bytes: bytes, TimedOut: capped})
		if capped || dur > cap {
			break
		}
	}
	return s
}

// FprintSeries renders series as an aligned text table: rows = query
// size, one column per series.
func FprintSeries(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "== %s ==\n", title)
	// Collect row keys.
	keys := map[int]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			keys[p.QuerySize] = true
		}
	}
	var rows []int
	for k := range keys {
		rows = append(rows, k)
	}
	sortInts(rows)
	fmt.Fprintf(w, "%8s", "|Q|")
	for _, s := range series {
		fmt.Fprintf(w, " %22s", s.Label)
	}
	fmt.Fprintln(w)
	for _, k := range rows {
		fmt.Fprintf(w, "%8d", k)
		for _, s := range series {
			cell := ""
			for _, p := range s.Points {
				if p.QuerySize == k {
					if p.TimedOut {
						cell = "-"
					} else {
						cell = fmt.Sprintf("%.2fms", p.Millis)
					}
				}
			}
			fmt.Fprintf(w, " %22s", cell)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// FprintDocSeries renders document-size sweeps: rows = doc size.
func FprintDocSeries(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "== %s ==\n", title)
	keys := map[int]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			keys[p.DocSize] = true
		}
	}
	var rows []int
	for k := range keys {
		rows = append(rows, k)
	}
	sortInts(rows)
	fmt.Fprintf(w, "%10s", "|D|")
	for _, s := range series {
		fmt.Fprintf(w, " %22s", s.Label)
	}
	fmt.Fprintln(w)
	for _, k := range rows {
		fmt.Fprintf(w, "%10d", k)
		for _, s := range series {
			cell := ""
			for _, p := range s.Points {
				if p.DocSize == k {
					if p.TimedOut {
						cell = "-"
					} else {
						cell = fmt.Sprintf("%.2fms", p.Millis)
					}
				}
			}
			fmt.Fprintf(w, " %22s", cell)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// GrowthRatio summarizes a series' tail growth: the mean ratio of
// consecutive point costs (steps where the engine counts them, bytes
// allocated otherwise — never the clock). Exponential query complexity
// shows as a ratio near the document's branching factor; polynomial
// behaviour shows as a ratio near 1.
func GrowthRatio(s Series) float64 {
	var ratios []float64
	for i := 1; i < len(s.Points); i++ {
		a, b := s.Points[i-1], s.Points[i]
		if a.TimedOut || b.TimedOut {
			break
		}
		ca, cb := cost(a), cost(b)
		if ca > 0 {
			ratios = append(ratios, cb/ca)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	// Use the latter half: early points are dominated by fixed overhead
	// (the paper's "sharp bend" from JVM startup has the same effect).
	tail := ratios[len(ratios)/2:]
	sum := 0.0
	for _, r := range tail {
		sum += r
	}
	return sum / float64(len(tail))
}

func cost(p Point) float64 {
	if p.Steps > 0 {
		return float64(p.Steps)
	}
	return float64(p.Bytes)
}

func intsUpTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}
