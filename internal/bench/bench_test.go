package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// quick returns a configuration that keeps test runs fast.
func quick() Config {
	return Config{Cap: 150 * time.Millisecond, Scale: 0.05}
}

// run runs the experiment named name.
func run(t *testing.T, name string, cfg Config) []Series {
	t.Helper()
	for _, x := range Experiments {
		if x.Name == name {
			return Run(x, cfg)
		}
	}
	t.Fatalf("no experiment %q", name)
	return nil
}

// byLabel returns the series labelled label.
func byLabel(t *testing.T, series []Series, label string) Series {
	t.Helper()
	for _, s := range series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("no series %q", label)
	return Series{}
}

// growthRatio summarizes a series' tail growth: the mean ratio of
// consecutive point costs (steps where the engine counts them, else the
// words its arena kept, else bytes allocated — never the clock).
// Exponential query complexity shows as a ratio near the document's
// branching factor; polynomial behaviour shows as a ratio near 1.
func growthRatio(s Series) float64 {
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
	switch {
	case p.Steps > 0:
		return float64(p.Steps)
	case p.Words > 0:
		return float64(p.Words)
	}
	return float64(p.Bytes)
}

func TestExp1Shape(t *testing.T) {
	series := run(t, "exp1", quick())
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	nv, td := byLabel(t, series, "naive (models XALAN/XT)"), byLabel(t, series, "topdown (ours)")
	// The naive curve must grow roughly exponentially (each
	// parent::a/b doubles the work on DOC(2)).
	if r := growthRatio(nv); r < 1.5 {
		t.Errorf("naive growth ratio = %.2f, want ≥ 1.5 (exponential)", r)
	}
	// The top-down curve must stay flat-ish: bounded growth per step.
	if r := growthRatio(td); r > 1.4 {
		t.Errorf("topdown growth ratio = %.2f, want ≈1 (polynomial)", r)
	}
	// The naive series must have been truncated by the cap well before
	// k=25; the top-down series must have completed.
	if len(nv.Points) >= 25 {
		t.Errorf("naive series ran to k=%d without hitting the cap", len(nv.Points))
	}
	if len(td.Points) != 25 {
		t.Errorf("topdown series stopped early at %d points", len(td.Points))
	}
}

// TestTinyCapCapsNaive: a cap too small for one step at the assumed
// step rate still caps the naive engine. exp1 at k=20 on DOC(2) takes
// over 100 ms uncapped; at a 100 ns cap its point times out after a
// handful of steps.
func TestTinyCapCapsNaive(t *testing.T) {
	x := Experiment{Name: "exp1", Doc: workload.Doc, Query: workload.Exp1Query}
	s := x.sweep(Line{Engine: "naive", Docs: []int{2}, Ks: []int{20}}, "naive", []int{2}, Config{Cap: 100 * time.Nanosecond})
	if len(s.Points) != 1 || !s.Points[0].TimedOut || s.Points[0].Steps > 8 {
		t.Fatalf("points = %+v, want one TimedOut point after at most 8 steps", s.Points)
	}
}

func TestExp5Shapes(t *testing.T) {
	following := run(t, "exp5a", quick())
	// Every naive series on the larger documents should be truncated.
	if last := byLabel(t, following, "naive doc 50 (following)"); len(last.Points) >= 20 {
		t.Errorf("naive doc-50 series ran to completion; expected cap")
	}
	if ours := byLabel(t, following, "topdown doc 50 (ours)"); len(ours.Points) != 20 {
		t.Errorf("topdown series truncated at %d", len(ours.Points))
	}

	descendant := run(t, "exp5b", quick())
	if lastD := byLabel(t, descendant, "naive doc 50 (descendant)"); len(lastD.Points) >= 20 {
		t.Errorf("naive descendant series ran to completion; expected cap")
	}
}

func TestTable5Shape(t *testing.T) {
	series := run(t, "table5", quick())
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	pool10, pool200 := byLabel(t, series, "data pool doc 10"), byLabel(t, series, "data pool doc 200")
	// Data pool must reach |Q|=8 on both documents.
	if len(pool10.Points) != 8 || len(pool200.Points) != 8 {
		t.Errorf("data pool truncated: %d / %d points", len(pool10.Points), len(pool200.Points))
	}
	for _, p := range append(pool10.Points, pool200.Points...) {
		if p.TimedOut {
			t.Error("data pool point timed out")
		}
	}
	// Classic on doc 200 must be truncated very early (the paper shows
	// 1343s at |Q|=3).
	if classic200 := byLabel(t, series, "classic doc 200"); len(classic200.Points) > 5 {
		t.Errorf("classic doc 200 reached |Q|=%d; expected early truncation", len(classic200.Points))
	}
}

func TestExp4Shape(t *testing.T) {
	cfg := quick()
	cfg.Scale = 0.2 // docs 1000..10000 for the linear engine
	series := run(t, "exp4", cfg)
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	lin := byLabel(t, series, "corexpath (linear, ours)").Points
	if len(lin) < 6 {
		t.Fatalf("linear engine truncated at %d points", len(lin))
	}
	// Linear data complexity: doubling the document should roughly
	// double the words one evaluation materializes (stay well under
	// quadratic's 4×).
	last := lin[len(lin)-1]
	var half *Point
	for i := range lin {
		if 2*lin[i].DocSize >= last.DocSize-2 && 2*lin[i].DocSize <= last.DocSize+2 {
			half = &lin[i]
		}
	}
	if half == nil {
		t.Fatal("no half-size point")
	}
	ratio := float64(last.Words) / float64(half.Words)
	if half.Words == 0 || ratio > 3 {
		t.Errorf("corexpath doubling ratio = %.2f (%d → %d words); expected near-linear (<3)", ratio, half.Words, last.Words)
	}
}

// TestPrinters: the one printer renders a query-size and a
// document-size table byte for byte as the two printers it replaced
// did.
func TestPrinters(t *testing.T) {
	s := []Series{{Label: "x", Points: []Point{
		{QuerySize: 1, DocSize: 3, Millis: 1.5},
		{QuerySize: 2, DocSize: 3, TimedOut: true},
	}}}
	for _, tc := range []struct {
		byDoc bool
		want  string
	}{
		{false, "== t ==\n     |Q|                      x\n       1                 1.50ms\n       2                      -\n\n"},
		{true, "== t ==\n       |D|                      x\n         3                      -\n\n"},
	} {
		var buf bytes.Buffer
		Fprint(&buf, "t", tc.byDoc, s)
		if buf.String() != tc.want {
			t.Errorf("Fprint(byDoc=%v) =\n%q\nwant\n%q", tc.byDoc, buf.String(), tc.want)
		}
	}
}

func TestAblationRuns(t *testing.T) {
	var buf bytes.Buffer
	cfg := quick()
	cfg.Out = &buf
	series := run(t, "ablate", cfg)
	for _, q := range ablationQueries {
		if !strings.Contains(buf.String(), "\n"+q.name+" ") {
			t.Errorf("ablation output has no %s row:\n%s", q.name, buf.String())
		}
	}
	// The Core XPath gate admits the first query only.
	if cx := byLabel(t, series, "corexpath"); len(cx.Points) != 1 || !strings.Contains(buf.String(), "corexpath") {
		t.Errorf("corexpath series %+v, output:\n%s", cx, buf.String())
	}
}
