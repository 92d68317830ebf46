package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/workload"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// An Experiment is one row of the paper's evaluation: a document and a
// query family, the series Run sweeps and the points BenchmarkPaper times.
type Experiment struct {
	Name   string // the -exp name of cmd/xpathbench and BenchmarkPaper's first element
	Figure string // the figure or table of the paper it regenerates
	Title  string // the printed header
	Doc    func(n int) *xmltree.Document
	Query  func(k int) string
	Lines  []Line // the series, in print order
	Bench  []Grid // sizes that finish in reasonable time under testing.B
	Scaled bool   // Config.Scale multiplies the Lines' document sizes
	// print replaces Fprint for the rows whose table has another shape.
	print func(w io.Writer, x Experiment, series []Series)
}

// A Line is one engine's series: one per size in Docs over the query
// sizes Ks, or — when Ks holds a single size — one over Docs. A %d in
// Label becomes the document size.
type Line struct {
	Engine, Label string
	Docs, Ks      []int
	CapX          int // multiplies Config.Cap for this line (0: 1)
}

// A Grid is every engine of Engines on every size in Docs and in Ks.
type Grid struct {
	Engines  []string
	Docs, Ks []int
}

// multiples returns step, 2·step, …, n·step.
func multiples(step, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (i + 1) * step
	}
	return out
}

// ablationQueries are one query per fragment of Figure 1, in that
// order: the ablation's query sizes 1–3.
var ablationQueries = []struct{ name, query string }{
	{"core-xpath", "//product[child::discontinued]/child::name"},
	{"wadler", "//product[child::price = 10 and position() != last()]"},
	{"full-xpath", "//product[count(child::*) > 2]/child::name"},
}

// Experiments are the rows cmd/xpathbench runs, in the order -exp all
// runs them. The naive engine models the XSLT processors the paper
// measured (XALAN, XT, Saxon, IE6); topdown is the paper's fix.
var Experiments = []Experiment{{
	Name: "exp1", Figure: "Figure 2, left", Doc: workload.Doc, Query: workload.Exp1Query,
	Title: "Experiment 1: //a/b(/parent::a/b)^k on DOC(2)",
	Lines: []Line{
		{Engine: "naive", Label: "naive (models XALAN/XT)", Docs: []int{2}, Ks: multiples(1, 25)},
		{Engine: "topdown", Label: "topdown (ours)", Docs: []int{2}, Ks: multiples(1, 25)},
	},
	Bench: []Grid{{[]string{"naive"}, []int{2}, []int{4, 8, 12, 16}}, {[]string{"topdown"}, []int{2}, []int{4, 8, 16, 25}}},
}, {
	Name: "exp2", Figure: "Figure 2, right", Doc: workload.DocPrime, Query: workload.Exp2Query,
	Title: "Experiment 2: nested //*[parent::a/child::* = 'c'] on DOC'(i)",
	Lines: []Line{
		{Engine: "naive", Label: "naive doc %d (models Saxon)", Docs: []int{2, 3, 10, 200}, Ks: multiples(1, 30)},
		{Engine: "topdown", Label: "topdown doc %d (ours)", Docs: []int{200}, Ks: multiples(1, 30)},
	},
	Bench: []Grid{{[]string{"naive"}, []int{2, 10}, []int{1, 2, 3}}, {[]string{"topdown"}, []int{10, 200}, []int{5, 20, 50}}},
}, {
	Name: "exp3", Figure: "Figure 3, left", Doc: workload.Doc, Query: workload.Exp3Query,
	Title: "Experiment 3: nested //a/b[count(parent::a/b) > 1] on DOC(i)",
	Lines: []Line{
		{Engine: "naive", Label: "naive doc %d (models IE6)", Docs: []int{2, 3, 10, 200}, Ks: multiples(1, 30)},
		{Engine: "topdown", Label: "topdown doc %d (ours)", Docs: []int{200}, Ks: multiples(1, 30)},
	},
	Bench: []Grid{{[]string{"naive"}, []int{2, 10}, []int{2, 4}}},
}, {
	// IE6 is quadratic on this query; the row brackets it: the query is
	// Core XPath, so the linear algebra (Section 10.1) reaches the
	// paper's 5 000-node steps, while topdown is super-quadratic here.
	// f′ and f″ are the linear engine's first and second differences
	// (for IE6's quadratic curve, f″ was the constant).
	Name: "exp4", Figure: "Figure 3, right", Doc: workload.Doc, Query: workload.Exp4Query, Scaled: true,
	Title: "Experiment 4: fixed //a+q(20)+//b, document sweep (f)",
	Lines: []Line{
		{Engine: "corexpath", Label: "corexpath (linear, ours)", Docs: multiples(5000, 10), Ks: []int{20}, CapX: 10},
		{Engine: "topdown", Label: "topdown (general-purpose)", Docs: multiples(500, 8), Ks: []int{20}},
	},
	Bench: []Grid{{[]string{"corexpath"}, []int{5000, 20000, 50000}, []int{20}}, {[]string{"topdown"}, []int{50, 100, 200}, []int{20}}},
	print: func(w io.Writer, x Experiment, series []Series) {
		Fprint(w, x.Title, true, series)
		fmt.Fprintf(w, "%10s %12s %12s %12s\n", "|D|", "f (ms)", "f'", "f''")
		var f, d1 float64 // the previous point's f and f′
		for i, p := range series[0].Points {
			var d, d2 float64
			if i > 0 {
				d = p.Millis - f
			}
			if i > 1 {
				d2 = d - d1
			}
			fmt.Fprintf(w, "%10d %12.2f %12.2f %12.2f\n", p.DocSize, p.Millis, d, d2)
			f, d1 = p.Millis, d
		}
		fmt.Fprintln(w)
	},
}, {
	Name: "exp5a", Figure: "Figure 4a", Doc: workload.Doc, Query: workload.Exp5FollowingQuery,
	Title: "Experiment 5(a): count(//b/following::b…) on DOC(i)",
	Lines: []Line{
		{Engine: "naive", Label: "naive doc %d (following)", Docs: []int{20, 25, 30, 40, 50}, Ks: multiples(1, 20)},
		{Engine: "topdown", Label: "topdown doc %d (ours)", Docs: []int{50}, Ks: multiples(1, 20)},
	},
	Bench: []Grid{{[]string{"naive"}, []int{20, 50}, []int{3, 5}}, {[]string{"topdown"}, []int{50}, []int{5, 10, 20}}},
}, {
	Name: "exp5b", Figure: "Figure 4b", Doc: workload.DeepDoc, Query: workload.Exp5DescendantQuery,
	Title: "Experiment 5(b): count(//b//b…//b) on deep paths",
	Lines: []Line{
		{Engine: "naive", Label: "naive doc %d (descendant)", Docs: []int{20, 25, 30, 40, 50}, Ks: multiples(1, 20)},
		{Engine: "topdown", Label: "topdown doc %d (ours)", Docs: []int{50}, Ks: multiples(1, 20)},
	},
	Bench: []Grid{{[]string{"naive"}, []int{20, 50}, []int{3, 5}}},
}, {
	Name: "table5", Figure: "Table V, Figure 12", Doc: workload.Doc, Query: workload.Exp3Query,
	Title: "Table V: naive (Xalan classic) vs data pool, Experiment-3 queries",
	Lines: []Line{
		{Engine: "naive", Label: "classic doc %d", Docs: []int{10}, Ks: multiples(1, 8)},
		{Engine: "datapool", Label: "data pool doc %d", Docs: []int{10}, Ks: multiples(1, 8)},
		{Engine: "naive", Label: "classic doc %d", Docs: []int{200}, Ks: multiples(1, 8)},
		{Engine: "datapool", Label: "data pool doc %d", Docs: []int{200}, Ks: multiples(1, 8)},
	},
	Bench: []Grid{{[]string{"naive"}, []int{10}, []int{2, 4, 6}}, {[]string{"datapool"}, []int{10, 200}, []int{4, 8}}},
}, {
	// The naive column explodes past |Q| ≈ 3 on large documents; the
	// top-down column grows linearly in |Q| and quadratically in |D|.
	Name: "table7", Figure: "Table VII", Doc: workload.DocPrime, Query: workload.Exp2Query,
	Title: "Table VII: naive (IE6 model) vs top-down (XMLTaskforce), Experiment-2 queries",
	Lines: []Line{
		{Engine: "naive", Label: "IE6-model doc %d", Docs: []int{10, 20, 200}, Ks: multiples(1, 8)},
		{Engine: "topdown", Label: "XMLTaskforce doc %d", Docs: []int{10, 20, 200, 500, 1000, 2000},
			Ks: append(multiples(1, 10), 20, 30, 40, 50), CapX: 5},
	},
	Bench: []Grid{{[]string{"naive"}, []int{10, 20}, []int{2, 3}}, {[]string{"topdown"}, []int{10, 200, 1000, 2000}, []int{1, 10, 50}}},
}, {
	// Fragment evaluators versus the general algorithms: query size k is
	// the k-th of ablationQueries; corexpath admits only the first.
	Name: "ablate", Figure: "Figure 1's fragments", Doc: workload.Catalog, Query: func(k int) string { return ablationQueries[k-1].query },
	Title: "Ablation: engines × fragments on Catalog(300)",
	Lines: []Line{
		{Engine: "naive", Label: "naive", Docs: []int{300}, Ks: multiples(1, 3)},
		{Engine: "datapool", Label: "datapool", Docs: []int{300}, Ks: multiples(1, 3)},
		{Engine: "topdown", Label: "topdown", Docs: []int{300}, Ks: multiples(1, 3)},
		{Engine: "mincontext", Label: "mincontext", Docs: []int{300}, Ks: multiples(1, 3)},
		{Engine: "optmincontext", Label: "optmincontext", Docs: []int{300}, Ks: multiples(1, 3)},
		{Engine: "corexpath", Label: "corexpath", Docs: []int{300}, Ks: []int{1}},
	},
	Bench: []Grid{
		{[]string{"corexpath", "topdown", "mincontext", "optmincontext"}, []int{1000}, []int{1}},
		{[]string{"optmincontext", "mincontext", "topdown"}, []int{500}, []int{2}},
		{[]string{"naive", "topdown", "mincontext", "optmincontext", "bottomup"}, []int{100}, []int{3}},
	},
	print: func(w io.Writer, x Experiment, series []Series) {
		fmt.Fprintf(w, "== %s, |D|=%d ==\n%-12s %-15s %12s\n", x.Title, series[0].Points[0].DocSize, "query", "engine", "time")
		for k, q := range ablationQueries {
			for _, s := range series {
				for _, p := range s.Points {
					cell := fmt.Sprintf("%12.3fms", p.Millis)
					if p.TimedOut {
						cell = fmt.Sprintf("%14s", "-")
					}
					if p.QuerySize == k+1 {
						fmt.Fprintf(w, "%-12s %-15s %s\n", q.name, s.Label, cell)
					}
				}
			}
		}
		fmt.Fprintln(w)
	},
}}

// Run sweeps every line of x under cfg, prints the table to cfg.Out and
// returns the series in print order.
func Run(x Experiment, cfg Config) []Series {
	var series []Series
	for _, l := range x.Lines {
		if len(l.Ks) == 1 && len(l.Docs) > 1 {
			series = append(series, x.sweep(l, l.Label, l.Docs, cfg))
			continue
		}
		for _, n := range l.Docs {
			series = append(series, x.sweep(l, strings.ReplaceAll(l.Label, "%d", strconv.Itoa(n)), []int{n}, cfg))
		}
	}
	w := cfg.Out
	if w == nil {
		w = io.Discard
	}
	if x.print != nil {
		x.print(w, x, series)
	} else {
		Fprint(w, x.Title, false, series)
	}
	return series
}

// sweep measures l's engine at every document size of docs and query
// size of l.Ks. The naive engines' budget per point is extrapolated from
// the step rate so far so that no point exceeds ~1.5× the cap; a capped
// or over-cap point ends the series like the paper's '-' entries.
func (x Experiment) sweep(l Line, label string, docs []int, cfg Config) Series {
	s := Series{Label: label}
	cap := cfg.cap() * time.Duration(max(l.CapX, 1))
	rate := 5e6 // steps/sec initial guess; recalibrated per point
	for _, n := range docs {
		if x.Scaled {
			n = max(int(float64(n)*cfg.scale()), n/100)
		}
		d := x.Doc(n)
		for _, k := range l.Ks {
			// At least one step: a zero budget leaves naive uncapped.
			budget := max(int64(rate*cap.Seconds()*1.5), 1)
			p, dur, err := measure(l.Engine, d, xpath.MustParse(x.Query(k)), budget)
			if err != nil {
				panic(fmt.Sprintf("bench: %s %s doc=%d k=%d: %v", x.Name, label, n, k, err))
			}
			p.QuerySize = k
			s.Points = append(s.Points, p)
			if p.TimedOut || dur > cap {
				return s
			}
			if p.Steps > 0 && dur > time.Millisecond {
				rate = float64(p.Steps) / dur.Seconds()
			}
		}
	}
	return s
}
