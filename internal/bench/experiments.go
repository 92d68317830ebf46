package bench

import (
	"fmt"
	"time"

	"repro/internal/mincontext"
	"repro/internal/workload"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xpatterns"
)

// Exp1 reproduces Experiment 1 (Figure 2, left): exponential query
// complexity of XALAN and XT on DOC(2) with antagonist-axis queries
// //a/b(/parent::a/b)^k. The naive engine models XALAN/XT; the top-down
// engine shows the paper's fix on the same workload.
func Exp1(cfg Config) []Series {
	d := workload.Doc(2)
	ks := intsUpTo(25)
	series := []Series{
		sweep(naiveRunner{d}, d, workload.Exp1Query, ks, cfg.cap(), "naive (models XALAN/XT)"),
		sweep(topdownRunner{d}, d, workload.Exp1Query, ks, cfg.cap(), "topdown (ours)"),
	}
	FprintSeries(cfg.out(), "Experiment 1: //a/b(/parent::a/b)^k on DOC(2)", series)
	return series
}

// Exp2 reproduces Experiment 2 (Figure 2, right): exponential query
// complexity of Saxon on DOC′(i), i ∈ {2, 3, 10, 200}, with nested
// path/comparison predicates.
func Exp2(cfg Config) []Series {
	var series []Series
	for _, i := range []int{2, 3, 10, 200} {
		d := workload.DocPrime(i)
		series = append(series, sweep(naiveRunner{d}, d, workload.Exp2Query,
			intsUpTo(30), cfg.cap(), fmt.Sprintf("naive doc %d (models Saxon)", i)))
	}
	d := workload.DocPrime(200)
	series = append(series, sweep(topdownRunner{d}, d, workload.Exp2Query,
		intsUpTo(30), cfg.cap(), "topdown doc 200 (ours)"))
	FprintSeries(cfg.out(), "Experiment 2: nested //*[parent::a/child::* = 'c'] on DOC'(i)", series)
	return series
}

// Exp3 reproduces Experiment 3 (Figure 3, left): exponential query
// complexity of IE6 on DOC(i) with nested count() predicates.
func Exp3(cfg Config) []Series {
	var series []Series
	for _, i := range []int{2, 3, 10, 200} {
		d := workload.Doc(i)
		series = append(series, sweep(naiveRunner{d}, d, workload.Exp3Query,
			intsUpTo(30), cfg.cap(), fmt.Sprintf("naive doc %d (models IE6)", i)))
	}
	d := workload.Doc(200)
	series = append(series, sweep(topdownRunner{d}, d, workload.Exp3Query,
		intsUpTo(30), cfg.cap(), "topdown doc 200 (ours)"))
	FprintSeries(cfg.out(), "Experiment 3: nested //a/b[count(parent::a/b) > 1] on DOC(i)", series)
	return series
}

// Exp4 reproduces Experiment 4 (Figure 3, right): data complexity for
// the fixed query //a + q(20) + //b, which IE6 evaluates in quadratic
// time. We cannot run IE6; instead the harness brackets its curve from
// both sides. The query family lies in Core XPath, so our Auto engine
// dispatches to the linear-time algebra (Section 10.1) and scales to
// the paper's 50 000-node granularity; the general-purpose top-down
// engine is polynomial but super-quadratic on this family. The harness
// reports the timings plus first and second differences f′ and f″ for
// the linear engine (for IE6's quadratic curve, f″ was the constant).
func Exp4(cfg Config) []Series {
	query := workload.Exp4Query(20)
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1
	}
	// Linear-time Core XPath engine at the paper's granularity
	// (5000-node steps up to 50 000).
	base := int(5000 * scale)
	if base < 50 {
		base = 50
	}
	var bigDocs []*xmltree.Document
	for n := base; n <= 10*base; n += base {
		bigDocs = append(bigDocs, workload.Doc(n))
	}
	series := []Series{
		docSweep(func(d *xmltree.Document) engineRunner { return cxRunner{d} },
			bigDocs, query, cfg.cap()*10, "corexpath (linear, ours)"),
	}
	// Top-down engine on a smaller sweep (it is super-quadratic here).
	smallBase := base / 10
	if smallBase < 25 {
		smallBase = 25
	}
	var smallDocs []*xmltree.Document
	for n := smallBase; n <= 8*smallBase; n += smallBase {
		smallDocs = append(smallDocs, workload.Doc(n))
	}
	series = append(series,
		docSweep(func(d *xmltree.Document) engineRunner { return topdownRunner{d} },
			smallDocs, query, cfg.cap(), "topdown (general-purpose)"))
	FprintDocSeries(cfg.out(), "Experiment 4: fixed //a+q(20)+//b, document sweep (f)", series)
	// First and second differences for the linear engine.
	w := cfg.out()
	pts := series[0].Points
	fmt.Fprintf(w, "%10s %12s %12s %12s\n", "|D|", "f (ms)", "f'", "f''")
	var prev, prevD float64
	for i, p := range pts {
		d1, d2 := 0.0, 0.0
		if i > 0 {
			d1 = p.Millis - prev
		}
		if i > 1 {
			d2 = d1 - prevD
		}
		fmt.Fprintf(w, "%10d %12.2f %12.2f %12.2f\n", p.DocSize, p.Millis, d1, d2)
		if i > 0 {
			prevD = d1
		}
		prev = p.Millis
	}
	fmt.Fprintln(w)
	return series
}

// Exp5 reproduces Experiment 5 (Figure 4): exponential behaviour with
// forward axes only. Part (a) chains following::b on flat DOC(i); part
// (b) chains //b on deep non-branching documents.
func Exp5(cfg Config, descendant bool) []Series {
	var series []Series
	for _, i := range []int{20, 25, 30, 40, 50} {
		var d *xmltree.Document
		var gen func(int) string
		var label string
		if descendant {
			d = workload.DeepDoc(i)
			gen = workload.Exp5DescendantQuery
			label = fmt.Sprintf("naive doc %d (descendant)", i)
		} else {
			d = workload.Doc(i)
			gen = workload.Exp5FollowingQuery
			label = fmt.Sprintf("naive doc %d (following)", i)
		}
		series = append(series, sweep(naiveRunner{d}, d, gen, intsUpTo(20), cfg.cap(), label))
	}
	// Our engine on the largest document for contrast.
	if descendant {
		d := workload.DeepDoc(50)
		series = append(series, sweep(topdownRunner{d}, d, workload.Exp5DescendantQuery,
			intsUpTo(20), cfg.cap(), "topdown doc 50 (ours)"))
		FprintSeries(cfg.out(), "Experiment 5(b): count(//b//b…//b) on deep paths", series)
	} else {
		d := workload.Doc(50)
		series = append(series, sweep(topdownRunner{d}, d, workload.Exp5FollowingQuery,
			intsUpTo(20), cfg.cap(), "topdown doc 50 (ours)"))
		FprintSeries(cfg.out(), "Experiment 5(a): count(//b/following::b…) on DOC(i)", series)
	}
	return series
}

// Table5 reproduces Table V (and Figure 12): "Xalan classic" versus
// "Xalan + data pool" on the Experiment 3 queries over DOC(10) and
// DOC(200). The naive engine is the classic column; the same engine
// with the Section 9 data pool is the fixed column.
func Table5(cfg Config) []Series {
	ks := intsUpTo(8)
	var series []Series
	for _, i := range []int{10, 200} {
		d := workload.Doc(i)
		series = append(series,
			sweep(naiveRunner{d}, d, workload.Exp3Query, ks, cfg.cap(),
				fmt.Sprintf("classic doc %d", i)),
			sweep(datapoolRunner{d}, d, workload.Exp3Query, ks, cfg.cap(),
				fmt.Sprintf("data pool doc %d", i)))
	}
	FprintSeries(cfg.out(), "Table V: naive (Xalan classic) vs data pool, Experiment-3 queries", series)
	return series
}

// Table7 reproduces Table VII: "IE6" (naive model) versus "XMLTaskforce
// XPath" (the top-down engine) on the Experiment 2 queries, across
// document sizes 10–2000 and query sizes up to 50. The expected shape:
// the naive column explodes past |Q| ≈ 3 on large documents; the
// top-down column grows linearly in |Q| and quadratically in |D|.
func Table7(cfg Config) []Series {
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 40, 50}
	var series []Series
	for _, i := range []int{10, 20, 200} {
		d := workload.DocPrime(i)
		series = append(series, sweep(naiveRunner{d}, d, workload.Exp2Query,
			intsUpTo(8), cfg.cap(), fmt.Sprintf("IE6-model doc %d", i)))
	}
	for _, i := range []int{10, 20, 200, 500, 1000, 2000} {
		d := workload.DocPrime(i)
		series = append(series, sweep(topdownRunner{d}, d, workload.Exp2Query,
			ks, cfg.cap()*5, fmt.Sprintf("XMLTaskforce doc %d", i)))
	}
	FprintSeries(cfg.out(), "Table VII: naive (IE6 model) vs top-down (XMLTaskforce), Experiment-2 queries", series)
	return series
}

// Ablation compares all engines on three representative queries — one
// per fragment of Figure 1 — over a realistic catalog document. It
// regenerates the design-choice comparison DESIGN.md calls out:
// specialized fragment evaluators versus the general algorithms.
func Ablation(cfg Config) []Series {
	d := workload.Catalog(300)
	queries := map[string]string{
		"core-xpath": "//product[child::discontinued]/child::name",
		"wadler":     "//product[child::price = 10 and position() != last()]",
		"full-xpath": "//product[count(child::*) > 2]/child::name",
	}
	var series []Series
	w := cfg.out()
	fmt.Fprintf(w, "== Ablation: engines × fragments on Catalog(300), |D|=%d ==\n", d.Len())
	fmt.Fprintf(w, "%-12s %-15s %12s\n", "query", "engine", "time")
	for qname, q := range queries {
		e := xpath.MustParse(q)
		runners := []struct {
			name string
			r    engineRunner
		}{
			{"naive", naiveRunner{d}},
			{"datapool", datapoolRunner{d}},
			{"topdown", topdownRunner{d}},
			{"mincontext", mcRunner{d}},
			{"optmincontext", optmincontextRunner{d}},
		}
		if xpatterns.InCoreXPath(e) {
			runners = append(runners, struct {
				name string
				r    engineRunner
			}{"corexpath", cxRunner{d}})
		}
		s := Series{Label: qname}
		for _, rn := range runners {
			dur, _, _, err := rn.r.run(e, int64(5e8))
			if err != nil {
				fmt.Fprintf(w, "%-12s %-15s %12s\n", qname, rn.name, "error: "+err.Error())
				continue
			}
			fmt.Fprintf(w, "%-12s %-15s %12.3fms\n", qname, rn.name, float64(dur.Microseconds())/1000)
			s.Points = append(s.Points, Point{Millis: float64(dur.Microseconds()) / 1000, DocSize: d.Len()})
		}
		series = append(series, s)
	}
	fmt.Fprintln(w)
	return series
}

type mcRunner struct{ d *xmltree.Document }

func (r mcRunner) run(e xpath.Expr, _ int64) (time.Duration, int64, bool, error) {
	ev := mincontext.New(r.d)
	start := time.Now()
	_, err := ev.Evaluate(e, rootCtx(r.d))
	return time.Since(start), 0, false, err
}

type cxRunner struct{ d *xmltree.Document }

func (r cxRunner) run(e xpath.Expr, _ int64) (time.Duration, int64, bool, error) {
	ev := xpatterns.New(r.d)
	start := time.Now()
	_, err := ev.Evaluate(e, rootCtx(r.d))
	return time.Since(start), 0, false, err
}
