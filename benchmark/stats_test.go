package main

import (
	"math"
	"testing"

	"repro/benchmark/proto"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if v, ok := percentile(sorted, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, ok)
	}
	if v, ok := percentile(sorted[:999], 0.99); v != 990 || ok {
		t.Errorf("p99 of 1..999 = %v, %v; want 990 but only 9 beyond", v, ok)
	}
	if v, ok := percentile(sorted, 0.5); v != 500 || !ok {
		t.Errorf("p50 of 1..1000 = %v, %v", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of nothing was reported")
	}
	if v, ok := percentile([]float64{7}, 0.99); v != 7 || ok {
		t.Errorf("p99 of one sample = %v, %v", v, ok)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1}, 2}, {[]float64{9, 1, 5}, 5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The expected values are statistics.quantiles(vals, n=4) of Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{4, 4, 4, 4, 4}, 4, 4},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	line := "4242 (x path) serve)) S 1 4242 4242 0 -1 4194560 901 0 0 0 150 50 0 0 20 0 7 0 123456 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseProcStat(line)
	if err != nil || cpu != 2.0 {
		t.Errorf("cpu = %v, %v; want 2.0 s from utime 150 + stime 50", cpu, err)
	}
	if _, err := parseProcStat("no parenthesis here"); err == nil {
		t.Error("a line without a command field was accepted")
	}
	if _, err := parseProcStat("1 (a) S 1 2"); err == nil {
		t.Error("a truncated line was accepted")
	}
}

func TestParseProcStatus(t *testing.T) {
	st, err := parseProcStatus("Name:\txpathserve\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\nThreads:\t7\n")
	if err != nil || st.peakMB != 20 || st.rssMB != 10 {
		t.Errorf("status = %+v, %v; want peak 20 MB, rss 10 MB", st, err)
	}
	if _, err := parseProcStatus("Name:\tkthread\n"); err == nil {
		t.Error("a status without VmRSS and VmHWM was accepted")
	}
}

func TestMetricsTextDelta(t *testing.T) {
	before := counters(parseMetricsText(`# HELP xpath_stage_seconds per-stage latency
# TYPE xpath_stage_seconds histogram
xpath_stage_seconds_bucket{stage="route",le="0.001"} 10
xpath_stage_seconds_sum{stage="route"} 1.5
xpath_stage_seconds_sum{stage="evaluate"} 0.5
xpath_query_errors_total 0
`))
	after := counters(parseMetricsText(`xpath_stage_seconds_sum{stage="route"} 4.5
xpath_stage_seconds_sum{stage="evaluate"} 2
xpath_query_errors_total 3
xpath_label{v="a b"} 9
not a sample
`))
	d := delta(before, after)
	if got := d[`xpath_stage_seconds_sum{stage="route"}`]; got != 3 {
		t.Errorf("route delta = %v, want 3", got)
	}
	if got := d[`xpath_stage_seconds_sum{stage="evaluate"}`]; got != 1.5 {
		t.Errorf("evaluate delta = %v, want 1.5", got)
	}
	if got := d["xpath_query_errors_total"]; got != 3 {
		t.Errorf("errors delta = %v, want 3", got)
	}
	if got := after[`xpath_label{v="a b"}`]; got != 9 {
		t.Errorf("a label value with a space parsed to %v, want 9", got)
	}
	if ratio(1, 0) != 0 {
		t.Error("a share of nothing must be 0")
	}
}

func TestCountMetrics(t *testing.T) {
	before := counters{"cache.hits": 10, "cache.misses": 10, "explored": 1, "decisions": 100,
		"stage.evaluate": 1, "stage.compile": 0.5, "stage.route": 2, "store.bytes": 100}
	after := counters{"cache.hits": 109, "cache.misses": 11, "explored": 7, "decisions": 200,
		"stage.evaluate": 4, "stage.compile": 1, "stage.route": 6, "store.bytes": 250,
		"answer.hits": 30, "answer.misses": 10, "answer.invalidations": 4}
	m := countMetrics(before, after)
	for name, want := range map[string]float64{
		"engine.cache_hit_rate":         0.99,
		"planner.explored_share":        0.06,
		"serve.evaluate_share":          0.75,
		"serve.compile_share":           0.125,
		"store.bytes":                   250,
		"cluster.answer_cache_hit_rate": 0.75,
		"cluster.invalidations":         4,
		"resilience.shed":               0,
	} {
		if got := m[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestLadderMetrics(t *testing.T) {
	span := func(op int, name string, us int64) proto.Span {
		return proto.Span{Name: name, Op: op, StartNs: 1000, EndNs: 1000 + us*1000, Parent: proto.SpanProbe}
	}
	var spans []proto.Span
	// Three operations; the third carries a stall on one rung, which the
	// median must not follow.
	for op, evaluate := range []int64{20, 22, 5000} {
		spans = append(spans,
			span(op, proto.SpanParse, 3), span(op, proto.SpanCompile, 5),
			span(op, proto.SpanEvaluate, evaluate), span(op, proto.SpanSessionWarm, evaluate+2),
			span(op, proto.SpanSessionFresh, evaluate+10), span(op, proto.SpanHandler, evaluate+40),
			span(op, proto.SpanHTTP, evaluate+300), span(op, proto.SpanRouterMiss, evaluate+700),
			span(op, proto.SpanRouterHit, 250), span(op, proto.SpanHTTPTraced, evaluate+310))
	}
	spans = append(spans, span(0, proto.SpanRegister, 1000), span(0, proto.SpanReplicate, 3500), span(0, proto.SpanBatch, 2000))
	spans[6].Bytes = 1500 // the serve.http span of operation 0
	m := ladderMetrics(spans)
	for name, want := range map[string]float64{
		"xpath.parse_us":              3,
		"core.compile_self_us":        2,
		"core.evaluate_us":            22,
		"engine.session_self_us":      2,
		"engine.compile_miss_self_us": 8,
		"serve.handler_self_us":       38,
		"serve.http_self_us":          260,
		"cluster.router_self_us":      400,
		"cluster.cache_hit_us":        250,
		"obs.trace_self_us":           10,
		"serve.register_self_us":      1000,
		"cluster.replicate_self_us":   2500,
		"batch_p50_ms":                2,
		"register_p50_ms":             3.5,
	} {
		if got := m[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestFreshSuffixIsUniqueWhitespace(t *testing.T) {
	seen := map[string]bool{}
	for n := 0; n < 5000; n++ {
		s := proto.FreshSuffix(n)
		if seen[s] {
			t.Fatalf("suffix of %d repeats an earlier one", n)
		}
		seen[s] = true
		for _, c := range s {
			if c != ' ' && c != '\t' && c != '\n' {
				t.Fatalf("suffix of %d holds %q, which is not XPath whitespace", n, c)
			}
		}
	}
}
