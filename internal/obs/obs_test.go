package obs

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryTextFormat renders a registry holding every kind of
// instrument, labeled and not, and wants the exposition text byte for
// byte (help and label escaping, bucket order, creation order of
// children), and text its own parser reads back.
func TestRegistryTextFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "requests handled")
	c.Add(3)
	g := r.Gauge("test_temperature", "current reading")
	g.Set(2.5)
	r.CounterFunc("test_func_total", "func-backed counter", func() float64 { return 7 })
	r.GaugeFunc("test_func_gauge", "func-backed gauge", func() float64 { return 0.5 })
	h := r.Histogram("test_latency_seconds", "latencies", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	v := r.CounterVec("test_paths_total", "per-path requests", "path")
	v.Inc("/query")
	v.Inc("/query")
	v.Add(4, "/batch")
	gv := r.GaugeVec("test_breaker_state", "per-peer \\ state\nline", "peer", "zone")
	gv.Set(2, "node-a", `z"1"`)
	gv.Add(-1.5, "node-b", "z2")
	hv := r.HistogramVec("test_stage_seconds", "per-stage latency", []float64{0.1}, "stage")
	hv.With("compile").Observe(0.2)
	hv.With("evaluate").Observe(0.05)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	text := b.String()
	const want = `# HELP test_requests_total requests handled
# TYPE test_requests_total counter
test_requests_total 3
# HELP test_temperature current reading
# TYPE test_temperature gauge
test_temperature 2.5
# HELP test_func_total func-backed counter
# TYPE test_func_total counter
test_func_total 7
# HELP test_func_gauge func-backed gauge
# TYPE test_func_gauge gauge
test_func_gauge 0.5
# HELP test_latency_seconds latencies
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.01"} 1
test_latency_seconds_bucket{le="0.1"} 2
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 5.055
test_latency_seconds_count 3
# HELP test_paths_total per-path requests
# TYPE test_paths_total counter
test_paths_total{path="/query"} 2
test_paths_total{path="/batch"} 4
# HELP test_breaker_state per-peer \\ state\nline
# TYPE test_breaker_state gauge
test_breaker_state{peer="node-a",zone="z\"1\""} 2
test_breaker_state{peer="node-b",zone="z2"} -1.5
# HELP test_stage_seconds per-stage latency
# TYPE test_stage_seconds histogram
test_stage_seconds_bucket{stage="compile",le="0.1"} 0
test_stage_seconds_bucket{stage="compile",le="+Inf"} 1
test_stage_seconds_sum{stage="compile"} 0.2
test_stage_seconds_count{stage="compile"} 1
test_stage_seconds_bucket{stage="evaluate",le="0.1"} 1
test_stage_seconds_bucket{stage="evaluate",le="+Inf"} 1
test_stage_seconds_sum{stage="evaluate"} 0.05
test_stage_seconds_count{stage="evaluate"} 1
`
	if text != want {
		t.Errorf("exposition text:\n%s\nwant:\n%s", text, want)
	}

	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("own output does not parse: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples parsed")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "same")
	b := r.Counter("dup_total", "same")
	if a != b {
		t.Error("identical registration should return the same counter")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("signature mismatch should panic")
			}
		}()
		r.Counter("dup_total", "different help")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-snake-case name should panic")
			}
		}()
		r.Counter("BadName", "x")
	}()
}

func TestHistogramBucketsMustAscend(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("non-ascending buckets should panic")
		}
	}()
	r.Histogram("bad_buckets", "x", []float64{1, 1})
}

func TestCounterVecConcurrency(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("conc_total", "x", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				v.Inc("a")
			}
		}()
	}
	wg.Wait()
	if got := v.Value("a"); got != 800 {
		t.Errorf("Value(a) = %d, want 800", got)
	}
}

// TestVecLookupAllocatesNothing: finding an existing child of a
// labeled family — what every request does for obs.Middleware's
// counter and every evaluation for its latency histogram
// (CounterVec.Inc, HistogramVec.With(…).Observe) — builds no key
// string, whatever the number of labels; a label set longer than the
// stack room still finds its child.
func TestVecLookupAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("lookup_seconds", "x", nil, "fragment", "strategy")
	cv := r.CounterVec("lookup_total", "x", "fragment", "strategy")
	gv := r.GaugeVec("lookup_state", "x", "peer")
	h := hv.With("core", "corexpath")
	cv.Inc("core", "corexpath")
	gv.Set(1, "a")
	frag, strat := "core", "corexpath" // not constants: as the engine passes them
	allocs := testing.AllocsPerRun(100, func() {
		if hv.With(frag, strat) != h {
			t.Fatal("With found another child")
		}
		cv.Inc(frag, strat)
		hv.With(frag, strat).Observe(0.001)
		gv.Add(1, "a")
		_ = cv.Value(frag, strat) + uint64(gv.Value("a"))
	})
	if allocs != 0 {
		t.Errorf("looking up existing children allocates %.0f times, want 0", allocs)
	}
	long := strings.Repeat("x", 100)
	if hv.With(long, long) != hv.With(long, long) || hv.With(long, long) == h {
		t.Error("a key past the stack room does not find its own child")
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("breaker_state", "per-peer breaker position", "peer")
	if v2 := r.GaugeVec("breaker_state", "per-peer breaker position", "peer"); v2 != v {
		t.Error("identical registration should return the same vec")
	}
	v.Set(2, "node-a")
	v.Set(1, "node-b")
	v.Add(-1, "node-b")
	if got := v.Value("node-a"); got != 2 {
		t.Errorf("Value(node-a) = %v, want 2", got)
	}
	if got := v.Value("node-b"); got != 0 {
		t.Errorf("Value(node-b) = %v, want 0", got)
	}
	if got := v.Value("never"); got != 0 {
		t.Errorf("untouched child = %v, want 0", got)
	}
	var buf strings.Builder
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# TYPE breaker_state gauge`) ||
		!strings.Contains(out, `breaker_state{peer="node-a"} 2`) {
		t.Errorf("exposition missing gauge vec:\n%s", out)
	}
	samples, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("own output does not parse: %v", err)
	}
	if len(samples) != 2 {
		t.Errorf("samples = %+v, want 2", samples)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				v.Add(1, "node-a")
			}
		}()
	}
	wg.Wait()
	if got := v.Value("node-a"); got != 802 {
		t.Errorf("concurrent Add: Value(node-a) = %v, want 802", got)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("handler_total", "x").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want exposition format", ct)
	}
	samples, err := ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(samples) != 1 || samples[0].Name != "handler_total" || samples[0].Value != 1 {
		t.Errorf("samples = %+v", samples)
	}
}

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("req123")
	ctx := WithTrace(context.Background(), tr)
	if RequestID(ctx) != "req123" {
		t.Fatalf("RequestID = %q", RequestID(ctx))
	}
	ctx, root := StartSpan(ctx, "route")
	cctx, child := StartSpan(ctx, "evaluate")
	child.SetAttr("strategy", "bottomup")
	_ = cctx
	time.Sleep(time.Millisecond)
	child.End()
	root.End()

	rep := tr.Report()
	if rep.RequestID != "req123" {
		t.Errorf("report ID = %q", rep.RequestID)
	}
	if len(rep.Spans) != 1 || rep.Spans[0].Name != "route" {
		t.Fatalf("roots = %+v", rep.Spans)
	}
	kids := rep.Spans[0].Children
	if len(kids) != 1 || kids[0].Name != "evaluate" {
		t.Fatalf("children = %+v", kids)
	}
	if kids[0].Attrs["strategy"] != "bottomup" {
		t.Errorf("attrs = %v", kids[0].Attrs)
	}
	if kids[0].DurNs <= 0 || kids[0].DurNs > rep.Spans[0].DurNs {
		t.Errorf("child dur %d vs parent %d", kids[0].DurNs, rep.Spans[0].DurNs)
	}
	if rep.Spans[0].DurNs > rep.TotalNs {
		t.Errorf("root dur %d exceeds total %d", rep.Spans[0].DurNs, rep.TotalNs)
	}
}

func TestSpanNilSafety(t *testing.T) {
	ctx, s := StartSpan(context.Background(), "no-trace")
	if s != nil {
		t.Fatal("span without trace should be nil")
	}
	// All no-ops; must not panic.
	s.End()
	s.SetAttr("k", "v")
	s.AttachRemote("x")
	if TraceFrom(ctx) != nil {
		t.Error("no trace expected")
	}
	var nilTrace *Trace
	if nilTrace.Report() != nil {
		t.Error("nil trace report should be nil")
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("cap")
	ctx := WithTrace(context.Background(), tr)
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, s := StartSpan(ctx, "s")
		s.End()
	}
	rep := tr.Report()
	if len(rep.Spans) != maxSpansPerTrace {
		t.Errorf("recorded %d spans, want %d", len(rep.Spans), maxSpansPerTrace)
	}
	if rep.Dropped != 10 {
		t.Errorf("dropped = %d, want 10", rep.Dropped)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("conc")
	ctx := WithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				_, s := StartSpan(ctx, "worker")
				s.SetAttr("k", "v")
				s.End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Report().Spans); got != 160 {
		t.Errorf("got %d root spans, want 160", got)
	}
}

func TestTraceRing(t *testing.T) {
	r := &TraceRing{cap: 3}
	for i := 0; i < 5; i++ {
		r.Add(NewTrace(string(rune('a' + i))))
	}
	r.Add(nil) // ignored
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("len = %d", len(snap))
	}
	got := snap[0].RequestID + snap[1].RequestID + snap[2].RequestID
	if got != "edc" {
		t.Errorf("order = %q, want edc (newest first)", got)
	}
	var nilRing *TraceRing
	nilRing.Add(NewTrace("x"))
	if nilRing.Snapshot() != nil {
		t.Error("nil ring snapshot should be nil")
	}
}

// TestTraceFinishFreezesReport: the ring renders reports when read, so
// a finished trace must report the same total and the same duration of
// a span left open however much later the report is built.
func TestTraceFinishFreezesReport(t *testing.T) {
	tr := NewTrace("fin")
	ctx := WithTrace(context.Background(), tr)
	_, open := StartSpan(ctx, "left-open")
	_ = open
	tr.Finish()
	first := tr.Report()
	time.Sleep(2 * time.Millisecond)
	tr.Finish() // the first Finish wins
	r := &TraceRing{cap: 1}
	r.Add(tr)
	late := r.Snapshot()[0]
	if late.TotalNs != first.TotalNs {
		t.Errorf("total_ns moved after Finish: %d then %d", first.TotalNs, late.TotalNs)
	}
	if late.Spans[0].DurNs != first.Spans[0].DurNs {
		t.Errorf("open span's dur_ns moved after Finish: %d then %d", first.Spans[0].DurNs, late.Spans[0].DurNs)
	}
	var nilTrace *Trace
	nilTrace.Finish() // must not panic
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Errorf("ids %q %q", a, b)
	}
}

func TestAdoptRequestID(t *testing.T) {
	long := strings.Repeat("a", maxRequestIDLen)
	for id, adopted := range map[string]bool{
		"req-42":             true,
		"A.b_c:d-9":          true,
		long:                 true,
		long + "a":           false,
		"":                   false,
		"two words":          false,
		"line\nbreak":        false,
		`quote"`:             false,
		"café":               false,
		"semi;colon":         false,
		"trace-1/2":          false,
		"0123456789abcdefAB": true,
	} {
		got := AdoptRequestID(id)
		if adopted && got != id {
			t.Errorf("AdoptRequestID(%q) = %q, want it adopted", id, got)
		}
		if !adopted && (got == id || len(got) != 16) {
			t.Errorf("AdoptRequestID(%q) = %q, want a minted 16-byte id", id, got)
		}
	}
}

func TestBuildAndUptime(t *testing.T) {
	bi := Build()
	if bi.GoVersion == "" {
		t.Error("GoVersion empty")
	}
	if UptimeMillis() < 0 {
		t.Error("uptime negative")
	}
}
