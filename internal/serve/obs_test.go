package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

// scrape fetches url's /metrics and indexes the samples by
// name + label-set, verifying the body parses as Prometheus text.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q, want the Prometheus text exposition type", ct)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text: %v", err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		key := s.Name
		if len(s.Labels) > 0 {
			pairs := make([]string, 0, len(s.Labels))
			for k, v := range s.Labels {
				pairs = append(pairs, k+"="+v)
			}
			sort.Strings(pairs)
			key += "{" + strings.Join(pairs, ",") + "}"
		}
		out[key] = s.Value
	}
	return out
}

// TestMetricsEndpoint asserts the full pipeline: a served query shows
// up in the engine counters, the per-path HTTP counters, and the
// latency histograms, all through a scrape that must parse as
// Prometheus text exposition format.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	if resp, out := getJSON(t, ts.URL+"/query?doc=catalog&q=count(//product)"); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d, body %v", resp.StatusCode, out)
	}
	m := scrape(t, ts.URL)
	for key, min := range map[string]float64{
		"xpath_queries_total":                      1,
		"xpath_http_requests_total{path=/query}":   1,
		"xpath_query_seconds_count{":               0, // presence asserted below
		"xpath_documents":                          1,
		"xpath_compile_cache_misses_total":         1,
		"xpath_stage_seconds_count{stage=compile}": 1,
	} {
		if strings.HasSuffix(key, "{") {
			found := false
			for k := range m {
				if strings.HasPrefix(k, key) {
					found = true
				}
			}
			if !found {
				t.Errorf("no sample with prefix %q in /metrics", key)
			}
			continue
		}
		if m[key] < min {
			t.Errorf("%s = %v, want >= %v (scrape: %d samples)", key, m[key], min, len(m))
		}
	}
	if m["xpath_stage_seconds_count{stage=evaluate}"] < 1 {
		t.Errorf("evaluate stage histogram not observed: %v", m["xpath_stage_seconds_count{stage=evaluate}"])
	}
	if resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /metrics = %d, want 405", resp.StatusCode)
		}
	}
}

// TestRequestIDRoundTrip: a supplied X-Request-Id is echoed on the
// response and stamped on every NDJSON batch line; an absent one is
// minted.
func TestRequestIDRoundTrip(t *testing.T) {
	_, ts := testServer(t)

	req, _ := http.NewRequest("GET", ts.URL+"/query?doc=catalog&q=count(//product)", nil)
	req.Header.Set(obs.HeaderRequestID, "test-id-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.HeaderRequestID); got != "test-id-123" {
		t.Fatalf("echoed request id = %q, want test-id-123", got)
	}

	resp, err = http.Get(ts.URL + "/query?doc=catalog&q=count(//product)")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.HeaderRequestID); got == "" {
		t.Fatal("no X-Request-Id minted on a bare request")
	}

	body, _ := json.Marshal(BatchRequest{Doc: "catalog", Queries: []string{"count(//product)", "//product/child::name"}})
	breq, _ := http.NewRequest("POST", ts.URL+"/batch", bytes.NewReader(body))
	breq.Header.Set(obs.HeaderRequestID, "batch-id-9")
	bresp, err := http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	sc := bufio.NewScanner(bresp.Body)
	lines := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line BatchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad batch line %q: %v", sc.Text(), err)
		}
		if line.RequestID != "batch-id-9" {
			t.Fatalf("batch line request_id = %q, want batch-id-9", line.RequestID)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("batch lines = %d, want 2", lines)
	}
}

// spanNames flattens a span tree into its set of names.
func spanNames(spans []obs.SpanJSON, into map[string]obs.SpanJSON) {
	for _, s := range spans {
		into[s.Name] = s
		spanNames(s.Children, into)
	}
}

// TestQueryTrace: ?trace=1 returns the span tree inline — every
// serving stage is named, the stage durations nest within the total,
// and the tree carries the request's ID. Without the flag no trace is
// attached.
func TestQueryTrace(t *testing.T) {
	_, ts := testServer(t)

	req, _ := http.NewRequest("GET", ts.URL+"/query?doc=catalog&q=count(//product)&trace=1", nil)
	req.Header.Set(obs.HeaderRequestID, "trace-me-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("?trace=1 returned no trace")
	}
	if out.Trace.RequestID != "trace-me-7" {
		t.Fatalf("trace request_id = %q, want trace-me-7", out.Trace.RequestID)
	}
	byName := map[string]obs.SpanJSON{}
	spanNames(out.Trace.Spans, byName)
	for _, want := range []string{"route", "cache_lookup", "compile", "evaluate", "serialize"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("span %q missing from trace (have %v)", want, keys(byName))
		}
	}
	route := byName["route"]
	var childSum int64
	for _, c := range route.Children {
		childSum += c.DurNs
	}
	if childSum > route.DurNs {
		t.Errorf("children of route sum to %dns > route's %dns", childSum, route.DurNs)
	}
	if route.DurNs > out.Trace.TotalNs {
		t.Errorf("route span %dns exceeds trace total %dns", route.DurNs, out.Trace.TotalNs)
	}

	if _, plain := getJSON(t, ts.URL+"/query?doc=catalog&q=count(//product)"); plain["trace"] != nil {
		t.Fatal("trace attached without ?trace=1")
	}
}

func keys(m map[string]obs.SpanJSON) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// syncBuffer is a mutex-guarded log sink: the middleware logs after
// the response bytes are already with the client, so the test must not
// race the handler goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitForLog polls the sink until the substring shows up (the request
// log line lands just after the response is released to the client).
func waitForLog(t *testing.T, b *syncBuffer, substr string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s := b.String(); strings.Contains(s, substr) {
			return s
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("log never contained %q; log so far:\n%s", substr, b.String())
	return ""
}

// TestSlowQueryLog: above the threshold the request logs a "slow
// query" line carrying the span tree; below it only the ordinary
// request line appears, and the slow-query counter stays at zero, but
// the request's span tree is still built and kept.
func TestSlowQueryLog(t *testing.T) {
	newLogged := func(slow time.Duration) (*syncBuffer, *httptest.Server) {
		srv := New(engine.New(engine.Options{CacheSize: 8, Workers: 2}), store.Config{})
		if _, _, err := srv.AddDocument("catalog", workload.Catalog(6).XMLString()); err != nil {
			t.Fatal(err)
		}
		buf := &syncBuffer{}
		srv.SetLogger(slog.New(slog.NewTextHandler(buf, nil)))
		srv.SetSlowQuery(slow)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return buf, ts
	}

	buf, ts := newLogged(time.Nanosecond) // everything is slow
	if resp, out := getJSON(t, ts.URL+"/query?doc=catalog&q=count(//product)"); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d, body %v", resp.StatusCode, out)
	}
	logged := waitForLog(t, buf, "slow query")
	for _, want := range []string{"request_id=", "trace=", "evaluate"} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow-query log missing %q:\n%s", want, logged)
		}
	}
	if m := scrape(t, ts.URL); m["xpath_slow_queries_total"] < 1 {
		t.Errorf("xpath_slow_queries_total = %v, want >= 1", m["xpath_slow_queries_total"])
	}

	buf, ts = newLogged(time.Hour) // nothing is slow
	if resp, out := getJSON(t, ts.URL+"/query?doc=catalog&q=count(//product)"); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d, body %v", resp.StatusCode, out)
	}
	logged = waitForLog(t, buf, "msg=request")
	if strings.Contains(logged, "slow query") {
		t.Errorf("slow-query log fired below threshold:\n%s", logged)
	}
	// With the threshold set every request builds its span tree.
	if traces := debugTraces(t, ts.URL); len(traces) != 1 {
		t.Errorf("trace ring holds %d traces with -slow-query set, want 1", len(traces))
	}
	if m := scrape(t, ts.URL); m["xpath_slow_queries_total"] != 0 {
		t.Errorf("xpath_slow_queries_total = %v, want 0", m["xpath_slow_queries_total"])
	}
}

// TestHealthzBuildInfo: the liveness probe carries uptime and build
// info so a fleet's versions are auditable from the probe alone.
func TestHealthzBuildInfo(t *testing.T) {
	_, ts := testServer(t)
	resp, out := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if _, ok := out["uptime_ms"].(float64); !ok {
		t.Fatalf("healthz uptime_ms missing or not numeric: %v", out["uptime_ms"])
	}
	build, ok := out["build"].(map[string]any)
	if !ok {
		t.Fatalf("healthz build info missing: %v", out["build"])
	}
	if build["go_version"] == "" {
		t.Fatalf("build info has no go version: %v", build)
	}
}

// debugTraces reads /debug/traces.
func debugTraces(t *testing.T, base string) []obs.TraceJSON {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces []obs.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	return traces
}

// TestDebugTracesRing: an ordinary request builds a span tree only one
// time in 64 — 63 leave /debug/traces empty, the 64th adds one — while
// every ?trace=1 request adds its own, newest first, and probe
// endpoints never enter the ring.
func TestDebugTracesRing(t *testing.T) {
	_, ts := testServer(t)
	query := func(i int, trace bool) {
		t.Helper()
		url := fmt.Sprintf("%s/query?doc=catalog&q=count(//product[%d])", ts.URL, i+1)
		if trace {
			url += "&trace=1"
		}
		if resp, _ := getJSON(t, url); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}
	for i := 0; i < 63; i++ {
		query(i, false)
		getJSON(t, ts.URL+"/healthz") // probe: must not enter the ring
	}
	if traces := debugTraces(t, ts.URL); len(traces) != 0 {
		t.Fatalf("trace ring holds %d traces after 63 untraced requests, want 0", len(traces))
	}
	query(63, false)
	if traces := debugTraces(t, ts.URL); len(traces) != 1 {
		t.Fatalf("trace ring holds %d traces after the 64th request, want 1", len(traces))
	}
	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest("GET", fmt.Sprintf("%s/query?doc=catalog&q=count(//product)&trace=1", ts.URL), nil)
		req.Header.Set(obs.HeaderRequestID, fmt.Sprintf("traced-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	traces := debugTraces(t, ts.URL)
	if len(traces) != 4 {
		t.Fatalf("trace ring holds %d traces, want 4 (one sampled, three asked for)", len(traces))
	}
	for i, tr := range traces[:3] {
		if want := fmt.Sprintf("traced-%d", 2-i); tr.RequestID != want {
			t.Fatalf("trace %d has request id %q, want %q (newest first)", i, tr.RequestID, want)
		}
	}
	if traces[3].RequestID == "" {
		t.Fatal("sampled trace has no request id")
	}
}

// TestRequestIDBounded: a client's X-Request-Id is adopted only when it
// is 1–64 bytes of [0-9A-Za-z._:-]. Anything else — here 512 KiB, or a
// short ID with a space — is replaced by a minted ID everywhere the ID
// goes: the response header and every /batch line, so a /batch
// response's size no longer scales with header size × job count.
func TestRequestIDBounded(t *testing.T) {
	_, ts := testServer(t)
	queries := make([]string, 50)
	for i := range queries {
		queries[i] = fmt.Sprintf("count(//product) + %d", i)
	}
	body, _ := json.Marshal(BatchRequest{Doc: "catalog", Queries: queries})
	for _, sent := range []string{strings.Repeat("x", 512<<10), "two words", strings.Repeat("a", 65)} {
		req, _ := http.NewRequest("POST", ts.URL+"/batch", bytes.NewReader(body))
		req.Header.Set(obs.HeaderRequestID, sent)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		id := resp.Header.Get(obs.HeaderRequestID)
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if id == sent || len(id) != 16 {
			t.Fatalf("sent a %d-byte id, response carries a %d-byte one; want a minted 16-byte id", len(sent), len(id))
		}
		if n := bytes.Count(raw, []byte(`"request_id":"`+id+`"`)); n != len(queries) {
			t.Fatalf("%d of %d batch lines carry the minted id", n, len(queries))
		}
		if len(raw) > 64<<10 {
			t.Fatalf("a %d-query batch answered %d bytes", len(queries), len(raw))
		}
	}
	ok := strings.Repeat("a", 60) + ".:_-"
	req, _ := http.NewRequest("GET", ts.URL+"/query?doc=catalog&q=count(//product)", nil)
	req.Header.Set(obs.HeaderRequestID, ok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.HeaderRequestID); got != ok {
		t.Fatalf("64-byte id %q came back as %q", ok, got)
	}
}

// TestCacheRejectsAgree: /stats cache.rejects and the
// xpath_compile_cache_rejects_total counter read the same number.
func TestCacheRejectsAgree(t *testing.T) {
	_, ts := testServer(t)
	for _, q := range []string{"count(//product)", "count(//product)", "count(//product)", "sum(//price)", "count(//name)"} {
		if resp, out := getJSON(t, ts.URL+"/query?doc=catalog&q="+q); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %v", q, resp.StatusCode, out)
		}
	}
	_, out := getJSON(t, ts.URL+"/stats")
	rejects := out["cache"].(map[string]any)["rejects"].(float64)
	if rejects != 3 {
		t.Fatalf("/stats cache.rejects = %v, want 3 (one per distinct text)", rejects)
	}
	if m := scrape(t, ts.URL); m["xpath_compile_cache_rejects_total"] != rejects {
		t.Fatalf("xpath_compile_cache_rejects_total = %v, /stats cache.rejects = %v", m["xpath_compile_cache_rejects_total"], rejects)
	}
}
