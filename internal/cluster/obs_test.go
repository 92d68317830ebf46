package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// scrapeMetrics fetches base's /metrics and indexes samples by
// name{label=value,...}, verifying Prometheus text parseability.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
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

// logSink is a mutex-guarded slog destination; backend log lines land
// after the router's response reaches the client, so reads must not
// race the handler goroutines.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logSink) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logSink) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func waitForLog(t *testing.T, b *logSink, substr string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(b.String(), substr) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("log never contained %q; log so far:\n%s", substr, b.String())
}

// flattenSpans indexes a span tree by name.
func flattenSpans(spans []obs.SpanJSON, into map[string]obs.SpanJSON) {
	for _, s := range spans {
		into[s.Name] = s
		flattenSpans(s.Children, into)
	}
}

// TestRoutedTraceEndToEnd is the cross-tier acceptance path: one
// ?trace=1 query through the router returns a combined span tree —
// the router's forward span carrying the owning backend's own tree as
// its remote — under a single request ID that also shows up in the
// backend's slog output and moves the per-path counters on both tiers.
func TestRoutedTraceEndToEnd(t *testing.T) {
	_, ts, backends := newCluster(t, 2, Options{}, store.Config{})
	sink := &logSink{}
	for _, b := range backends {
		b.srv.SetLogger(slog.New(slog.NewTextHandler(sink, nil)))
	}
	const doc = "doc-0"
	owner := backends[KeyShard(doc, len(backends))]
	if resp, out := postJSON(t, ts.URL+"/documents", map[string]any{"name": doc, "xml": "<a><b/><b/></a>"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register = %d, body %v", resp.StatusCode, out)
	}

	before := scrapeMetrics(t, ts.URL)
	ownerBefore := scrapeMetrics(t, owner.ts.URL)

	resp, err := http.Get(ts.URL + "/query?doc=" + doc + "&q=count(//b)&trace=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	id := resp.Header.Get(obs.HeaderRequestID)
	if id == "" {
		t.Fatal("router minted no X-Request-Id")
	}
	var out struct {
		Node  string         `json:"node"`
		Trace *obs.TraceJSON `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("routed ?trace=1 returned no trace")
	}
	if out.Trace.RequestID != id {
		t.Fatalf("trace request_id = %q, response header id = %q", out.Trace.RequestID, id)
	}

	byName := map[string]obs.SpanJSON{}
	flattenSpans(out.Trace.Spans, byName)
	for _, want := range []string{"route", "forward"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("span %q missing from router trace", want)
		}
	}
	fwd := byName["forward"]
	if fwd.DurNs > byName["route"].DurNs || byName["route"].DurNs > out.Trace.TotalNs {
		t.Fatalf("span durations do not nest: forward=%d route=%d total=%d",
			fwd.DurNs, byName["route"].DurNs, out.Trace.TotalNs)
	}
	remote, ok := fwd.Remote.(map[string]any)
	if !ok {
		t.Fatalf("forward span carries no remote backend trace: %#v", fwd.Remote)
	}
	if remote["request_id"] != id {
		t.Fatalf("backend trace request_id = %v, want %q", remote["request_id"], id)
	}

	// The one ID correlates the backend's structured log...
	waitForLog(t, sink, "request_id="+id)

	// ...and the counters moved on both tiers: exactly one more routed
	// /query on the router, at least one on the owning backend (the
	// trace run bypasses the answer cache, so the backend saw it too).
	after := scrapeMetrics(t, ts.URL)
	ownerAfter := scrapeMetrics(t, owner.ts.URL)
	const routerKey = "router_http_requests_total{path=/query}"
	if d := after[routerKey] - before[routerKey]; d != 1 {
		t.Errorf("%s delta = %v, want 1", routerKey, d)
	}
	const backendKey = "xpath_http_requests_total{path=/query}"
	if d := ownerAfter[backendKey] - ownerBefore[backendKey]; d < 1 {
		t.Errorf("%s delta on owner = %v, want >= 1", backendKey, d)
	}
	if after["router_requests_total"] <= before["router_requests_total"] {
		t.Errorf("router_requests_total did not advance: %v -> %v",
			before["router_requests_total"], after["router_requests_total"])
	}
}

// TestRouterBatchRequestIDLines: a scattered batch stream tags every
// merged NDJSON line with the request's ID — whether the line came
// from a backend stream or was synthesized by the router.
func TestRouterBatchRequestIDLines(t *testing.T) {
	_, ts, _ := newCluster(t, 2, Options{}, store.Config{})
	for _, doc := range []string{"doc-0", "doc-1", "doc-2"} {
		if resp, out := postJSON(t, ts.URL+"/documents", map[string]any{"name": doc, "xml": "<a><b/></a>"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s = %d, body %v", doc, resp.StatusCode, out)
		}
	}
	body, _ := json.Marshal(map[string]any{
		"docs":    []string{"doc-0", "doc-1", "doc-2", "missing-doc"},
		"queries": []string{"count(//b)"},
	})
	req, _ := http.NewRequest("POST", ts.URL+"/batch", bytes.NewReader(body))
	req.Header.Set(obs.HeaderRequestID, "batch-ab12")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get(obs.HeaderRequestID); got != "batch-ab12" {
		t.Fatalf("batch response id = %q, want batch-ab12", got)
	}
	lines := readNDJSON(t, resp)
	if len(lines) != 4 {
		t.Fatalf("batch lines = %d, want 4", len(lines))
	}
	for _, line := range lines {
		if line["request_id"] != "batch-ab12" {
			t.Fatalf("line %v: request_id = %v, want batch-ab12", line["index"], line["request_id"])
		}
	}
}

// TestRouterRequestIDBounded: the router adopts a client's
// X-Request-Id only when it is 1–64 bytes of [0-9A-Za-z._:-]; a 512 KiB
// one is replaced by a minted ID, and that ID — not the client's — is
// what the backends receive and every merged batch line carries.
func TestRouterRequestIDBounded(t *testing.T) {
	_, ts, _ := newCluster(t, 2, Options{}, store.Config{})
	docs := []string{"doc-0", "doc-1", "doc-2"}
	for _, doc := range docs {
		if resp, out := postJSON(t, ts.URL+"/documents", map[string]any{"name": doc, "xml": "<a><b/></a>"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s = %d, body %v", doc, resp.StatusCode, out)
		}
	}
	queries := make([]string, 20)
	for i := range queries {
		queries[i] = fmt.Sprintf("count(//b) + %d", i)
	}
	body, _ := json.Marshal(map[string]any{"docs": docs, "queries": queries})
	sent := strings.Repeat("x", 512<<10)
	req, _ := http.NewRequest("POST", ts.URL+"/batch", bytes.NewReader(body))
	req.Header.Set(obs.HeaderRequestID, sent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	id := resp.Header.Get(obs.HeaderRequestID)
	if len(id) != 16 {
		t.Fatalf("router answered a %d-byte id, want a minted 16-byte one", len(id))
	}
	lines := readNDJSON(t, resp)
	if len(lines) != len(docs)*len(queries) {
		t.Fatalf("batch lines = %d, want %d", len(lines), len(docs)*len(queries))
	}
	for _, line := range lines {
		if line["request_id"] != id {
			t.Fatalf("line %v: request_id is not the minted id %q", line["index"], id)
		}
	}
}

// TestRouterHealthUptime: /health carries uptime and build info next
// to the ring description.
func TestRouterHealthUptime(t *testing.T) {
	_, ts, _ := newCluster(t, 2, Options{}, store.Config{})
	resp, out := getJSON(t, ts.URL+"/health")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health = %d", resp.StatusCode)
	}
	if _, ok := out["uptime_ms"].(float64); !ok {
		t.Fatalf("health uptime_ms missing: %v", out["uptime_ms"])
	}
	if _, ok := out["build"].(map[string]any); !ok {
		t.Fatalf("health build info missing: %v", out["build"])
	}
}

// TestTraceBypassesAnswerCache: a cached answer must not satisfy a
// ?trace=1 request (a stored body cannot carry this request's spans),
// and a trace run must not poison the cache for later plain queries.
func TestTraceBypassesAnswerCache(t *testing.T) {
	_, ts, _ := newCluster(t, 2, Options{AnswerCacheSize: 16}, store.Config{})
	if resp, out := postJSON(t, ts.URL+"/documents", map[string]any{"name": "doc-0", "xml": "<a><b/></a>"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register = %d, body %v", resp.StatusCode, out)
	}
	url := ts.URL + "/query?doc=doc-0&q=count(//b)"

	// Prime the cache, then confirm a traced request still gets a trace.
	getJSON(t, url)
	if _, out := getJSON(t, url+"&trace=1"); out["trace"] == nil {
		t.Fatal("traced request served from the answer cache (no trace attached)")
	}
	// A plain request after the trace run must not return a trace.
	if _, out := getJSON(t, url); out["trace"] != nil {
		t.Fatal("trace leaked into the answer cache")
	}
}
