package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
	"repro/internal/store"
)

// countBatchStreams wraps each backend's handler to count the /batch
// streams it is asked to open; the returned func reads the total.
func countBatchStreams(backends ...*backend) func() int {
	var n atomic.Int64
	for _, b := range backends {
		inner := b.srv.Handler()
		b.ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/batch" {
				n.Add(1)
			}
			inner.ServeHTTP(w, r)
		})
	}
	return func() int { return int(n.Load()) }
}

// batchLines posts a /batch body under rawPost's fixed request ID and
// returns its lines, newlines kept, in index order.
func batchLines(t *testing.T, base, body string) []string {
	t.Helper()
	resp, raw := rawPost(t, base+"/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch %s: status %d: %s", body, resp.StatusCode, raw)
	}
	byIndex := map[int]string{}
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		env, ok := serve.ScanEnvelope(line)
		if !ok || env.IndexEnd == 0 {
			t.Fatalf("batch %s: line not in the wire layout: %s", body, line)
		}
		byIndex[env.Index] = string(line)
	}
	lines := make([]string, 0, len(byIndex))
	for i := 0; i < len(byIndex); i++ {
		line, ok := byIndex[i]
		if !ok {
			t.Fatalf("batch %s: no line for job %d:\n%s", body, i, raw)
		}
		lines = append(lines, line)
	}
	return lines
}

// TestBatchThroughAnswerCache: /batch reads and fills the answer cache
// /query does. A job the cache holds is answered without a backend
// stream, with the very bytes a relay of the backend's line would have
// sent; a relayed value line fills the entry a later /query hits;
// error, missing, drained and versionless lines never fill it; a
// re-registration between two batches is seen; and a router without a
// cache sends every job to a backend.
func TestBatchThroughAnswerCache(t *testing.T) {
	_, ts, backends := newCluster(t, 2, Options{}, store.Config{})
	streams := countBatchStreams(backends...)
	// The same backends behind a router without a cache: what a relay
	// sends when nothing is cached.
	plain, err := New([]*Node{backends[0].node, backends[1].node}, Options{AnswerCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(plain.Handler())
	t.Cleanup(pts.Close)
	owned := namesOwnedBy(2, 1)
	docA, docB := owned[0][0], owned[1][0]
	for _, doc := range []string{docA, docB} {
		if resp, out := postJSON(t, ts.URL+"/documents", map[string]string{"name": doc, "xml": "<a><b/><b/></a>"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: %d %v", doc, resp.StatusCode, out)
		}
	}
	queries := []string{"1 = 1", "count(//b)"}
	batch := fmt.Sprintf(`{"docs":[%q,%q],"queries":["1 = 1","count(//b)"]}`, docA, docB)

	// (a) /query fills what a /batch of the same pairs is served from.
	for _, doc := range []string{docA, docB} {
		for _, q := range queries {
			if resp, raw := rawPost(t, ts.URL+"/query", fmt.Sprintf(`{"doc":%q,"query":%q}`, doc, q)); resp.StatusCode != http.StatusOK {
				t.Fatalf("query %s on %s: %d %s", q, doc, resp.StatusCode, raw)
			}
		}
	}
	before := streams()
	hit := batchLines(t, ts.URL, batch)
	if opened := streams() - before; opened != 0 {
		t.Fatalf("a batch the cache answers whole opened %d backend streams", opened)
	}
	relayed := batchLines(t, pts.URL, batch)
	for i := range relayed {
		if hit[i] != relayed[i] {
			t.Fatalf("job %d: cached line\n%s\nthe relayed line\n%s", i, hit[i], relayed[i])
		}
	}

	// (b) A batch line fills the cache: the same jobs again open no
	// stream, and /query hits with the bytes a miss sends.
	fill := fmt.Sprintf(`{"docs":[%q,%q],"queries":["count(//a)"]}`, docA, docB)
	before = streams()
	batchLines(t, ts.URL, fill)
	batchLines(t, ts.URL, fill)
	if opened := streams() - before; opened != 2 {
		t.Fatalf("two batches of the same jobs opened %d backend streams, want 2 (one per node, once)", opened)
	}
	query := fmt.Sprintf(`{"doc":%q,"query":"count(//a)"}`, docB)
	resp, cached := rawPost(t, ts.URL+"/query", query)
	if resp.Header.Get("X-Router-Cache") != "hit" {
		t.Fatal("a /query after a batch of the same job missed the cache")
	}
	if _, miss := rawPost(t, pts.URL+"/query", query); !bytes.Equal(cached, miss) {
		t.Fatalf("filled from a batch line\n%s\na miss sends\n%s", cached, miss)
	}

	// (c) Lines that must not fill the cache: an error line (which does
	// carry a version) and a missing one open a stream every time.
	for _, body := range []string{
		fmt.Sprintf(`{"doc":%q,"queries":["//["]}`, docA),
		`{"doc":"nowhere","queries":["count(//b)"]}`,
	} {
		before = streams()
		first := batchLines(t, ts.URL, body)
		batchLines(t, ts.URL, body)
		if opened := streams() - before; opened != 2 || !strings.Contains(first[0], `"error":`) {
			t.Fatalf("%s: two batches opened %d streams, want 2; line %s", body, opened, first[0])
		}
	}
	// ... a versionless value line ...
	var served atomic.Int64
	versionless := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"index":0,"doc":"d","query":"q","fragment":"f","strategy":"s","value":{"kind":"number","string":"1","number":1}}`+"\n")
	})
	vr, err := New([]*Node{versionless}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vts := httptest.NewServer(vr.Handler())
	t.Cleanup(vts.Close)
	batchLines(t, vts.URL, `{"doc":"d","queries":["q"]}`)
	batchLines(t, vts.URL, `{"doc":"d","queries":["q"]}`)
	if n := served.Load(); n != 2 {
		t.Fatalf("versionless peer asked %d times for two batches, want 2", n)
	}
	// ... and a line the drain ring answered.
	oldB, newB := newBackend(t, store.Config{}), newBackend(t, store.Config{})
	if _, _, err := oldB.srv.AddDocument("legacy", "<a><b/></a>"); err != nil {
		t.Fatal(err)
	}
	drainStreams := countBatchStreams(oldB)
	dr, err := New([]*Node{newB.node}, Options{Generation: 2, DrainPeers: []*Node{oldB.node}})
	if err != nil {
		t.Fatal(err)
	}
	dts := httptest.NewServer(dr.Handler())
	t.Cleanup(dts.Close)
	for i := 0; i < 2; i++ {
		if line := batchLines(t, dts.URL, `{"doc":"legacy","queries":["count(//b)"]}`)[0]; !strings.Contains(line, `"drained":true`) {
			t.Fatalf("legacy line not drained: %s", line)
		}
	}
	if n := drainStreams(); n != 2 {
		t.Fatalf("the drain ring served %d streams for two batches, want 2", n)
	}

	// (d) A re-registration between two batches: the second sees it.
	one := fmt.Sprintf(`{"doc":%q,"queries":["count(//b)"]}`, docA)
	if line := batchLines(t, ts.URL, one)[0]; !strings.Contains(line, `"number":2`) {
		t.Fatalf("before the re-registration: %s", line)
	}
	if resp, out := postJSON(t, ts.URL+"/documents", map[string]string{"name": docA, "xml": "<a><b/><b/><b/></a>"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register: %d %v", resp.StatusCode, out)
	}
	if line := batchLines(t, ts.URL, one)[0]; !strings.Contains(line, `"number":3`) {
		t.Fatalf("after the re-registration: %s", line)
	}

	// (e) Without a cache every job goes to a backend.
	before = streams()
	batchLines(t, pts.URL, one)
	batchLines(t, pts.URL, one)
	if opened := streams() - before; opened != 2 {
		t.Fatalf("two batches through a router without a cache opened %d streams, want 2", opened)
	}
}

// TestBatchHitsCountInStats: /stats counts a batch's lookups with the
// /query ones, a hit or a miss per job.
func TestBatchHitsCountInStats(t *testing.T) {
	_, ts, _ := newCluster(t, 2, Options{}, store.Config{})
	doc := namesOwnedBy(2, 1)[0][0]
	if resp, out := postJSON(t, ts.URL+"/documents", map[string]string{"name": doc, "xml": "<a/>"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %v", resp.StatusCode, out)
	}
	counts := func() (hits, misses float64) {
		_, stats := getJSON(t, ts.URL+"/stats")
		c := stats["router"].(map[string]any)["answer_cache"].(map[string]any)
		return c["hits"].(float64), c["misses"].(float64)
	}
	body := fmt.Sprintf(`{"doc":%q,"queries":["1","2","3"]}`, doc)
	batchLines(t, ts.URL, body)
	if hits, misses := counts(); hits != 0 || misses != 3 {
		t.Fatalf("after a cold batch of 3: hits %v, misses %v", hits, misses)
	}
	batchLines(t, ts.URL, body)
	if hits, misses := counts(); hits != 3 || misses != 3 {
		t.Fatalf("after the same batch again: hits %v, misses %v", hits, misses)
	}
}

// TestBatchJobBound: a routed /batch whose documents × queries exceed
// serve.MaxBatchJobs — 1 000 × 100 (ten times the bound) and 1 000 ×
// 1 000 — is refused with 413 before a job exists and opens no backend
// stream; a batch of exactly the bound streams one line per job.
func TestBatchJobBound(t *testing.T) {
	_, ts, backends := newCluster(t, 2, Options{}, store.Config{})
	streams := countBatchStreams(backends...)
	owned := namesOwnedBy(2, 1)
	docs := []string{owned[0][0], owned[1][0]}
	for _, name := range docs {
		if resp, out := postJSON(t, ts.URL+"/documents", map[string]string{"name": name, "xml": "<a/>"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: %d %v", name, resp.StatusCode, out)
		}
	}
	numbered := func(n int, format string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf(format, i)
		}
		return out
	}
	batch := func(docs, queries []string) string {
		body, err := json.Marshal(map[string]any{"docs": docs, "queries": queries})
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	for _, queries := range []int{100, 1000} {
		resp, raw := rawPost(t, ts.URL+"/batch", batch(numbered(1000, "doc-%d"), numbered(queries, "%d")))
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(raw), serve.ErrBatchTooLarge.Error()) {
			t.Errorf("1000 documents × %d queries: status %d: %s; want 413 %q", queries, resp.StatusCode, raw, serve.ErrBatchTooLarge)
		}
	}
	if n := streams(); n != 0 {
		t.Fatalf("refused batches opened %d backend streams, want 0", n)
	}
	if lines := batchLines(t, ts.URL, batch(docs, numbered(serve.MaxBatchJobs/2, "%d"))); len(lines) != serve.MaxBatchJobs {
		t.Fatalf("batch at the bound: %d lines, want %d", len(lines), serve.MaxBatchJobs)
	}
}
