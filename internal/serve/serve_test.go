package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/workload"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(engine.New(engine.Options{CacheSize: 64, Workers: 4}), store.Config{})
	if _, _, err := srv.AddDocument("catalog", workload.Catalog(12).XMLString()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, out := getJSON(t, ts.URL+"/query?doc=catalog&q=count(//product)")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, out)
	}
	val := out["value"].(map[string]any)
	if val["number"] != 12.0 {
		t.Fatalf("count(//product) = %v, want 12", val["number"])
	}
	if out["strategy"] != "optmincontext" && out["strategy"] != "corexpath" && out["strategy"] != "xpatterns" {
		t.Fatalf("strategy = %v", out["strategy"])
	}

	resp, out = postJSON(t, ts.URL+"/query", map[string]any{"doc": "catalog", "query": "//product[child::discontinued]/child::name"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, out)
	}
	val = out["value"].(map[string]any)
	if val["kind"] != "node-set" {
		t.Fatalf("kind = %v, want node-set", val["kind"])
	}
	if _, ok := val["count"]; !ok {
		t.Fatalf("node-set value missing count: %v", val)
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := testServer(t)
	resp, _ := getJSON(t, ts.URL+"/query?doc=nope&q=//a")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown doc status = %d, want 404", resp.StatusCode)
	}
	resp, out := getJSON(t, ts.URL+"/query?doc=catalog&q=//[")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad query status = %d, want 422", resp.StatusCode)
	}
	if out["error"] == "" {
		t.Fatal("bad query returned no error message")
	}
	resp, _ = getJSON(t, ts.URL+"/query?doc=catalog")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing q status = %d, want 400", resp.StatusCode)
	}
}

// TestInternalErrorIs500: an evaluation that ended in a recovered panic
// is answered like any failed query — a JSON body with the error — but
// under 500, the status a router counts against the peer's breaker and
// relays without trying the same query on the replicas.
func TestInternalErrorIs500(t *testing.T) {
	srv, _ := testServer(t)
	sess, _ := srv.Session("catalog")
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/query", nil)
	res := engine.Result{Query: "//x", Err: fmt.Errorf("%w: boom", engine.ErrInternal)}
	srv.writeAnswer(rec, req, sess, 1, &res)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("body %q: %v", rec.Body.String(), err)
	}
	if msg, _ := out["error"].(string); rec.Code != http.StatusInternalServerError || !strings.Contains(msg, "boom") {
		t.Fatalf("status = %d, body %v; want 500 carrying the error", rec.Code, out)
	}
}

func TestDocumentsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, out := postJSON(t, ts.URL+"/documents", DocumentRequest{Name: "mini", XML: "<a><b/><b/></a>"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, out)
	}
	_, out = getJSON(t, ts.URL+"/query?doc=mini&q=count(//b)")
	if val := out["value"].(map[string]any); val["number"] != 2.0 {
		t.Fatalf("count(//b) = %v, want 2", val["number"])
	}
	resp, _ = postJSON(t, ts.URL+"/documents", DocumentRequest{Name: "bad", XML: "<a>"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed XML status = %d, want 400", resp.StatusCode)
	}

	// GET lists both documents; DELETE evicts one.
	resp, out = getJSON(t, ts.URL+"/documents")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	if docs := out["documents"].([]any); len(docs) != 2 {
		t.Fatalf("listed %d documents, want 2: %v", len(docs), docs)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/documents?name=mini", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", dresp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/query?doc=mini&q=count(//b)"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted document still served: %d", resp.StatusCode)
	}
}

// readBatchLines consumes a streaming /batch response body.
func readBatchLines(t *testing.T, resp *http.Response) []map[string]any {
	t.Helper()
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad batch line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := testServer(t)
	queries := []string{"count(//product)", "//[", "sum(//price) > 0"}
	buf, _ := json.Marshal(BatchRequest{Doc: "catalog", Queries: queries})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := readBatchLines(t, resp)
	if len(lines) != 3 {
		t.Fatalf("got %d result lines, want 3", len(lines))
	}
	// Results arrive in completion order; reassemble by index.
	byIndex := make([]map[string]any, 3)
	for _, line := range lines {
		i := int(line["index"].(float64))
		if byIndex[i] != nil {
			t.Fatalf("index %d emitted twice", i)
		}
		byIndex[i] = line
	}
	for i, line := range byIndex {
		if line == nil {
			t.Fatalf("index %d missing from stream", i)
		}
		if line["query"] != queries[i] {
			t.Fatalf("index %d is for %v, want %q", i, line["query"], queries[i])
		}
	}
	if errMsg, ok := byIndex[1]["error"]; !ok || errMsg == "" {
		t.Fatal("invalid query in batch carried no error")
	}
	if val := byIndex[2]["value"].(map[string]any); val["boolean"] != true {
		t.Fatalf("sum(//price) > 0 = %v, want true", val["boolean"])
	}
}

// slowBatchQuery takes >10s on slowBatchDoc under every polynomial
// engine (the predicate forces an O(|D|²) tabulation), while carrying
// cancellation checkpoints throughout — the workload for the streaming
// and cancellation tests.
const slowBatchQuery = "count(//*[count(preceding::*) > count(following::*)])"

func slowBatchDoc() string {
	return workload.Doc(10000).XMLString()
}

// TestBatchStreamsBeforeCompletion is the streaming acceptance test:
// with one worker stuck on a slow query, the fast query's result line
// must arrive on the wire while the slow one is still evaluating —
// i.e. /batch no longer buffers the whole batch. It then disconnects
// the client and verifies the in-flight evaluation is cancelled.
func TestBatchStreamsBeforeCompletion(t *testing.T) {
	srv := New(engine.New(engine.Options{CacheSize: 16, Workers: 2}), store.Config{})
	if _, _, err := srv.AddDocument("big", slowBatchDoc()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Slow query first: the unbuffered dispatch channel guarantees a
	// worker has accepted it before the fast query is even handed out.
	buf, _ := json.Marshal(BatchRequest{Doc: "big", Queries: []string{slowBatchQuery, "1 = 1"}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/batch", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading first streamed line: %v", err)
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(line), &first); err != nil {
		t.Fatalf("first line %q: %v", line, err)
	}
	if first["index"].(float64) != 1 {
		t.Fatalf("first streamed line is index %v, want 1 (the fast query)", first["index"])
	}
	// The slow query must still be evaluating: the first result was on
	// the wire before the batch finished. Poll briefly — on a 1-CPU box
	// the slow query's worker may have accepted its index but not yet
	// reached the in-flight increment when the fast line lands.
	inFlightSeen := false
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if srv.eng.Stats().InFlight >= 1 {
			inFlightSeen = true
			break
		}
	}
	if !inFlightSeen {
		t.Fatal("slow query never observed in flight after first line (batch completed before streaming)")
	}

	// Disconnect. The request context propagates to the evaluator's
	// cancellation checkpoints, so in-flight work must drain promptly —
	// far faster than the query could possibly finish.
	cancel()
	deadline := time.Now().Add(10 * time.Second)
	for srv.eng.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight evaluation survived disconnect: %+v", srv.eng.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	for i := 0; i < 3; i++ {
		getJSON(t, ts.URL+"/query?doc=catalog&q=count(//product)")
	}
	_, out := getJSON(t, ts.URL+"/stats")
	cache := out["cache"].(map[string]any)
	// Each served query counts exactly one cache event: 1 miss then 2
	// hits. Annotating fragment/strategy must not re-consult the cache.
	if cache["misses"].(float64) != 1 || cache["hits"].(float64) != 2 {
		t.Fatalf("cache stats = %v, want exactly 1 miss and 2 hits", cache)
	}
	if rate := cache["hit_rate"].(float64); rate != 2.0/3.0 {
		t.Fatalf("hit_rate = %v, want 2/3", rate)
	}
	if saved := cache["compile_ns_saved"].(float64); saved <= 0 {
		t.Fatalf("compile_ns_saved = %v, want > 0 after two hits", saved)
	}
	docs := out["documents"].(map[string]any)
	if _, ok := docs["catalog"]; !ok {
		t.Fatalf("documents = %v, want catalog", docs)
	}
	st := out["store"].(map[string]any)
	if st["entries"].(float64) != 1 {
		t.Fatalf("store stats = %v, want 1 entry", st)
	}
	if _, ok := out["fallbacks"]; !ok {
		t.Fatal("stats missing fallbacks counter")
	}
}

// TestFallbackOverHTTP drives the auto-fallback end to end: a bottomup
// engine with a tiny table budget serves a position-dependent query,
// and the response must carry the MinContext-rescued value instead of
// an error, flagged as a fallback, with /stats counting it.
func TestFallbackOverHTTP(t *testing.T) {
	srv := New(engine.New(engine.Options{
		Strategy: core.BottomUp, MaxTableRows: 8, Fallback: true,
	}), store.Config{})
	if _, _, err := srv.AddDocument("catalog", workload.Catalog(30).XMLString()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, out := postJSON(t, ts.URL+"/query", QueryRequest{Doc: "catalog", Query: "count(//product[position() = last()])"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v (fallback did not rescue)", resp.StatusCode, out)
	}
	if out["fallback"] != true || out["strategy"] != "mincontext" {
		t.Fatalf("response = %v, want fallback=true strategy=mincontext", out)
	}
	if val := out["value"].(map[string]any); val["number"] != 1.0 {
		t.Fatalf("value = %v, want 1", val)
	}
	_, stats := getJSON(t, ts.URL+"/stats")
	if stats["fallbacks"].(float64) != 1 {
		t.Fatalf("stats fallbacks = %v, want 1", stats["fallbacks"])
	}
}

// TestDocumentShardSpread is the acceptance check that the server
// routes exclusively through the sharded store: a population of
// documents must land on every configured shard.
func TestDocumentShardSpread(t *testing.T) {
	srv := New(engine.New(engine.Options{}), store.Config{Shards: 4, MaxEntries: 64})
	for i := 0; i < 32; i++ {
		if _, _, err := srv.AddDocument(fmt.Sprintf("doc-%d", i), "<a><b/></a>"); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.docs.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("got %d shards, want 4", len(st.Shards))
	}
	for i, ss := range st.Shards {
		if ss.Entries == 0 {
			t.Fatalf("shard %d holds no documents: %+v", i, st.Shards)
		}
	}
	if st.Entries != 32 {
		t.Fatalf("entries = %d, want 32", st.Entries)
	}
}

func TestBodySizeLimit(t *testing.T) {
	srv := New(engine.New(engine.Options{}), store.Config{})
	srv.maxBody = 256
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	big := DocumentRequest{Name: "big", XML: "<a>" + strings.Repeat("x", 4096) + "</a>"}
	resp, out := postJSON(t, ts.URL+"/documents", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, body %v, want 413", resp.StatusCode, out)
	}
	if _, _, err := srv.AddDocument("small", "<a><b/></a>"); err != nil {
		t.Fatal(err)
	}
	if resp, _ := getJSON(t, ts.URL+"/query?doc=small&q=count(//b)"); resp.StatusCode != http.StatusOK {
		t.Fatalf("server unusable after oversized request: %d", resp.StatusCode)
	}
}

// TestDocumentLimit checks the retained-document cap: new names past
// the cap are rejected with 507, replacements always go through.
func TestDocumentLimit(t *testing.T) {
	srv := New(engine.New(engine.Options{}), store.Config{MaxEntries: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for _, name := range []string{"one", "two"} {
		if resp, out := postJSON(t, ts.URL+"/documents", DocumentRequest{Name: name, XML: "<a/>"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: %d %v", name, resp.StatusCode, out)
		}
	}
	resp, out := postJSON(t, ts.URL+"/documents", DocumentRequest{Name: "three", XML: "<a/>"})
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("over-cap status = %d, body %v, want 507", resp.StatusCode, out)
	}
	if resp, out := postJSON(t, ts.URL+"/documents", DocumentRequest{Name: "two", XML: "<a><b/></a>"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("replacement at cap: %d %v", resp.StatusCode, out)
	}
}

// TestResponseTruncation checks that huge string values are clipped in
// responses (flagged via "truncated") rather than buffered whole.
func TestResponseTruncation(t *testing.T) {
	srv := New(engine.New(engine.Options{}), store.Config{})
	text := strings.Repeat("é", 40<<10) // 80KB of 2-byte runes > maxStringBytes
	if _, _, err := srv.AddDocument("big", "<a><b>"+text+"</b></a>"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	_, out := getJSON(t, ts.URL+"/query?doc=big&q=//b")
	val := out["value"].(map[string]any)
	node := val["nodes"].([]any)[0].(map[string]any)
	if node["truncated"] != true {
		t.Fatalf("node = %v, want truncated", node)
	}
	got := node["value"].(string)
	if len(got) > maxStringBytes || !utf8.ValidString(got) {
		t.Fatalf("clipped value: %d bytes, valid UTF-8 %v", len(got), utf8.ValidString(got))
	}
}

// TestServerConcurrentTraffic exercises the full HTTP path from many
// goroutines while documents are being replaced, under -race.
func TestServerConcurrentTraffic(t *testing.T) {
	srv, ts := testServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch (g + i) % 3 {
				case 0:
					resp, out := getJSON(t, ts.URL+"/query?doc=catalog&q=count(//product)")
					if resp.StatusCode != http.StatusOK {
						t.Errorf("query status %d: %v", resp.StatusCode, out)
						return
					}
				case 1:
					buf, _ := json.Marshal(BatchRequest{
						Doc:     "catalog",
						Queries: []string{"count(//product)", "sum(//price)"},
					})
					resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
					if err != nil {
						t.Error(err)
						return
					}
					readBatchLines(t, resp)
					resp.Body.Close()
				default:
					postJSON(t, ts.URL+"/documents", DocumentRequest{
						Name: "catalog", XML: workload.Catalog(12).XMLString(),
					})
				}
			}
		}(g)
	}
	wg.Wait()
	if st := srv.eng.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight leaked: %+v", st)
	}
}

// TestDocumentGetSingle pins down the single-document fetch that the
// cluster remote store reads through: GET /documents?name= returns the
// serialized XML, and re-registering that XML yields an equivalent
// document.
func TestDocumentGetSingle(t *testing.T) {
	srv, ts := testServer(t)
	resp, out := getJSON(t, ts.URL+"/documents?name=catalog")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, out)
	}
	xml, _ := out["xml"].(string)
	if xml == "" {
		t.Fatalf("single-document fetch carried no xml: %v", out)
	}
	if out["name"] != "catalog" {
		t.Fatalf("name = %v, want catalog", out["name"])
	}
	if _, ok := out["idle_ms"]; !ok {
		t.Fatalf("single-document fetch missing idle_ms: %v", out)
	}
	// The serialized form must round-trip to a document with the same
	// node count the server reports.
	n, _, err := srv.AddDocument("copy", xml)
	if err != nil {
		t.Fatalf("re-registering served xml: %v", err)
	}
	if want := int(out["nodes"].(float64)); n != want {
		t.Fatalf("round-tripped document has %d nodes, want %d", n, want)
	}
	resp, _ = getJSON(t, ts.URL+"/documents?name=nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown name status = %d, want 404", resp.StatusCode)
	}
}

// TestHealthz pins down the router's liveness probe.
func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, out := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || out["ok"] != true {
		t.Fatalf("healthz = %d %v", resp.StatusCode, out)
	}
	if out["documents"].(float64) != 1 {
		t.Fatalf("healthz documents = %v, want 1", out["documents"])
	}
}

// TestDocumentListIdle checks that GET /documents surfaces the idle
// signal and that querying a document resets it.
func TestDocumentListIdle(t *testing.T) {
	_, ts := testServer(t)
	time.Sleep(30 * time.Millisecond)
	getJSON(t, ts.URL+"/query?doc=catalog&q=count(//product)")
	_, out := getJSON(t, ts.URL+"/documents")
	docs := out["documents"].([]any)
	if len(docs) != 1 {
		t.Fatalf("listed %d documents, want 1", len(docs))
	}
	entry := docs[0].(map[string]any)
	idle, ok := entry["idle_ms"].(float64)
	if !ok {
		t.Fatalf("listing missing idle_ms: %v", entry)
	}
	if idle > 25 {
		t.Fatalf("idle_ms = %v right after a query, want < 25", idle)
	}
}

// TestEvictIdle drives the -maxidle policy: documents older than the
// window go, recently queried ones stay, and a queried-again document
// is spared on the next sweep.
func TestEvictIdle(t *testing.T) {
	srv, ts := testServer(t)
	if _, _, err := srv.AddDocument("cold", "<a><b/></a>"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	// Touch only catalog; cold has been idle since registration.
	getJSON(t, ts.URL+"/query?doc=catalog&q=count(//product)")
	evicted := srv.EvictIdle(30 * time.Millisecond)
	if len(evicted) != 1 || evicted[0] != "cold" {
		t.Fatalf("EvictIdle = %v, want [cold]", evicted)
	}
	if resp, _ := getJSON(t, ts.URL+"/query?doc=cold&q=count(//b)"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted document still served: %d", resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/query?doc=catalog&q=count(//product)"); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh document was evicted: %d", resp.StatusCode)
	}
	if evicted := srv.EvictIdle(time.Hour); evicted != nil {
		t.Fatalf("EvictIdle(1h) evicted %v, want nothing", evicted)
	}
}

// TestDocumentVersions pins the version surfaces: registration
// returns a version, replacement bumps it, listings and /query carry
// it, an explicit-version mirror write stores at that version, and a
// stale mirror write is skipped.
func TestDocumentVersions(t *testing.T) {
	_, ts := testServer(t)
	resp, out := postJSON(t, ts.URL+"/documents", DocumentRequest{Name: "v", XML: "<a><b/></a>"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %v", resp.StatusCode, out)
	}
	v1, ok := out["version"].(float64)
	if !ok || v1 <= 0 {
		t.Fatalf("registration version = %v, want > 0", out["version"])
	}
	_, out = postJSON(t, ts.URL+"/documents", DocumentRequest{Name: "v", XML: "<a><b/><b/></a>"})
	v2 := out["version"].(float64)
	if v2 <= v1 {
		t.Fatalf("replacement version %v not above %v", v2, v1)
	}
	// /query carries the served document's version.
	_, out = getJSON(t, ts.URL+"/query?doc=v&q=count(//b)")
	if out["version"].(float64) != v2 {
		t.Fatalf("query version = %v, want %v", out["version"], v2)
	}
	// Listings and the single-document fetch carry it too.
	_, out = getJSON(t, ts.URL+"/documents?name=v")
	if out["version"].(float64) != v2 {
		t.Fatalf("single fetch version = %v, want %v", out["version"], v2)
	}
	_, out = getJSON(t, ts.URL+"/documents")
	for _, d := range out["documents"].([]any) {
		entry := d.(map[string]any)
		if entry["name"] == "v" && entry["version"].(float64) != v2 {
			t.Fatalf("listing version = %v, want %v", entry["version"], v2)
		}
	}
	// /stats surfaces per-document versions.
	_, stats := getJSON(t, ts.URL+"/stats")
	doc := stats["documents"].(map[string]any)["v"].(map[string]any)
	if doc["version"].(float64) != v2 {
		t.Fatalf("stats version = %v, want %v", doc["version"], v2)
	}

	// A mirror write at an explicit higher version sticks at exactly
	// that version (the replication/reshard write path)...
	mirror := v2 + 100
	_, out = postJSON(t, ts.URL+"/documents", DocumentRequest{Name: "v", XML: "<a><b/><b/><b/></a>", Version: uint64(mirror)})
	if out["version"].(float64) != mirror {
		t.Fatalf("mirror write version = %v, want %v", out["version"], mirror)
	}
	// ...and a stale mirror write is skipped: the resident version and
	// content win.
	_, out = postJSON(t, ts.URL+"/documents", DocumentRequest{Name: "v", XML: "<a/>", Version: uint64(v2)})
	if out["version"].(float64) != mirror {
		t.Fatalf("stale mirror write resulted in version %v, want resident %v", out["version"], mirror)
	}
	_, out = getJSON(t, ts.URL+"/query?doc=v&q=count(//b)")
	if out["value"].(map[string]any)["number"] != 3.0 {
		t.Fatalf("stale mirror write replaced the document: %v", out["value"])
	}
}

// TestJobsBatch drives the grouped /batch form: jobs spanning several
// documents in one stream, each line tagged with its global index and
// document, with an absent document degrading to per-job "missing"
// error lines instead of failing the request.
func TestJobsBatch(t *testing.T) {
	srv, ts := testServer(t)
	if _, _, err := srv.AddDocument("mini", "<a><b/><b/></a>"); err != nil {
		t.Fatal(err)
	}
	jobs := []BatchJob{
		{Doc: "catalog", Query: "count(//product)"},
		{Doc: "mini", Query: "count(//b)"},
		{Doc: "ghost", Query: "count(//b)"},
		{Doc: "mini", Query: "//["},
	}
	buf, _ := json.Marshal(BatchRequest{Jobs: jobs})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	lines := readBatchLines(t, resp)
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	byIndex := make([]map[string]any, 4)
	for _, line := range lines {
		i := int(line["index"].(float64))
		if byIndex[i] != nil {
			t.Fatalf("index %d emitted twice", i)
		}
		byIndex[i] = line
	}
	for i, line := range byIndex {
		if line == nil {
			t.Fatalf("index %d missing from stream", i)
		}
		if line["doc"] != jobs[i].Doc {
			t.Fatalf("index %d tagged doc %v, want %s", i, line["doc"], jobs[i].Doc)
		}
	}
	if val := byIndex[0]["value"].(map[string]any); val["number"] != 12.0 {
		t.Fatalf("catalog job = %v, want 12", val)
	}
	if val := byIndex[1]["value"].(map[string]any); val["number"] != 2.0 {
		t.Fatalf("mini job = %v, want 2", val)
	}
	if byIndex[2]["missing"] != true || byIndex[2]["error"] == "" {
		t.Fatalf("absent-doc job = %v, want missing error line", byIndex[2])
	}
	if msg, _ := byIndex[3]["error"].(string); msg == "" {
		t.Fatalf("invalid-query job carried no error: %v", byIndex[3])
	}
	if byIndex[3]["missing"] == true {
		t.Fatalf("invalid-query error wrongly flagged missing: %v", byIndex[3])
	}

	// Exactly one of doc+queries or jobs: both and neither are 400s.
	for _, body := range []BatchRequest{
		{},
		{Doc: "mini", Queries: []string{"//b"}, Jobs: jobs[:1]},
	} {
		buf, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed batch form = %d, want 400", resp.StatusCode)
		}
	}
}

// TestBatchLinesCarryVersion pins the regression the wiretag analyzer
// guards against: every streamed batch line must carry the document's
// version, in both the single-document and the grouped jobs form — a
// response without it would poison any (doc, query, version)-keyed
// cache sitting in front of the node. The unknown-document error line
// is the one deliberate exception: there is no version to carry, and
// "missing" marks the line uncacheable.
func TestBatchLinesCarryVersion(t *testing.T) {
	srv, ts := testServer(t)
	// Bump catalog to version 2 so a present-but-zero version field
	// cannot pass by accident.
	if _, _, err := srv.AddDocument("catalog", workload.Catalog(12).XMLString()); err != nil {
		t.Fatal(err)
	}

	buf, _ := json.Marshal(BatchRequest{Doc: "catalog", Queries: []string{"count(//product)", "//["}})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	lines := readBatchLines(t, resp)
	resp.Body.Close()
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for _, line := range lines {
		if v, ok := line["version"].(float64); !ok || v != 2 {
			t.Fatalf("single-doc batch line %v carries version %v, want 2", line["index"], line["version"])
		}
	}

	buf, _ = json.Marshal(BatchRequest{Jobs: []BatchJob{
		{Doc: "catalog", Query: "count(//product)"},
		{Doc: "ghost", Query: "count(//x)"},
	}})
	resp, err = http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	lines = readBatchLines(t, resp)
	resp.Body.Close()
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for _, line := range lines {
		switch line["doc"] {
		case "catalog":
			if v, ok := line["version"].(float64); !ok || v != 2 {
				t.Fatalf("jobs batch line for catalog carries version %v, want 2", line["version"])
			}
		case "ghost":
			if line["missing"] != true {
				t.Fatalf("unknown-document line not flagged missing: %v", line)
			}
			if _, ok := line["version"]; ok {
				t.Fatalf("unknown-document line carries a version: %v", line)
			}
		default:
			t.Fatalf("unexpected doc %v", line["doc"])
		}
	}
}
