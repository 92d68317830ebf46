package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/workload"
)

// newCluster boots n real xpathserve backends behind a router. The
// returned backends are in ring order (the router sorts peers into a
// canonical ring), so backends[i] is the peer KeyShard routes
// slot i to.
func newCluster(t *testing.T, n int, opts Options, cfg store.Config) (*Router, *httptest.Server, []*backend) {
	t.Helper()
	backends := make([]*backend, n)
	nodes := make([]*Node, n)
	for i := range backends {
		backends[i] = newBackend(t, cfg)
		nodes[i] = backends[i].node
	}
	router, err := New(nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	slot := map[string]int{}
	for i, n := range router.Ring().Peers() {
		slot[n.URL()] = i
	}
	sort.Slice(backends, func(i, j int) bool {
		return slot[backends[i].node.URL()] < slot[backends[j].node.URL()]
	})
	ts := httptest.NewServer(router.Handler())
	t.Cleanup(ts.Close)
	return router, ts, backends
}

// namesOwnedBy returns want document names per owner index under the
// cluster's partitioning function.
func namesOwnedBy(n, want int) [][]string {
	out := make([][]string, n)
	need := n * want
	for i := 0; need > 0; i++ {
		name := fmt.Sprintf("doc-%d", i)
		o := KeyShard(name, n)
		if len(out[o]) < want {
			out[o] = append(out[o], name)
			need--
		}
	}
	return out
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

// readNDJSON consumes a streamed response body line by line.
func readNDJSON(t *testing.T, resp *http.Response) []map[string]any {
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
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestRoutedQueryAndPlacement is the single-document acceptance path:
// documents registered through the router land on exactly their owning
// node, a routed /query answers from that node (tagged with it), and
// /stats aggregates the fleet.
func TestRoutedQueryAndPlacement(t *testing.T) {
	router, ts, backends := newCluster(t, 2, Options{}, store.Config{})
	owned := namesOwnedBy(2, 2)
	for _, names := range owned {
		for _, name := range names {
			resp, out := postJSON(t, ts.URL+"/documents", map[string]string{
				"name": name, "xml": "<a><b/><b/><b/></a>",
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("register %s: %d %v", name, resp.StatusCode, out)
			}
			if out["node"] != router.Owner(name).Name() {
				t.Fatalf("register %s answered by %v, want owner %s", name, out["node"], router.Owner(name).Name())
			}
		}
	}
	// Placement: each backend holds exactly its owned names.
	for i, b := range backends {
		for j, names := range owned {
			for _, name := range names {
				_, ok := b.srv.Session(name)
				if want := i == j; ok != want {
					t.Fatalf("backend %d holds %s = %v, want %v", i, name, ok, want)
				}
			}
		}
	}
	// Routed query, both GET and POST forms, tagged with the owner.
	for owner, names := range owned {
		name := names[0]
		resp, out := getJSON(t, ts.URL+"/query?doc="+name+"&q=count(//b)")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed query status = %d, body %v", resp.StatusCode, out)
		}
		if val := out["value"].(map[string]any); val["number"] != 3.0 {
			t.Fatalf("count(//b) over %s = %v, want 3", name, val["number"])
		}
		if out["node"] != backends[owner].node.Name() {
			t.Fatalf("query %s answered by %v, want %s", name, out["node"], backends[owner].node.Name())
		}
	}
	// Unknown document: typed 404 from the owner, relayed.
	if resp, _ := getJSON(t, ts.URL+"/query?doc=never-registered&q=count(//b)"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown doc status = %d, want 404", resp.StatusCode)
	}
	// Fleet stats: both nodes reporting, store totals summed.
	_, stats := getJSON(t, ts.URL+"/stats")
	if nodes := stats["nodes"].(map[string]any); len(nodes) != 2 {
		t.Fatalf("stats nodes = %v, want 2 entries", nodes)
	}
	if total := stats["store_total"].(map[string]any); total["entries"].(float64) != 4 {
		t.Fatalf("store_total = %v, want 4 entries", total)
	}
	// Merged listing: all 4 documents, each tagged with its node.
	_, listing := getJSON(t, ts.URL+"/documents")
	docs := listing["documents"].([]any)
	if len(docs) != 4 {
		t.Fatalf("merged listing has %d documents, want 4", len(docs))
	}
	for _, d := range docs {
		entry := d.(map[string]any)
		if entry["node"] != router.Owner(entry["name"].(string)).Name() {
			t.Fatalf("listing entry %v not tagged with its owner", entry)
		}
	}
}

// TestScatterGatherBatch fans one batch across both nodes and checks
// the merged NDJSON stream: exactly one line per global job index
// (doc-major), every line tagged with its doc and owning node, results
// from both nodes interleaved into a single stream, and per-query
// errors carried inline.
func TestScatterGatherBatch(t *testing.T) {
	router, ts, _ := newCluster(t, 2, Options{}, store.Config{})
	owned := namesOwnedBy(2, 1)
	docA, docB := owned[0][0], owned[1][0]
	for _, name := range []string{docA, docB} {
		if resp, out := postJSON(t, ts.URL+"/documents", map[string]string{
			"name": name, "xml": "<a><b/><b/></a>",
		}); resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: %d %v", name, resp.StatusCode, out)
		}
	}
	queries := []string{"count(//b)", "//[", "sum(//b) = 0"}
	buf, _ := json.Marshal(map[string]any{"docs": []string{docA, docB}, "queries": queries})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := readNDJSON(t, resp)
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6", len(lines))
	}
	byIndex := make([]map[string]any, 6)
	nodesSeen := map[string]bool{}
	for _, line := range lines {
		i := int(line["index"].(float64))
		if i < 0 || i >= 6 || byIndex[i] != nil {
			t.Fatalf("bad or duplicate index %d in %v", i, line)
		}
		byIndex[i] = line
		nodesSeen[line["node"].(string)] = true
	}
	if len(nodesSeen) != 2 {
		t.Fatalf("stream carried results from %d node(s), want both: %v", len(nodesSeen), nodesSeen)
	}
	for i, line := range byIndex {
		doc, q := docA, queries[i%3]
		if i >= 3 {
			doc = docB
		}
		if line["doc"] != doc || line["query"] != q {
			t.Fatalf("index %d = (%v, %v), want (%s, %q)", i, line["doc"], line["query"], doc, q)
		}
		if line["node"] != router.Owner(doc).Name() {
			t.Fatalf("index %d produced by %v, want owner %s", i, line["node"], router.Owner(doc).Name())
		}
		if i%3 == 1 {
			if msg, ok := line["error"].(string); !ok || msg == "" {
				t.Fatalf("index %d (invalid query) carried no error: %v", i, line)
			}
		} else if line["value"] == nil {
			t.Fatalf("index %d carried no value: %v", i, line)
		}
	}
}

// slowQuery forces an O(|D|²) tabulation with cancellation checkpoints
// throughout — the workload for the streaming/cancellation tests
// (mirrors the serving layer's).
const slowQuery = "count(//*[count(preceding::*) > count(following::*)])"

// TestBatchStreamsAcrossNodesBeforeCompletion pins the completion-order
// merge: with the slow document on one node and a tiny one on the
// other, the tiny document's line must be on the wire while the other
// node is still evaluating — the router does not buffer per-doc.
func TestBatchStreamsAcrossNodesBeforeCompletion(t *testing.T) {
	_, ts, backends := newCluster(t, 2, Options{}, store.Config{})
	owned := namesOwnedBy(2, 1)
	slowDoc, fastDoc := owned[0][0], owned[1][0]
	if _, _, err := backends[0].srv.AddDocument(slowDoc, workload.Doc(1500).XMLString()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := backends[1].srv.AddDocument(fastDoc, "<a><b/></a>"); err != nil {
		t.Fatal(err)
	}
	buf, _ := json.Marshal(map[string]any{"docs": []string{slowDoc, fastDoc}, "queries": []string{slowQuery}})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]any
	if err := json.Unmarshal([]byte(first), &line); err != nil {
		t.Fatal(err)
	}
	if line["doc"] != fastDoc || line["index"].(float64) != 1 {
		t.Fatalf("first merged line = %v, want the fast doc (index 1)", line)
	}
	rest := readNDJSON(t, &http.Response{Body: resp.Body})
	if len(rest) != 1 || rest[0]["doc"] != slowDoc {
		t.Fatalf("remaining lines = %v, want the slow doc's result", rest)
	}
}

// TestBatchCancelMidStream is the cancellation acceptance test: a
// scatter-gather batch is abandoned mid-stream and every backend's
// in-flight evaluation must drain promptly — the router propagates the
// client's disconnect to all of its backend calls.
func TestBatchCancelMidStream(t *testing.T) {
	_, ts, backends := newCluster(t, 2, Options{}, store.Config{})
	owned := namesOwnedBy(2, 1)
	// Big enough that the O(|D|²) tabulation runs for many seconds even
	// on the indexed axis evaluator, keeping the in-flight window
	// observable; cancellation cuts the test short well before that.
	big := workload.Doc(30000).XMLString()
	for i, names := range owned {
		if _, _, err := backends[i].srv.AddDocument(names[0], big); err != nil {
			t.Fatal(err)
		}
	}
	buf, _ := json.Marshal(map[string]any{
		"docs":    []string{owned[0][0], owned[1][0]},
		"queries": []string{slowQuery},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/batch", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The stream's headers arrive as it opens, well before the 5 s node
	// timeout: the evaluations below are still running when they are
	// cancelled, not ended by the router's peer client giving up.
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("batch headers took %v", waited)
	}

	// Both backends must be evaluating before we pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for _, b := range backends {
		for b.srv.Engine().Stats().InFlight < 1 {
			if time.Now().After(deadline) {
				t.Fatal("backends never started evaluating")
			}
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	for _, b := range backends {
		for b.srv.Engine().Stats().InFlight != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("backend in-flight work survived cancellation: %+v", b.srv.Engine().Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestBatchSlowFirstAnswer: a batch whose first answer takes longer than
// the node timeout still gets its value through the router. The timeout
// bounds the wait for a response's headers, and a /batch stream sends
// them when it opens, not with its first line.
func TestBatchSlowFirstAnswer(t *testing.T) {
	b := newBackend(t, store.Config{})
	node, err := NewNode(b.ts.URL, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	router, err := New([]*Node{node}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(router.Handler())
	t.Cleanup(ts.Close)
	if _, _, err := b.srv.AddDocument("slow", workload.Doc(8000).XMLString()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(`{"doc":"slow","queries":["`+slowQuery+`"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := readNDJSON(t, resp)
	if len(lines) != 1 || lines[0]["value"] == nil || lines[0]["error"] != nil {
		t.Fatalf("lines = %v, want the one answer", lines)
	}
}

// TestDownedPeer pins the failure modes of an unreachable node: with
// no replica budget a routed request answers promptly with a typed 502
// (never hangs), and with -replica-retry the same registration fails
// over to the next live peer. The batch path degrades to per-job typed
// error lines instead of stalling the merged stream.
func TestDownedPeer(t *testing.T) {
	router, ts, backends := newCluster(t, 2, Options{Timeout: 2 * time.Second}, store.Config{})
	owned := namesOwnedBy(2, 1)
	deadDoc, liveDoc := owned[1][0], owned[0][0]
	if resp, _ := postJSON(t, ts.URL+"/documents", map[string]string{"name": liveDoc, "xml": "<a/>"}); resp.StatusCode != 200 {
		t.Fatal("live registration failed")
	}
	backends[1].ts.Close() // the owner of deadDoc goes down

	start := time.Now()
	resp, out := getJSON(t, ts.URL+"/query?doc="+deadDoc+"&q=count(//b)")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("downed-peer query status = %d, body %v, want 502", resp.StatusCode, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "peer unavailable") {
		t.Fatalf("error %q does not carry the typed unavailability", msg)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("downed-peer query took %v, want a prompt typed error", took)
	}

	// The live doc still routes fine around the dead peer.
	if resp, _ := getJSON(t, ts.URL+"/query?doc="+liveDoc+"&q=count(//b)"); resp.StatusCode != http.StatusOK {
		t.Fatalf("live doc unusable with a peer down: %d", resp.StatusCode)
	}

	// Batch over both docs: the dead doc's jobs come back as typed
	// error lines, the live doc's as results; nothing hangs.
	buf, _ := json.Marshal(map[string]any{"docs": []string{liveDoc, deadDoc}, "queries": []string{"count(//b)"}})
	bresp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	lines := readNDJSON(t, bresp)
	if len(lines) != 2 {
		t.Fatalf("got %d batch lines, want 2", len(lines))
	}
	for _, line := range lines {
		if line["doc"] == deadDoc {
			if msg, _ := line["error"].(string); !strings.Contains(msg, "peer unavailable") {
				t.Fatalf("dead doc line = %v, want typed unavailability error", line)
			}
		} else if line["value"] == nil {
			t.Fatalf("live doc line carried no value: %v", line)
		}
	}

	// Replica retry: a router with a failover budget lands the dead
	// peer's documents on the next node in the ring.
	retryRouter, err := New([]*Node{backends[0].node, backends[1].node}, Options{Retries: 1, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(retryRouter.Handler())
	t.Cleanup(rts.Close)
	resp, out = postJSON(t, rts.URL+"/documents", map[string]string{"name": deadDoc, "xml": "<a><b/></a>"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover registration status = %d, body %v", resp.StatusCode, out)
	}
	if out["node"] != backends[0].node.Name() {
		t.Fatalf("failover landed on %v, want surviving node %s", out["node"], backends[0].node.Name())
	}
	resp, out = getJSON(t, rts.URL+"/query?doc="+deadDoc+"&q=count(//b)")
	if resp.StatusCode != http.StatusOK || out["value"].(map[string]any)["number"] != 1.0 {
		t.Fatalf("failover query = %d %v", resp.StatusCode, out)
	}
	_ = router
}

// TestReadFallbackAfterOwnerRecovers pins read-your-writes across a
// failover cycle: a document registered on a replica while its owner
// was down must stay readable (query, fetch, batch) and deletable
// through the router after the owner comes back and answers 404 —
// reads probe the retry ring before trusting a live owner's 404.
func TestReadFallbackAfterOwnerRecovers(t *testing.T) {
	_, _, backends := newCluster(t, 2, Options{}, store.Config{})
	owned := namesOwnedBy(2, 1)
	doc := owned[1][0] // owned by backend 1, registered only on backend 0
	if _, _, err := backends[0].srv.AddDocument(doc, "<a><b/></a>"); err != nil {
		t.Fatal(err)
	}
	retryRouter, err := New([]*Node{backends[0].node, backends[1].node}, Options{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(retryRouter.Handler())
	t.Cleanup(rts.Close)

	resp, out := getJSON(t, rts.URL+"/query?doc="+doc+"&q=count(//b)")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failed-over doc unreadable past live owner: %d %v", resp.StatusCode, out)
	}
	if out["node"] != backends[0].node.Name() {
		t.Fatalf("answered by %v, want the replica %s", out["node"], backends[0].node.Name())
	}
	if resp, out := getJSON(t, rts.URL+"/documents?name="+doc); resp.StatusCode != http.StatusOK || out["xml"] == "" {
		t.Fatalf("failed-over doc not fetchable: %d %v", resp.StatusCode, out)
	}
	buf, _ := json.Marshal(map[string]any{"doc": doc, "queries": []string{"count(//b)"}})
	bresp, err := http.Post(rts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	lines := readNDJSON(t, bresp)
	if len(lines) != 1 || lines[0]["value"] == nil {
		t.Fatalf("failed-over batch = %v, want one result line", lines)
	}
	req, _ := http.NewRequest(http.MethodDelete, rts.URL+"/documents?name="+doc, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("failed-over doc not deletable: %d", dresp.StatusCode)
	}
	// A doc registered nowhere still reports a plain 404.
	if resp, _ := getJSON(t, rts.URL+"/query?doc=truly-missing&q=count(//b)"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing doc status = %d, want 404", resp.StatusCode)
	}
}

// TestHealthEndpoint pins the router's fleet view: probes mark a
// downed node (after DownAfter consecutive failures — hysteresis
// against flapping), /health reports per-peer state, and an all-dead
// fleet answers 503.
func TestHealthEndpoint(t *testing.T) {
	router, ts, backends := newCluster(t, 2, Options{Timeout: time.Second}, store.Config{})
	if h := router.CheckHealth(); h != 2 {
		t.Fatalf("CheckHealth = %d, want 2", h)
	}
	backends[1].ts.Close()
	// One lost probe no longer marks the peer down: the default
	// DownAfter is 3 consecutive failures.
	if h := router.CheckHealth(); h != 2 {
		t.Fatalf("CheckHealth after one lost probe = %d, want 2 (hysteresis)", h)
	}
	router.CheckHealth()
	if h := router.CheckHealth(); h != 1 {
		t.Fatalf("CheckHealth with one down = %d, want 1", h)
	}
	resp, out := getJSON(t, ts.URL+"/health")
	if resp.StatusCode != http.StatusOK || out["ok"] != true {
		t.Fatalf("health = %d %v, want 200 ok", resp.StatusCode, out)
	}
	peers := out["peers"].([]any)
	if len(peers) != 2 {
		t.Fatalf("health lists %d peers, want 2", len(peers))
	}
	downSeen := false
	for _, p := range peers {
		ph := p.(map[string]any)
		if ph["node"] == backends[1].node.Name() {
			downSeen = true
			if ph["healthy"] != false || ph["last_error"] == "" {
				t.Fatalf("downed peer reported %v", ph)
			}
		}
	}
	if !downSeen {
		t.Fatal("downed peer missing from /health")
	}
	backends[0].ts.Close()
	for i := 0; i < 3; i++ { // DownAfter consecutive failures
		router.CheckHealth()
	}
	if resp, _ := getJSON(t, ts.URL+"/health"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-dead health status = %d, want 503", resp.StatusCode)
	}
}

// TestSinglePeerDegenerate pins the 1-peer deployment: the router is a
// transparent proxy and every surface works unchanged.
func TestSinglePeerDegenerate(t *testing.T) {
	router, ts, backends := newCluster(t, 1, Options{}, store.Config{})
	if resp, _ := postJSON(t, ts.URL+"/documents", map[string]string{"name": "solo", "xml": "<a><b/><b/></a>"}); resp.StatusCode != 200 {
		t.Fatal("registration through 1-peer router failed")
	}
	if router.Owner("solo") != backends[0].node {
		t.Fatal("1-peer owner is not the single peer")
	}
	resp, out := getJSON(t, ts.URL+"/query?doc=solo&q=count(//b)")
	if resp.StatusCode != 200 || out["value"].(map[string]any)["number"] != 2.0 {
		t.Fatalf("1-peer query = %d %v", resp.StatusCode, out)
	}
	buf, _ := json.Marshal(map[string]any{"doc": "solo", "queries": []string{"count(//b)", "1 = 1"}})
	bresp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	if lines := readNDJSON(t, bresp); len(lines) != 2 {
		t.Fatalf("1-peer batch returned %d lines, want 2", len(lines))
	}
}

// TestWriteReplication drives the -replicas path end to end: a
// registration through the router lands on the owner AND its ring
// successor at the same version, and killing the owner leaves /query
// and /batch for that document answering correctly from the replica.
func TestWriteReplication(t *testing.T) {
	router, ts, backends := newCluster(t, 2, Options{Replicas: 1, AnswerCacheSize: -1, Timeout: 2 * time.Second}, store.Config{})
	owned := namesOwnedBy(2, 1)
	doc := owned[0][0] // owned by backends[0]; replica on backends[1]
	resp, out := postJSON(t, ts.URL+"/documents", map[string]string{"name": doc, "xml": "<a><b/><b/></a>"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %v", resp.StatusCode, out)
	}
	if out["node"] != backends[0].node.Name() {
		t.Fatalf("registration landed on %v, want owner %s", out["node"], backends[0].node.Name())
	}
	reps, _ := out["replicas"].([]any)
	if len(reps) != 1 || reps[0] != backends[1].node.Name() {
		t.Fatalf("replicas = %v, want [%s]", out["replicas"], backends[1].node.Name())
	}
	ver := out["version"].(float64)
	if ver <= 0 {
		t.Fatalf("registration carried version %v, want > 0", ver)
	}
	// Both backends hold the document at the owner-assigned version.
	ctx := context.Background()
	for i, b := range backends {
		info, err := b.node.GetDocument(ctx, doc)
		if err != nil {
			t.Fatalf("backend %d does not hold %s: %v", i, doc, err)
		}
		if info.Version != uint64(ver) {
			t.Fatalf("backend %d holds %s at version %d, want %v", i, doc, info.Version, ver)
		}
	}

	backends[0].ts.Close() // the owner goes down

	resp, out = getJSON(t, ts.URL+"/query?doc="+doc+"&q=count(//b)")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query with owner down = %d %v, want the replica's answer", resp.StatusCode, out)
	}
	if out["node"] != backends[1].node.Name() {
		t.Fatalf("answered by %v, want replica %s", out["node"], backends[1].node.Name())
	}
	if val := out["value"].(map[string]any); val["number"] != 2.0 {
		t.Fatalf("replica answer = %v, want 2", val["number"])
	}
	buf, _ := json.Marshal(map[string]any{"doc": doc, "queries": []string{"count(//b)"}})
	bresp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	lines := readNDJSON(t, bresp)
	if len(lines) != 1 || lines[0]["value"] == nil {
		t.Fatalf("batch with owner down = %v, want one result line", lines)
	}
	if lines[0]["node"] != backends[1].node.Name() {
		t.Fatalf("batch line from %v, want replica %s", lines[0]["node"], backends[1].node.Name())
	}
	_ = router
}

// TestReplicatedDelete checks that DELETE through a replicating
// router evicts every copy, not just the owner's.
func TestReplicatedDelete(t *testing.T) {
	_, ts, backends := newCluster(t, 2, Options{Replicas: 1}, store.Config{})
	doc := namesOwnedBy(2, 1)[0][0]
	if resp, _ := postJSON(t, ts.URL+"/documents", map[string]string{"name": doc, "xml": "<a/>"}); resp.StatusCode != 200 {
		t.Fatal("registration failed")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/documents?name="+doc, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	json.NewDecoder(dresp.Body).Decode(&out)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d %v", dresp.StatusCode, out)
	}
	nodes, _ := out["nodes"].([]any)
	if len(nodes) != 2 {
		t.Fatalf("delete removed from %v, want both holders", out["nodes"])
	}
	for i, b := range backends {
		if _, ok := b.srv.Session(doc); ok {
			t.Fatalf("backend %d still holds %s after replicated delete", i, doc)
		}
	}
}

// TestAnswerCache pins the router answer cache: a repeated identical
// query is served from the cache (visible in the X-Router-Cache
// header and /stats counters), and re-registering the document bumps
// its version, invalidates the entry, and the next query sees the new
// content — never a stale answer.
func TestAnswerCache(t *testing.T) {
	_, ts, _ := newCluster(t, 2, Options{}, store.Config{})
	doc := namesOwnedBy(2, 1)[0][0]
	if resp, _ := postJSON(t, ts.URL+"/documents", map[string]string{"name": doc, "xml": "<a><b/><b/></a>"}); resp.StatusCode != 200 {
		t.Fatal("registration failed")
	}
	get := func() (*http.Response, map[string]any) {
		return getJSON(t, ts.URL+"/query?doc="+doc+"&q=count(//b)")
	}
	resp, out := get()
	if resp.StatusCode != 200 || out["value"].(map[string]any)["number"] != 2.0 {
		t.Fatalf("first query = %d %v", resp.StatusCode, out)
	}
	if resp.Header.Get("X-Router-Cache") == "hit" {
		t.Fatal("first query claimed a cache hit")
	}
	resp, out = get()
	if resp.Header.Get("X-Router-Cache") != "hit" {
		t.Fatal("repeated identical query was not served from the cache")
	}
	if out["value"].(map[string]any)["number"] != 2.0 {
		t.Fatalf("cached answer = %v, want 2", out)
	}
	_, stats := getJSON(t, ts.URL+"/stats")
	cacheStats := stats["router"].(map[string]any)["answer_cache"].(map[string]any)
	if cacheStats["hits"].(float64) < 1 || cacheStats["misses"].(float64) < 1 {
		t.Fatalf("answer_cache stats = %v, want at least one hit and one miss", cacheStats)
	}

	// Replacing the document invalidates: the next query must see the
	// new content, and /stats counts the invalidation.
	if resp, _ := postJSON(t, ts.URL+"/documents", map[string]string{"name": doc, "xml": "<a><b/><b/><b/></a>"}); resp.StatusCode != 200 {
		t.Fatal("replacement failed")
	}
	resp, out = get()
	if resp.Header.Get("X-Router-Cache") == "hit" {
		t.Fatal("query after replacement was served from the stale cache")
	}
	if out["value"].(map[string]any)["number"] != 3.0 {
		t.Fatalf("post-replacement answer = %v, want 3 (stale cache?)", out)
	}
	_, stats = getJSON(t, ts.URL+"/stats")
	cacheStats = stats["router"].(map[string]any)["answer_cache"].(map[string]any)
	if cacheStats["invalidations"].(float64) < 1 {
		t.Fatalf("answer_cache stats = %v, want at least one invalidation", cacheStats)
	}
}

// TestGroupedBatchOneStreamPerNode is the connection-churn acceptance
// check: a routed /batch over many documents opens at most one
// backend /batch stream per owning node, not one per document.
func TestGroupedBatchOneStreamPerNode(t *testing.T) {
	var mu sync.Mutex
	batchCalls := map[string]int{}
	_, ts, backends := newCluster(t, 2, Options{}, store.Config{})
	// Wrap each backend handler to count /batch requests.
	for i, b := range backends {
		name := fmt.Sprintf("backend-%d", i)
		inner := b.srv.Handler()
		b.ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/batch" {
				mu.Lock()
				batchCalls[name]++
				mu.Unlock()
			}
			inner.ServeHTTP(w, r)
		})
	}
	owned := namesOwnedBy(2, 3)
	var docs []string
	for i, names := range owned {
		for _, name := range names {
			if _, _, err := backends[i].srv.AddDocument(name, "<a><b/></a>"); err != nil {
				t.Fatal(err)
			}
			docs = append(docs, name)
		}
	}
	buf, _ := json.Marshal(map[string]any{"docs": docs, "queries": []string{"count(//b)", "1 = 1"}})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := readNDJSON(t, resp)
	if want := len(docs) * 2; len(lines) != want {
		t.Fatalf("got %d lines, want %d", len(lines), want)
	}
	seen := map[int]bool{}
	for _, line := range lines {
		if line["error"] != nil {
			t.Fatalf("unexpected error line: %v", line)
		}
		seen[int(line["index"].(float64))] = true
	}
	if len(seen) != len(docs)*2 {
		t.Fatalf("distinct indices = %d, want %d", len(seen), len(docs)*2)
	}
	mu.Lock()
	defer mu.Unlock()
	for name, calls := range batchCalls {
		if calls != 1 {
			t.Fatalf("%s served %d /batch streams for one routed batch, want 1 (calls: %v)", name, calls, batchCalls)
		}
	}
	if len(batchCalls) != 2 {
		t.Fatalf("batch streams reached %d node(s), want 2: %v", len(batchCalls), batchCalls)
	}
}

// TestBatchPeerDiesMidStream kills a backend while its grouped batch
// stream is mid-flight: every job must still yield exactly one NDJSON
// line, with the dead node's unfinished jobs marked as errors and the
// other node's results intact.
func TestBatchPeerDiesMidStream(t *testing.T) {
	_, ts, backends := newCluster(t, 2, Options{Timeout: 5 * time.Second}, store.Config{})
	owned := namesOwnedBy(2, 1)
	victimDoc, liveDoc := owned[0][0], owned[1][0]
	// The victim's group carries a fast job and a slow one; the fast
	// line proves the stream is live before the kill, the slow job is
	// still in flight when the connection dies.
	if _, _, err := backends[0].srv.AddDocument(victimDoc, workload.Doc(20000).XMLString()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := backends[1].srv.AddDocument(liveDoc, "<a><b/></a>"); err != nil {
		t.Fatal(err)
	}
	buf, _ := json.Marshal(map[string]any{
		"docs":    []string{victimDoc, liveDoc},
		"queries": []string{"count(/*)", slowQuery},
	})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines []map[string]any
	killed := false
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
		// The moment the victim's fast result is on the wire, its
		// stream is provably mid-flight: kill the connection.
		if !killed && line["doc"] == victimDoc && line["error"] == nil {
			backends[0].ts.CloseClientConnections()
			killed = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatalf("victim node never streamed a result before completing: %v", lines)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want exactly 4 (one per job): %v", len(lines), lines)
	}
	byIndex := map[int]map[string]any{}
	for _, line := range lines {
		i := int(line["index"].(float64))
		if byIndex[i] != nil {
			t.Fatalf("index %d emitted twice", i)
		}
		byIndex[i] = line
	}
	// Index 1 is the victim's slow job: it must be an error line from
	// the dead node. Indices 2 and 3 (the live doc) must be results.
	if msg, _ := byIndex[1]["error"].(string); msg == "" {
		t.Fatalf("dead node's unfinished job carried no error: %v", byIndex[1])
	}
	for _, i := range []int{2, 3} {
		if byIndex[i]["value"] == nil {
			t.Fatalf("live node's job %d lost its result: %v", i, byIndex[i])
		}
	}
	// The backends must drain their cancelled work.
	deadline := time.Now().Add(10 * time.Second)
	for backends[0].srv.Engine().Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("victim's in-flight work survived the kill: %+v", backends[0].srv.Engine().Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainMode covers online resharding's client-facing half: a
// router over a new (still empty) ring with -drain-peers pointing at
// the old ring forwards read misses to the old ring, so queries keep
// answering while the corpus migrates.
func TestDrainMode(t *testing.T) {
	oldB := newBackend(t, store.Config{})
	newB := newBackend(t, store.Config{})
	if _, _, err := oldB.srv.AddDocument("legacy", "<a><b/><b/></a>"); err != nil {
		t.Fatal(err)
	}
	router, err := New([]*Node{newB.node}, Options{
		Generation: 2,
		DrainPeers: []*Node{oldB.node},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(router.Handler())
	t.Cleanup(ts.Close)

	resp, out := getJSON(t, ts.URL+"/query?doc=legacy&q=count(//b)")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drained query = %d %v", resp.StatusCode, out)
	}
	if out["drained"] != true || out["node"] != oldB.node.Name() {
		t.Fatalf("drained query answered by %v (drained=%v), want the old ring", out["node"], out["drained"])
	}
	if val := out["value"].(map[string]any); val["number"] != 2.0 {
		t.Fatalf("drained answer = %v, want 2", val)
	}
	// Single-document GET drains too, flagged like /query.
	if resp, out := getJSON(t, ts.URL+"/documents?name=legacy"); resp.StatusCode != http.StatusOK || out["xml"] == "" || out["drained"] != true {
		t.Fatalf("drained document fetch = %d %v, want xml with drained=true", resp.StatusCode, out)
	}
	// Once the document reaches the new ring, the new ring answers.
	if resp, _ := postJSON(t, ts.URL+"/documents", map[string]string{"name": "legacy", "xml": "<a><b/><b/><b/></a>"}); resp.StatusCode != 200 {
		t.Fatal("migrating registration failed")
	}
	resp, out = getJSON(t, ts.URL+"/query?doc=legacy&q=count(//b)")
	if out["drained"] == true || out["node"] != newB.node.Name() {
		t.Fatalf("post-migration query still drained: %v", out)
	}
	if val := out["value"].(map[string]any); val["number"] != 3.0 {
		t.Fatalf("post-migration answer = %v, want 3", val)
	}
	// A document on neither ring is a plain 404, and /health shows
	// both ring descriptions.
	if resp, _ := getJSON(t, ts.URL+"/query?doc=nowhere&q=count(//b)"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing-everywhere doc = %d, want 404", resp.StatusCode)
	}
	_, health := getJSON(t, ts.URL+"/health")
	ring := health["ring"].(map[string]any)
	if ring["generation"].(float64) != 2 {
		t.Fatalf("ring generation = %v, want 2", ring["generation"])
	}
	if _, ok := health["drain_ring"]; !ok {
		t.Fatal("health missing drain_ring description")
	}
	_, stats := getJSON(t, ts.URL+"/stats")
	if stats["router"].(map[string]any)["drained"].(float64) < 1 {
		t.Fatalf("stats drained counter = %v, want >= 1", stats["router"])
	}
}

// TestStatsDegraded pins the satellite contract: /stats with a down
// peer reports partial stats flagged "degraded" instead of failing.
func TestStatsDegraded(t *testing.T) {
	_, ts, backends := newCluster(t, 2, Options{Timeout: time.Second}, store.Config{})
	if _, _, err := backends[0].srv.AddDocument("kept", "<a/>"); err != nil {
		t.Fatal(err)
	}
	resp, out := getJSON(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK || out["degraded"] != false {
		t.Fatalf("healthy stats = %d degraded=%v", resp.StatusCode, out["degraded"])
	}
	backends[1].ts.Close()
	resp, out = getJSON(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats with a down peer = %d, want 200", resp.StatusCode)
	}
	if out["degraded"] != true {
		t.Fatalf("stats with a down peer not flagged degraded: %v", out["router"])
	}
	nodes := out["nodes"].(map[string]any)
	dead := nodes[backends[1].node.Name()].(map[string]any)
	if dead["error"] == nil {
		t.Fatalf("dead node entry carries no error: %v", dead)
	}
	if total := out["store_total"].(map[string]any); total["entries"].(float64) != 1 {
		t.Fatalf("partial store_total = %v, want the live node's entry", total)
	}
}

// TestReplicationReconcilesDivergedVersions pins the failover-write
// divergence repair: when a replica holds a document at a HIGHER
// version than the owner just assigned (it took a failover write on
// its own counter while the owner was down), a registration through
// the router must converge every copy on the new content at a version
// above the divergent one — never pin the replica's old content.
func TestReplicationReconcilesDivergedVersions(t *testing.T) {
	_, ts, backends := newCluster(t, 2, Options{Replicas: 1, AnswerCacheSize: -1}, store.Config{})
	doc := namesOwnedBy(2, 1)[0][0] // owner backends[0], replica backends[1]
	ctx := context.Background()
	// The replica took a failover write at a far-ahead version while
	// the owner was down (simulated via a direct mirror write).
	if _, _, err := backends[1].node.PutDocumentAt(ctx, doc, "<a><b/></a>", 500); err != nil {
		t.Fatal(err)
	}
	// The owner is back; a fresh registration goes through the router.
	resp, out := postJSON(t, ts.URL+"/documents", map[string]string{"name": doc, "xml": "<a><b/><b/><b/></a>"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %v", resp.StatusCode, out)
	}
	if ver := out["version"].(float64); ver <= 500 {
		t.Fatalf("registration version = %v, want above the replica's divergent 500", ver)
	}
	// Both copies converged on the NEW content above the old version.
	for i, b := range backends {
		info, err := b.node.GetDocument(ctx, doc)
		if err != nil {
			t.Fatalf("backend %d: %v", i, err)
		}
		if info.Version <= 500 {
			t.Fatalf("backend %d still at version %d, want reconciled above 500", i, info.Version)
		}
		if !strings.Contains(info.XML, "<b/><b/><b/>") && strings.Count(info.XML, "<b") != 3 {
			t.Fatalf("backend %d kept the stale content: %q", i, info.XML)
		}
	}
	// And the replica answers with the new content.
	resp, out = getJSON(t, ts.URL+"/query?doc="+doc+"&q=count(//b)")
	if resp.StatusCode != 200 || out["value"].(map[string]any)["number"] != 3.0 {
		t.Fatalf("post-reconcile query = %d %v, want 3", resp.StatusCode, out)
	}
}

// TestDrainRingUnreachable pins the miss semantics when the old ring
// is gone: a document that exists nowhere must stay a 404 — the drain
// ring's unreachability is not the query's error.
func TestDrainRingUnreachable(t *testing.T) {
	oldB := newBackend(t, store.Config{})
	newB := newBackend(t, store.Config{})
	oldB.ts.Close() // the old ring is already decommissioned
	router, err := New([]*Node{newB.node}, Options{
		Generation: 2,
		DrainPeers: []*Node{oldB.node},
		Timeout:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(router.Handler())
	t.Cleanup(ts.Close)
	resp, out := getJSON(t, ts.URL+"/query?doc=ghost&q=count(//b)")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing doc with dead drain ring = %d %v, want 404", resp.StatusCode, out)
	}
	_, stats := getJSON(t, ts.URL+"/stats")
	if d := stats["router"].(map[string]any)["drained"].(float64); d != 0 {
		t.Fatalf("drained counter = %v after a failed drain, want 0", d)
	}
}

// TestBatchDrainsMissingJobs pins /batch's drain-mode parity with
// /query: jobs for a document that has not migrated yet are answered
// by the old ring (flagged drained) instead of erroring.
func TestBatchDrainsMissingJobs(t *testing.T) {
	oldB := newBackend(t, store.Config{})
	newB := newBackend(t, store.Config{})
	if _, _, err := oldB.srv.AddDocument("legacy", "<a><b/><b/></a>"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := newB.srv.AddDocument("migrated", "<a><b/></a>"); err != nil {
		t.Fatal(err)
	}
	router, err := New([]*Node{newB.node}, Options{
		Generation: 2,
		DrainPeers: []*Node{oldB.node},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(router.Handler())
	t.Cleanup(ts.Close)
	buf, _ := json.Marshal(map[string]any{
		"docs":    []string{"legacy", "migrated", "nowhere"},
		"queries": []string{"count(//b)"},
	})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := readNDJSON(t, resp)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %v", len(lines), lines)
	}
	byIndex := make([]map[string]any, 3)
	for _, line := range lines {
		byIndex[int(line["index"].(float64))] = line
	}
	// legacy: answered by the old ring, flagged drained.
	if byIndex[0]["drained"] != true || byIndex[0]["node"] != oldB.node.Name() {
		t.Fatalf("legacy line = %v, want drained from the old ring", byIndex[0])
	}
	if byIndex[0]["value"].(map[string]any)["number"] != 2.0 {
		t.Fatalf("legacy answer = %v, want 2", byIndex[0])
	}
	// migrated: answered by the new ring, not drained.
	if byIndex[1]["drained"] == true || byIndex[1]["node"] != newB.node.Name() {
		t.Fatalf("migrated line = %v, want the new ring's answer", byIndex[1])
	}
	// nowhere: one error line (missing on both rings), not a stall.
	if msg, _ := byIndex[2]["error"].(string); msg == "" {
		t.Fatalf("missing-everywhere job carried no error: %v", byIndex[2])
	}
}
