package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/store"
)

// doJSON sends a bodiless request and decodes the JSON object answered.
func doJSON(t *testing.T, method, url string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

// keySet is a JSON object's member names, sorted and comma-joined.
func keySet(v any) string {
	m, _ := v.(map[string]any)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// TestAdminResponseKeys pins the exact member set of every router admin
// response — the single-document GET, DELETE, the merged listing,
// /stats (with the router.* keys the process-level benchmark reads) and
// /health — with and without the members that appear only while they
// apply (drained, partial, degraded, the drain ring, draining).
func TestAdminResponseKeys(t *testing.T) {
	oldB := newBackend(t, store.Config{})
	if _, _, err := oldB.srv.AddDocument("legacy", "<a/>"); err != nil {
		t.Fatal(err)
	}
	live, dead := newBackend(t, store.Config{}), newBackend(t, store.Config{})
	router, err := New([]*Node{live.node, dead.node}, Options{
		Generation: 2, DrainPeers: []*Node{oldB.node}, Replicas: 1, Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(router.Handler())
	t.Cleanup(ts.Close)
	for _, doc := range []string{"kept", "gone"} {
		if resp, out := postJSON(t, ts.URL+"/documents", map[string]string{"name": doc, "xml": "<a/>"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: %d %v", doc, resp.StatusCode, out)
		}
	}
	check := func(what string, v any, want string) {
		t.Helper()
		if got := keySet(v); got != want {
			t.Errorf("%s keys = %s, want %s", what, got, want)
		}
	}
	const doc = "bytes,idle_ms,name,node,nodes,version,xml"
	_, out := getJSON(t, ts.URL+"/documents?name=kept")
	check("document", out, doc)
	_, out = getJSON(t, ts.URL+"/documents?name=legacy")
	check("drained document", out, "bytes,drained,idle_ms,name,node,nodes,version,xml")
	_, out = getJSON(t, ts.URL+"/documents")
	check("listing", out, "documents")
	_, out = doJSON(t, http.MethodDelete, ts.URL+"/documents?name=gone")
	check("delete", out, "deleted,nodes")
	_, out = getJSON(t, ts.URL+"/stats")
	check("stats", out, "degraded,nodes,router,store_total")
	rs, _ := out["router"].(map[string]any)
	check("stats router", rs, "answer_cache,drained,generation,healthy,peers,repair_copies,repair_errors,repair_rounds,replica_errors,replicas,replicated,requests,retries,retry_denied,shed")
	check("stats router.answer_cache", rs["answer_cache"], "capacity,entries,hits,invalidations,misses")
	_, out = getJSON(t, ts.URL+"/health")
	check("health", out, "build,drain_ring,healthy,ok,peers,ring,uptime_ms")

	dead.ts.Close()
	_, out = getJSON(t, ts.URL+"/documents")
	check("degraded listing", out, "degraded,documents,node_errors")
	_, out = getJSON(t, ts.URL+"/stats")
	check("stats entry of a down peer", out["nodes"].(map[string]any)[dead.node.Name()], "error")
	_, out = doJSON(t, http.MethodDelete, ts.URL+"/documents?name=kept")
	check("partial delete", out, "deleted,node_errors,nodes,partial")
	router.BeginDrain()
	_, out = getJSON(t, ts.URL+"/health")
	check("draining health", out, "build,drain_ring,draining,healthy,ok,peers,ring,uptime_ms")
}

// TestBudgetDenialAfterLiveNotFound: when a live candidate answers "not
// found" and the retry budget then denies asking the next one, /query
// and the single-document GET answer alike — 503 with Retry-After,
// naming the 404 — because the unasked candidate may hold the document.
func TestBudgetDenialAfterLiveNotFound(t *testing.T) {
	_, ts, backends := newCluster(t, 2, Options{
		Retries:          1,
		Replicas:         1,
		RetryBudget:      0.001, // deposits are negligible; the bucket starts with DefaultBudgetCap tokens
		BreakerThreshold: -1,    // keep the dead owner in play so every query retries
		DownAfter:        1000,  // likewise: health-sorting must not hide the owner
		AnswerCacheSize:  -1,
		Timeout:          time.Second,
	}, store.Config{})
	owned := namesOwnedBy(2, 1)
	doc, ghost := owned[1][0], owned[0][0] // ghost is owned by the live node and registered nowhere
	if resp, _ := postJSON(t, ts.URL+"/documents", map[string]string{"name": doc, "xml": "<a><b/></a>"}); resp.StatusCode != http.StatusOK {
		t.Fatal("registration failed")
	}
	backends[1].ts.Close()
	for i := 0; i < resilience.DefaultBudgetCap+5; i++ { // drains the bucket
		getJSON(t, ts.URL+"/query?doc="+doc+"&q=count(//b)")
	}
	for _, path := range []string{"/query?doc=" + ghost + "&q=count(//b)", "/documents?name=" + ghost} {
		resp, out := getJSON(t, ts.URL+path)
		msg, _ := out["error"].(string)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" ||
			!strings.Contains(msg, "retry budget") || !strings.Contains(msg, "not found") {
			t.Errorf("%s: %d (Retry-After %q) %v; want 503 with Retry-After naming the budget and the 404",
				path, resp.StatusCode, resp.Header.Get("Retry-After"), out)
		}
	}
}

// TestDrainHopIsARetry: a read the old ring answers is one retry on
// every path — /query, the single-document GET and /batch alike.
func TestDrainHopIsARetry(t *testing.T) {
	for _, path := range []string{"/query?doc=legacy&q=count(//b)", "/documents?name=legacy", "/batch"} {
		t.Run(path, func(t *testing.T) {
			oldB, newB := newBackend(t, store.Config{}), newBackend(t, store.Config{})
			if _, _, err := oldB.srv.AddDocument("legacy", "<a><b/><b/></a>"); err != nil {
				t.Fatal(err)
			}
			router, err := New([]*Node{newB.node}, Options{Generation: 2, DrainPeers: []*Node{oldB.node}})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(router.Handler())
			t.Cleanup(ts.Close)
			var out map[string]any
			if path == "/batch" {
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(`{"doc":"legacy","queries":["count(//b)"]}`)))
				if err != nil {
					t.Fatal(err)
				}
				if lines := readNDJSON(t, resp); len(lines) == 1 {
					out = lines[0]
				}
				resp.Body.Close()
			} else {
				_, out = getJSON(t, ts.URL+path)
			}
			if out["drained"] != true || out["error"] != nil {
				t.Fatalf("answer %v, want one drained from the old ring", out)
			}
			_, stats := getJSON(t, ts.URL+"/stats")
			if rs := stats["router"].(map[string]any); rs["retries"] != 1.0 || rs["drained"] != 1.0 {
				t.Fatalf("router retries %v, drained %v; want 1 and 1", rs["retries"], rs["drained"])
			}
		})
	}
}
