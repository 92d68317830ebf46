package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/store"
)

// rawPost posts a JSON body under a fixed request ID (so a backend
// asked directly and through the router writes the same request_id) and
// returns the response with its body as bytes.
func rawPost(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.HeaderRequestID, "relay-test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestRelayKeepsBackendBytes is the relay's correctness obligation: an
// answer is right iff it is the answer for the version it reports, so
// what reaches the client — and the answer cache — is the backend's
// body, version label and value untouched, plus only the router's own
// "node" in front of the closing brace; and a cache hit replays the
// very bytes the miss sent.
func TestRelayKeepsBackendBytes(t *testing.T) {
	_, ts, backends := newCluster(t, 2, Options{}, store.Config{})
	const doc = "doc-0"
	owner := backends[KeyShard(doc, len(backends))]
	xml := `<a><b k="v&lt;&quot;">text &lt;with&gt; "quotes" \ &amp; é ✓</b><b/><n>1</n><n>x</n></a>`
	if resp, out := postJSON(t, ts.URL+"/documents", map[string]any{"name": doc, "xml": xml}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register = %d, body %v", resp.StatusCode, out)
	}
	for _, query := range []string{"//b", "count(//b)", "//@k", "1 div 0", "number(//n[2])", "string(//b)", "//["} {
		body := fmt.Sprintf(`{"doc":%q,"query":%q}`, doc, query)
		direct, backendBytes := rawPost(t, owner.ts.URL+"/query", body)
		routed, routedBytes := rawPost(t, ts.URL+"/query", body)
		if routed.StatusCode != direct.StatusCode {
			t.Fatalf("%s: routed status %d, backend's %d", query, routed.StatusCode, direct.StatusCode)
		}
		want := string(bytes.TrimSuffix(backendBytes, []byte("}\n"))) + `,"node":"` + owner.node.Name() + "\"}\n"
		if string(routedBytes) != want {
			t.Fatalf("%s: routed body\n%s\nwant the backend's bytes plus the node tag\n%s", query, routedBytes, want)
		}
		if routed.ContentLength != int64(len(routedBytes)) {
			t.Errorf("%s: Content-Length %d for %d bytes", query, routed.ContentLength, len(routedBytes))
		}
		if routed.StatusCode != http.StatusOK {
			continue // only successes are cached
		}
		if routed.Header.Get("X-Router-Cache") != "" {
			t.Fatalf("%s: first routed read was already a cache hit", query)
		}
		hit, hitBytes := rawPost(t, ts.URL+"/query", body)
		if hit.Header.Get("X-Router-Cache") != "hit" {
			t.Fatalf("%s: repeated query was not a cache hit", query)
		}
		if !bytes.Equal(hitBytes, routedBytes) {
			t.Fatalf("%s: cache hit replays\n%s\nbut the fill sent\n%s", query, hitBytes, routedBytes)
		}
	}
}

// TestRelayRetagsBatchLines: a relayed /batch line is the backend's
// line with the job index made global, the doc and node tags the
// router owns, and not a byte of the rest changed.
func TestRelayRetagsBatchLines(t *testing.T) {
	_, ts, backends := newCluster(t, 2, Options{}, store.Config{})
	owned := namesOwnedBy(2, 1)
	docs := []string{owned[1][0], owned[0][0]} // the second backend's document first
	for i, b := range []*backend{backends[1], backends[0]} {
		if _, _, err := b.srv.AddDocument(docs[i], fmt.Sprintf("<a><b>%d &amp; \"x\"</b><b/></a>", i)); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{"//b", "count(//b)", "1 div 0"}
	qjson, _ := json.Marshal(queries)
	resp, raw := rawPost(t, ts.URL+"/batch", fmt.Sprintf(`{"docs":[%q,%q],"queries":%s}`, docs[0], docs[1], qjson))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	routed := map[int]string{}
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		env, ok := serve.ScanEnvelope(line)
		if !ok || env.IndexEnd == 0 {
			t.Fatalf("routed line is not in the wire layout: %s", line)
		}
		if _, dup := routed[env.Index]; dup {
			t.Fatalf("index %d streamed twice", env.Index)
		}
		routed[env.Index] = string(line)
	}
	if len(routed) != len(docs)*len(queries) {
		t.Fatalf("%d lines for %d jobs:\n%s", len(routed), len(docs)*len(queries), raw)
	}
	for di, doc := range docs {
		b := []*backend{backends[1], backends[0]}[di]
		// The same jobs asked of the backend directly, the way the
		// router asks: the grouped form, which tags each line's doc.
		var jobs []serve.BatchJob
		for _, q := range queries {
			jobs = append(jobs, serve.BatchJob{Doc: doc, Query: q})
		}
		jbody, _ := json.Marshal(serve.BatchRequest{Jobs: jobs})
		_, direct := rawPost(t, b.ts.URL+"/batch", string(jbody))
		for _, line := range bytes.SplitAfter(direct, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			env, ok := serve.ScanEnvelope(line)
			if !ok {
				t.Fatalf("backend line is not in the wire layout: %s", line)
			}
			global := di*len(queries) + env.Index // document-major
			want := fmt.Sprintf(`{"index":%d`, global) + string(line[env.IndexEnd:env.End]) + `,"node":"` + b.node.Name() + "\"}\n"
			if routed[global] != want {
				t.Errorf("job %d (%s on %s): routed line\n%s\nwant the backend's line re-tagged\n%s", global, queries[env.Index], doc, routed[global], want)
			}
		}
	}
}

// TestRoutedNonFiniteKeepsPeersHealthy is the regression test of the
// arithmetic circuit-breaker trip: a NaN or infinite answer used to
// reach the router as an empty 200, fail to decode, count as a
// transport failure, and after five of them open the healthy peer's
// breaker.
func TestRoutedNonFiniteKeepsPeersHealthy(t *testing.T) {
	router, ts, _ := newCluster(t, 2, Options{}, store.Config{})
	const doc = "doc-0"
	if resp, out := postJSON(t, ts.URL+"/documents", map[string]any{"name": doc, "xml": "<r><a>1</a><a>x</a></r>"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register = %d, body %v", resp.StatusCode, out)
	}
	for i := 0; i < 100; i++ {
		query, want := "1 div 0", "Infinity"
		if i%2 == 1 {
			// A fresh text every time, so the answer cache cannot serve it.
			query, want = fmt.Sprintf("number('x%d')", i), "NaN"
		}
		path := "/query"
		if i%10 == 9 {
			path += "?trace=1"
		}
		resp, out := postJSON(t, ts.URL+path, serve.QueryRequest{Doc: doc, Query: query})
		val, _ := out["value"].(map[string]any)
		if num, present := val["number"]; resp.StatusCode != http.StatusOK || val["string"] != want || !present || num != nil {
			t.Fatalf("query %d (%s, %s): status %d, body %v", i, query, path, resp.StatusCode, out)
		}
	}
	resp, raw := rawPost(t, ts.URL+"/batch", fmt.Sprintf(`{"doc":%q,"queries":["1 div 0","count(//a)","number(//a[2])"]}`, doc))
	if n := bytes.Count(raw, []byte("\n")); resp.StatusCode != http.StatusOK || n != 3 || bytes.Contains(raw, []byte(`"error"`)) {
		t.Fatalf("batch: status %d, %d lines for 3 jobs:\n%s", resp.StatusCode, n, raw)
	}
	for _, n := range router.Peers() {
		if !n.Healthy() || n.Breaker().State() != resilience.BreakerClosed {
			t.Errorf("peer %s: healthy=%v breaker=%v after non-finite answers", n.Name(), n.Healthy(), n.Breaker().State())
		}
	}
	if resp, out := postJSON(t, ts.URL+"/query", serve.QueryRequest{Doc: doc, Query: "count(//a)"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("plain query afterwards: status %d, body %v", resp.StatusCode, out)
	}
}

// fakePeer is a peer that answers /query and /batch with whatever the
// test hands it — what a broken or foreign backend might send.
func fakePeer(t *testing.T, handler http.HandlerFunc) *Node {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	n, err := NewNode(ts.URL, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPeerBodyMustBeJSONObject: bytes that are not one JSON object are
// never relayed — the peer is treated as unreachable — and a body past
// the read limit is a peer error, with or without a Content-Length.
func TestPeerBodyMustBeJSONObject(t *testing.T) {
	for _, body := range []string{"", "not json", "null", "[1,2]", `"s"`, "7", `{"query":"q"`, `{"query":"q"} trailing`, `{"query":"q"}{"query":"q"}`, ` {"query":"q"}`} {
		body := body
		n := fakePeer(t, func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, body) })
		_, raw, err := n.Query(context.Background(), "d", "q", false)
		if !errors.Is(err, ErrUnavailable) || raw != nil {
			t.Errorf("peer body %q: err = %v, body %q; want ErrUnavailable and nothing to relay", body, err, raw)
		}
		router, err := New([]*Node{n}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		router.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?doc=d&q=q", nil))
		if rec.Code != http.StatusBadGateway || strings.Contains(rec.Body.String(), "trailing") {
			t.Errorf("peer body %q: routed status %d, body %s; want 502", body, rec.Code, rec.Body)
		}
	}
	// A JSON object that is not laid out as xpathserve lays answers out
	// is relayed (it is the peer's answer) but never cached: without the
	// envelope the router does not know the version it answers for.
	n := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "{\n  \"version\": 3,\n  \"query\": \"q\"\n}\n")
	})
	router, err := New([]*Node{n}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		router.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?doc=d&q=q", nil))
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["node"] != n.Name() || out["version"] != 3.0 {
			t.Fatalf("foreign layout: status %d, body %s (%v)", rec.Code, rec.Body, err)
		}
		if rec.Header().Get("X-Router-Cache") != "" {
			t.Fatal("an answer without a readable envelope was served from the cache")
		}
	}

	oversized := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(int64(responseLimit)+1))
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"query":"q"`) // the rest never comes; it is never asked for
	})
	if _, _, err := oversized.Query(context.Background(), "d", "q", false); !errors.Is(err, ErrPeer) {
		t.Errorf("declared oversized body: err = %v, want ErrPeer", err)
	}
	for _, declared := range []int64{-1, 11, 5} {
		resp := &http.Response{ContentLength: declared, Body: io.NopCloser(strings.NewReader("0123456789A"))}
		raw, err := readBody(resp, 10)
		if declared != 5 && !errors.Is(err, errOversizeResponse) {
			t.Errorf("11 bytes (Content-Length %d) under a 10-byte limit: %q, %v; want errOversizeResponse", declared, raw, err)
		}
		if declared == 5 && (err != nil || string(raw) != "01234") {
			t.Errorf("declared 5 bytes: %q, %v", raw, err)
		}
	}
}

// TestStreamThatAnswersTooLittle: a backend stream that ends in good
// order without a line for every job — or that carries lines the
// router cannot read — still yields exactly one line per job, the
// unanswered ones as typed error lines naming the node; and a line
// that is not JSON breaks the stream off like a dropped connection.
func TestStreamThatAnswersTooLittle(t *testing.T) {
	answer := func(index int, q string) []byte {
		one := 1.0
		return serve.AppendBatchLine(nil, &serve.BatchLine{Index: index, Doc: "d", RequestID: "r", QueryResponse: serve.QueryResponse{
			Query: q, Fragment: "core", Strategy: "corexpath", Version: 4,
			Value: &serve.ValueJSON{Kind: "number", String: "1", Number: &one},
		}})
	}
	for _, c := range []struct {
		name      string
		stream    string
		wantError string // on jobs 1 and 2
	}{
		{"clean end", string(answer(0, "q0")), "stream ended without a line for this job"},
		{"unreadable lines", string(answer(0, "q0")) + `{"foo":1}` + "\n" + `{ "index": 1, "query": "q1" }` + "\n\n" + `{"index":7,"query":"q"}` + "\n", "stream ended without a line for this job"},
		{"not json", string(answer(0, "q0")) + "garbage\n" + string(answer(1, "q1")), "mid-stream"},
		{"cut mid-line", string(answer(0, "q0")) + `{"index":1,"query":"q1","fra`, "mid-stream"},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				io.WriteString(w, c.stream)
			})
			router, err := New([]*Node{n}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(router.Handler())
			defer ts.Close()
			resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(`{"doc":"d","queries":["q0","q1","q2"]}`))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			lines := readNDJSON(t, resp)
			if len(lines) != 3 {
				t.Fatalf("%d lines for 3 jobs: %v", len(lines), lines)
			}
			seen := map[float64]bool{}
			for _, l := range lines {
				i := l["index"].(float64)
				if seen[i] {
					t.Fatalf("index %v twice: %v", i, lines)
				}
				seen[i] = true
				if l["node"] != n.Name() || l["doc"] != "d" || l["query"] != fmt.Sprintf("q%d", int(i)) {
					t.Errorf("line %v lacks its tags", l)
				}
				msg, _ := l["error"].(string)
				switch {
				case i == 0 && (msg != "" || l["version"] != 4.0 || l["value"] == nil):
					t.Errorf("the answered job's line was not relayed: %v", l)
				case i > 0 && !strings.Contains(msg, c.wantError):
					t.Errorf("job %v: error %q, want one naming %q", i, msg, c.wantError)
				case i > 0 && l["request_id"] == nil:
					t.Errorf("job %v: the router's own line carries no request_id: %v", i, l)
				}
			}
		})
	}
}

// TestStreamJobsLongLines: lines longer than the pooled reader's buffer
// arrive whole, newline included, and short ones after them are not
// mixed up with the spill.
func TestStreamJobsLongLines(t *testing.T) {
	long := `{"index":0,"query":"` + strings.Repeat("x", 100<<10) + `"}` + "\n"
	short := `{"index":1,"query":"y"}` + "\n"
	n := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		bw := bufio.NewWriter(w)
		bw.WriteString(long + short + "\n" + long + short)
		bw.Flush()
	})
	var got []string
	err := n.StreamJobs(context.Background(), []serve.BatchJob{{Doc: "d", Query: "q"}}, func(line []byte) error {
		got = append(got, string(line))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{long, short, long, short}; len(got) != 4 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Fatalf("got %d lines of lengths %v", len(got), func() (l []int) {
			for _, g := range got {
				l = append(l, len(g))
			}
			return
		}())
	}
}

// recordedWrite is one POST /documents a backend was sent.
type recordedWrite struct {
	node string
	body string
}

// recordWrites wraps every backend's transport so the test sees the
// registration bodies the router puts on the wire, byte for byte.
func recordWrites(backends []*backend) func() []recordedWrite {
	var mu sync.Mutex
	var writes []recordedWrite
	for _, b := range backends {
		node := b.node.Name()
		b.node.WrapTransport(func(next http.RoundTripper) http.RoundTripper {
			return roundTripFunc(func(req *http.Request) (*http.Response, error) {
				if req.Method == http.MethodPost && req.URL.Path == "/documents" {
					body, _ := io.ReadAll(req.Body)
					req.Body = io.NopCloser(bytes.NewReader(body))
					mu.Lock()
					writes = append(writes, recordedWrite{node, string(body)})
					mu.Unlock()
				}
				return next.RoundTrip(req)
			})
		})
	}
	return func() []recordedWrite {
		mu.Lock()
		defer mu.Unlock()
		out := writes
		writes = nil
		return out
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestRelayKeepsClientBytes is the request direction of
// TestRelayKeepsBackendBytes. (document → version) is the key a copy is
// right under, so the replica must be sent the owner's version paired
// with the very bytes the owner parsed: the owner receives the client's
// body untouched, each mirror the same bytes with only ,"version":N
// spliced in front of the closing brace, and the router never decodes
// the document to get there.
func TestRelayKeepsClientBytes(t *testing.T) {
	_, ts, backends := newCluster(t, 2, Options{Replicas: 1}, store.Config{})
	taken := recordWrites(backends)
	doc := namesOwnedBy(2, 1)[0][0]
	owner, mirror := backends[0].node.Name(), backends[1].node.Name()
	// Escaped three ways at once (<, \", raw multi-byte), members in
	// the other order, whitespace inside and after: nothing a re-encoder
	// would keep.
	body := ` { "xml" : "<a k=\"v\">é é ✓ 😀<b/>\n</a>" , "name":"` + doc + `" }` + "\n"
	resp, raw := rawPost(t, ts.URL+"/documents", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, raw)
	}
	var reply serve.DocumentResponse
	if err := json.Unmarshal(raw, &reply); err != nil || reply.Node != owner || len(reply.Replicas) != 1 || reply.Replicas[0] != mirror || reply.Nodes != 5 {
		t.Fatalf("reply %s decodes to %+v, %v", raw, reply, err)
	}
	writes := taken()
	if len(writes) != 2 || writes[0] != (recordedWrite{owner, body}) {
		t.Fatalf("writes %q; want the owner %s sent the client's bytes first", writes, owner)
	}
	end := strings.LastIndexByte(body, '}')
	if want := (recordedWrite{mirror, fmt.Sprintf(`%s,"version":%d}`, body[:end], reply.Version)}); writes[1] != want {
		t.Fatalf("mirror write\n%q\nwant the client's bytes with the owner's version spliced in\n%q", writes[1], want)
	}
	for i, b := range backends {
		info, err := b.node.GetDocument(context.Background(), doc)
		if err != nil || info.Version != reply.Version || !strings.Contains(info.XML, "é é ✓ \U0001F600<b/>") {
			t.Errorf("backend %d holds %+v, %v; want version %d of the document", i, info, err, reply.Version)
		}
	}

	// A client-echoed version never reaches a backend: the owner would
	// take it for a stale mirror write and skip it under a 200.
	echoed := `{"name":"` + doc + `","version":1,"xml":"<a>echoed</a>"}`
	resp, raw = rawPost(t, ts.URL+"/documents", echoed)
	if err := json.Unmarshal(raw, &reply); err != nil || resp.StatusCode != http.StatusOK || reply.Version <= 1 {
		t.Fatalf("echoed version: %d %s", resp.StatusCode, raw)
	}
	writes = taken()
	ownerBody := `{"name":"` + doc + `","xml":"<a>echoed</a>"}`
	if len(writes) != 2 || writes[0] != (recordedWrite{owner, ownerBody}) {
		t.Fatalf("writes %q; want the owner sent %s — the xml token as the client wrote it, no version", writes, ownerBody)
	}
	if want := fmt.Sprintf(`%s,"version":%d}`, ownerBody[:len(ownerBody)-1], reply.Version); writes[1].body != want {
		t.Fatalf("mirror write %q, want %q", writes[1].body, want)
	}

	// A body the scanner declines (a key encoding/json matches by case
	// folding) still registers, through decode and re-encode.
	resp, raw = rawPost(t, ts.URL+"/documents", `{"NAME":"`+doc+`","xml":"<a>folded</a>","version":null}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("case-folded key: %d %s", resp.StatusCode, raw)
	}
	if writes = taken(); len(writes) != 2 || writes[0].body != `{"name":"`+doc+`","xml":"\u003ca\u003efolded\u003c/a\u003e"}` {
		t.Fatalf("writes %q; want the re-encoded registration", writes)
	}

	// What is not a registration is a 400 and nothing is forwarded.
	for body, want := range map[string]string{
		`{"name":"` + doc + `","xml":"<a/>"`:        "invalid JSON",
		`{"name":"` + doc + `","xml":"<a/>"} x`:     "invalid JSON",
		`{"name":"` + doc + `","xml":"<a/>"}{}`:     "invalid JSON",
		`{"name":"` + doc + `","xml":7}`:            "invalid JSON",
		`{"name":"` + doc + `","xml":"\ud800<a/>"}`: "parse " + doc, // U+FFFD once encoding/json has read it: text outside the document element
		`not json`:                          "invalid JSON",
		``:                                  "invalid JSON",
		`{"name":"` + doc + `","xml":""}`:   "both name and xml are required",
		`{"name":"` + doc + `"}`:            "both name and xml are required",
		`{"name":"","xml":"<a/>"}`:          "both name and xml are required",
		`{"xml":"<a/>","version":3}`:        "both name and xml are required",
		`{"name":"` + doc + `","xml":null}`: "both name and xml are required",
		`null`:                              "both name and xml are required",
		`{"name":"` + doc + `","xml":"<a>","x":"y"}`: "parse " + doc,
	} {
		resp, raw := rawPost(t, ts.URL+"/documents", body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), want) {
			t.Errorf("%s: %d %s; want 400 %q", body, resp.StatusCode, raw, want)
		}
		if writes := taken(); len(writes) != 0 && !strings.HasPrefix(want, "parse") {
			t.Errorf("%s: forwarded %q", body, writes)
		}
	}
}

// TestReconcileResplicesVersion: when a replica holds the document
// above the version the owner assigned, the reconciliation round sends
// the owner, then the replica, the same client bytes with the raised
// version spliced in — not the first round's body again.
func TestReconcileResplicesVersion(t *testing.T) {
	_, ts, backends := newCluster(t, 2, Options{Replicas: 1, AnswerCacheSize: -1}, store.Config{})
	doc := namesOwnedBy(2, 1)[0][0]
	if _, _, err := backends[1].node.PutDocumentAt(context.Background(), doc, "<a>diverged</a>", 500); err != nil {
		t.Fatal(err)
	}
	taken := recordWrites(backends)
	body := `{"name":"` + doc + `","xml":"<a>new</a>"}`
	resp, raw := rawPost(t, ts.URL+"/documents", body)
	var reply serve.DocumentResponse
	if err := json.Unmarshal(raw, &reply); err != nil || resp.StatusCode != http.StatusOK || reply.Version != 501 {
		t.Fatalf("register: %d %s; want version 501", resp.StatusCode, raw)
	}
	spliced := func(ver uint64) string { return fmt.Sprintf(`%s,"version":%d}`, body[:len(body)-1], ver) }
	owner, mirror := backends[0].node.Name(), backends[1].node.Name()
	want := []recordedWrite{{owner, body}, {mirror, spliced(1)}, {owner, spliced(501)}, {mirror, spliced(501)}}
	if writes := taken(); !reflect.DeepEqual(writes, want) {
		t.Fatalf("writes\n%q\nwant\n%q", writes, want)
	}
}

// TestLyingContentLengthBuysNoMemory: the router reads a registration
// with serve.ReadBody, so a head that declares 32 MB in front of ten
// bytes costs it no more than the read's up-front room (1 MB), and gets
// the 400 a truncated body always got, with nothing forwarded.
func TestLyingContentLengthBuysNoMemory(t *testing.T) {
	const bound = 1<<20 + 256<<10
	b := newBackend(t, store.Config{})
	router, err := New([]*Node{b.node}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw := "POST /documents HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 33554432\r\n\r\n" + `{"name":"d`
	req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	router.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("a lying registration allocated %d bytes in the router, want under %d", got, bound)
	}
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "invalid JSON: unexpected EOF") {
		t.Errorf("%d %s, want 400 invalid JSON: unexpected EOF", rec.Code, rec.Body)
	}
	if names := b.srv.DocNames(); len(names) != 0 {
		t.Errorf("the backend holds %v after a refused registration", names)
	}
}
