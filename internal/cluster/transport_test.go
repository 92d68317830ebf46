package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workload"
)

// The tests in this file hold the router↔backend hop — keep-alive
// HTTP/1.1 on pooled connections (serve.PeerTransport), served by the
// backend's connection loop — to what net/http's client gets.

// TestPeerTransportAnswersAsNetHTTP: a backend answers each request the
// same to serve.PeerTransport as to net/http's client — status and
// bytes — for every endpoint a router calls and every error status.
// Two backends, each served as xpathserve serves, run the same script,
// one per client, so versions and counters line up; only what a clock
// or a per-process seed decides (ages, uptimes, time saved, span trees,
// doorkeeper admissions) is masked, and batch lines, which arrive in
// completion order, are compared as a set.
func TestPeerTransportAnswersAsNetHTTP(t *testing.T) {
	// A document whose fetch is larger than the transport's buffer and
	// a write the answer's writer holds.
	big := "<a>" + strings.Repeat("<b>x</b>", 50_000) + "</a>"
	newServer := func() string {
		srv := serve.New(engine.New(engine.Options{CacheSize: 32, Workers: 2}), store.Config{})
		srv.SetMaxBody(4 << 10) // small enough to reach 413 cheaply
		if _, _, err := srv.AddDocument("big", big); err != nil {
			t.Fatal(err)
		}
		return serveLoop(t, srv)
	}
	viaHTTP, viaPeer := newServer(), newServer()
	peer := &http.Client{Transport: serve.NewPeerTransport(5 * time.Second)}
	deep := strings.Repeat("(", 2000) + "1" + strings.Repeat(")", 2000)
	for _, c := range []struct {
		method, path, body string
		status             int
		volatile           bool // compare with clock-set members masked
	}{
		{"POST", "/documents", `{"name":"d","xml":"<a><b>1</b><b>2</b><c/></a>"}`, 200, false},
		{"POST", "/documents", `{"name":"d","xml":"<a><b>1</b><b>2</b><b>3</b></a>"}`, 200, false},
		{"POST", "/query", `{"doc":"d","query":"count(//b)"}`, 200, false},
		{"POST", "/query", `{"doc":"d","query":"count(//b)"}`, 200, false},
		{"POST", "/query?trace=1", `{"doc":"d","query":"//b"}`, 200, true},
		{"GET", "/query?doc=d&q=sum(//b)", "", 200, false},
		{"POST", "/batch", `{"doc":"d","queries":["count(//b)","//b","1 div 0","//["]}`, 200, true},
		{"POST", "/batch", `{"jobs":[{"doc":"d","query":"1"},{"doc":"nope","query":"2"}]}`, 200, true},
		{"GET", "/documents", "", 200, true},
		{"GET", "/documents?name=d", "", 200, true},
		{"GET", "/documents?name=big", "", 200, true},
		{"GET", "/stats", "", 200, true},
		{"GET", "/healthz", "", 200, true},
		{"POST", "/query", `{"doc":"nope","query":"1"}`, 404, false},
		{"POST", "/query", `{"doc":`, 400, false},
		{"POST", "/query", `{"doc":"d","query":"//["}`, 422, false},
		{"GET", "/query?doc=d&q=" + deep, "", 400, false},
		{"PUT", "/query", "", 405, false},
		{"GET", "/batch", "", 405, false},
		{"PUT", "/stats", "", 405, false},
		{"POST", "/documents", `{"name":"x","xml":"<a>"}`, 400, false},
		{"POST", "/documents", `{"name":"huge","xml":"` + strings.Repeat("<a/>", 2000) + `"}`, 413, false},
		{"DELETE", "/documents?name=nope", "", 404, false},
		{"DELETE", "/documents?name=d", "", 200, false},
		{"GET", "/nowhere", "", 404, false},
	} {
		hs, hb := exchange(t, http.DefaultClient, viaHTTP, c.method, c.path, c.body)
		ps, pb := exchange(t, peer, viaPeer, c.method, c.path, c.body)
		if hs != c.status || ps != hs {
			t.Errorf("%s %.60s: status %d to net/http, %d to PeerTransport; want %d", c.method, c.path, hs, ps, c.status)
			continue
		}
		if c.volatile {
			hb, pb = masked(t, hb), masked(t, pb)
		}
		if !bytes.Equal(hb, pb) {
			t.Errorf("%s %.60s: bytes differ\nnet/http:      %s\nPeerTransport: %s", c.method, c.path, hb, pb)
		}
	}
}

// serveLoop serves srv on a loopback port through its connection loop,
// as xpathserve does, and returns the base URL.
func serveLoop(t testing.TB, srv *serve.Server) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return "http://" + ln.Addr().String()
}

// exchange sends one request under a fixed request ID and returns the
// status and the body.
func exchange(t *testing.T, client *http.Client, base, method, path, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "transport-test")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %.60s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %.60s: reading the body: %v", method, path, err)
	}
	return resp.StatusCode, out
}

// masked re-encodes a JSON or NDJSON body without the members a clock
// sets — or the compile cache's doorkeeper, whose hash is seeded per
// process (cache rejects and size) — its lines sorted. A "trace" member
// must be present and is masked too.
func masked(t *testing.T, b []byte) []byte {
	t.Helper()
	var drop func(v any)
	drop = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for _, k := range []string{"idle_ms", "uptime_ms", "compile_ns_saved", "compile_time_saved", "rejects", "size"} {
				delete(v, k)
			}
			if _, ok := v["trace"]; ok {
				v["trace"] = "present"
			}
			for _, m := range v {
				drop(m)
			}
		case []any:
			for _, m := range v {
				drop(m)
			}
		}
	}
	var lines []string
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		var v any
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatalf("not JSON: %s", line)
		}
		drop(v)
		out, _ := json.Marshal(v)
		lines = append(lines, string(out))
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n"))
}

// TestCancelStopsBackendBatch: cancelling the router's context stops a
// backend's /batch within one line — the backend's request is cancelled
// when its router hangs up, not when its evaluation ends.
func TestCancelStopsBackendBatch(t *testing.T) {
	b := newBackend(t, store.Config{})
	if _, _, err := b.srv.AddDocument("big", workload.Doc(30000).XMLString()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := []serve.BatchJob{{Doc: "big", Query: "count(/*)"}, {Doc: "big", Query: slowQuery}, {Doc: "big", Query: slowQuery}}
	var lines atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- b.node.StreamJobs(ctx, jobs, func([]byte) error {
			lines.Add(1)
			return nil
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for b.srv.Engine().Stats().InFlight < 1 || lines.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the batch never got going: %d lines, %+v", lines.Load(), b.srv.Engine().Stats())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	start := time.Now()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream = %v, want context.Canceled", err)
	}
	for b.srv.Engine().Stats().InFlight != 0 {
		if time.Since(start) > 2*time.Second {
			t.Fatalf("backend still evaluating %v after the router hung up: %+v", time.Since(start), b.srv.Engine().Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := lines.Load(); n != 1 {
		t.Fatalf("%d lines, want the one before the cancel", n)
	}
}

// TestPeerDeadlines: a unary call is bounded by its context's deadline
// end to end; a stream only until its head — the dial and the head are
// bounded by the node timeout, the body by nothing but the caller.
func TestPeerDeadlines(t *testing.T) {
	peer := func(h http.HandlerFunc, timeout time.Duration) *Node {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		n, err := NewNode(ts.URL, timeout)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	slowBody := func(w http.ResponseWriter, r *http.Request) {
		write := serve.OpenStream(r.Context(), w)
		for i := 0; i < 2; i++ {
			select {
			case <-time.After(400 * time.Millisecond):
			case <-r.Context().Done():
				return
			}
			write([]byte(`{"index":0}` + "\n"))
		}
	}

	// Unary: the carved deadline (here the caller's 200ms) cuts a call
	// the peer is slow to answer, though the node allows 5s.
	n := peer(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
		w.Write([]byte("{}"))
	}, 5*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := n.GetDocument(ctx, "x"); err == nil || time.Since(start) > time.Second {
		t.Fatalf("unary call past its deadline: %v after %v", err, time.Since(start))
	}

	// A unary call whose head arrives in time but whose body outlasts
	// the deadline is cut too.
	n = peer(slowBody, 5*time.Second)
	ctx, cancel = context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := n.GetDocument(ctx, "x"); !errors.Is(err, context.DeadlineExceeded) || time.Since(start) > 1500*time.Millisecond {
		t.Fatalf("unary body past its deadline: %v after %v", err, time.Since(start))
	}

	// A stream whose lines come slower than the 300ms node timeout runs
	// to its end: the head came at once.
	n = peer(slowBody, 300*time.Millisecond)
	lines := 0
	start = time.Now()
	if err := n.StreamJobs(context.Background(), []serve.BatchJob{{Doc: "d", Query: "q"}}, func([]byte) error { lines++; return nil }); err != nil || lines != 2 {
		t.Fatalf("slow stream: %d lines, %v after %v", lines, err, time.Since(start))
	}

	// A stream whose head is later than the node timeout is not waited
	// for.
	n = peer(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
	}, 300*time.Millisecond)
	start = time.Now()
	if err := n.StreamJobs(context.Background(), nil, func([]byte) error { return nil }); !errors.Is(err, ErrUnavailable) || time.Since(start) > time.Second {
		t.Fatalf("stream without a head: %v after %v", err, time.Since(start))
	}
}

// TestUncleanConnectionsAreNotPooled: a connection goes back to the pool
// only after a body read to its end. One whose stream the caller
// abandoned, whose call was cut short by its deadline, whose body was
// refused unread, or whose answer said Connection: close is closed, and
// the next call opens a fresh one.
func TestUncleanConnectionsAreNotPooled(t *testing.T) {
	stream := func(w http.ResponseWriter, r *http.Request) {
		write := serve.OpenStream(r.Context(), w)
		for i := 0; i < 3; i++ {
			write([]byte(`{"index":0}` + "\n"))
			time.Sleep(20 * time.Millisecond)
		}
	}
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/batch":
			stream(w, r)
		case "/documents":
			if r.URL.Query().Get("name") == "slow" {
				stream(w, r)
				return
			}
			w.Header().Set("Content-Length", "999999999999")
			w.Write([]byte(`{"name":`))
		case "/stats":
			w.Header().Set("Connection", "close")
			w.Write([]byte(`{}`))
		default:
			w.Write([]byte(`{"query":"q"}`))
		}
	}))
	var opened atomic.Int32
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	n, err := NewNode(ts.URL, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	query := func() {
		t.Helper()
		if _, _, err := n.Query(ctx, "d", "q", false); err != nil {
			t.Fatalf("query: %v", err)
		}
	}
	expect := func(what string, want int32) {
		t.Helper()
		if got := opened.Load(); got != want {
			t.Fatalf("%s: %d connections opened, want %d", what, got, want)
		}
	}

	for i := 0; i < 3; i++ {
		query()
	}
	expect("three clean calls", 1)

	quit := errors.New("enough")
	if err := n.StreamJobs(ctx, nil, func([]byte) error { return quit }); !errors.Is(err, quit) {
		t.Fatalf("abandoned stream: %v", err)
	}
	query()
	expect("a call after an abandoned stream", 2)

	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, err := n.GetDocument(short, "slow"); err == nil {
		t.Fatal("a call past its deadline succeeded")
	}
	query()
	expect("a call after one cut short by its deadline", 3)

	if _, err := n.GetDocument(ctx, "oversized"); !errors.Is(err, ErrPeer) {
		t.Fatalf("declared oversized body: %v, want ErrPeer", err)
	}
	query()
	query()
	expect("calls after a body refused unread", 4)

	if _, err := n.Stats(ctx); err != nil {
		t.Fatalf("stats: %v", err)
	}
	query()
	expect("a call after an answer that said Connection: close", 5)
}

// TestFaultsFireOnPeerCalls: each resilience.Faults kind fires on a
// router's calls, on the backend's surface (-fault-spec) and on the
// router's transport (WrapTransport).
func TestFaultsFireOnPeerCalls(t *testing.T) {
	lines := func(n *Node) (int, error) {
		count := 0
		err := n.StreamJobs(context.Background(), []serve.BatchJob{{Doc: "d", Query: "1"}, {Doc: "d", Query: "2"}, {Doc: "d", Query: "3"}}, func([]byte) error {
			count++
			return nil
		})
		return count, err
	}
	check := func(t *testing.T, n *Node, f *resilience.Faults, kind string) {
		ctx := context.Background()
		var err error
		switch kind {
		case "refuse":
			_, _, err = n.Query(ctx, "d", "1", false)
			if !errors.Is(err, ErrUnavailable) {
				t.Errorf("refuse: %v, want ErrUnavailable", err)
			}
		case "latency":
			start := time.Now()
			if _, _, err = n.Query(ctx, "d", "1", false); err != nil || time.Since(start) < 150*time.Millisecond {
				t.Errorf("latency: %v after %v", err, time.Since(start))
			}
		case "err":
			var pe *PeerError
			if _, err = n.GetDocument(ctx, "d"); !errors.As(err, &pe) || pe.Status != http.StatusServiceUnavailable {
				t.Errorf("err: %v, want a 503 PeerError", err)
			}
		case "cut":
			var count int
			if count, err = lines(n); !errors.Is(err, ErrUnavailable) || count > 1 {
				t.Errorf("cut: %d lines, %v; want at most one line and ErrUnavailable", count, err)
			}
		}
		if fired := f.Fired(); fired[0] == 0 {
			t.Errorf("%s never fired", kind)
		}
	}
	specs := map[string]string{
		"refuse":  "refuse:path=/query",
		"latency": "latency:path=/query;d=150ms",
		"err":     "err:path=/documents;code=503",
	}
	for _, kind := range []string{"refuse", "latency", "err", "cut"} {
		t.Run("backend/"+kind, func(t *testing.T) {
			spec := specs[kind]
			if kind == "cut" {
				spec = "cut:path=/batch;after=1"
			}
			f, err := resilience.ParseFaults(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			srv := serve.New(engine.New(engine.Options{CacheSize: 32, Workers: 1}), store.Config{})
			srv.SetFaults(f)
			if _, _, err := srv.AddDocument("d", "<a/>"); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			n, err := NewNode(ts.URL, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			check(t, n, f, kind)
		})
		t.Run("router/"+kind, func(t *testing.T) {
			spec := specs[kind]
			if kind == "cut" {
				spec = "cut:path=/batch;after=10"
			}
			f, err := resilience.ParseFaults(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			b := newBackend(t, store.Config{})
			if _, _, err := b.srv.AddDocument("d", "<a/>"); err != nil {
				t.Fatal(err)
			}
			b.node.WrapTransport(f.Transport)
			check(t, b.node, f, kind)
		})
	}
}
