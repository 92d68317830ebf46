package serve

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestShutdownDrainsPeerConnections is xpathserve's drain on the
// connections routers pool: Shutdown closes an idle one at once, lets
// a /batch in flight on another run to its end — answered with
// Connection: close, so the router does not pool a connection the
// backend is about to close — and refuses new calls.
func TestShutdownDrainsPeerConnections(t *testing.T) {
	srv := New(engine.New(engine.Options{CacheSize: 32, Workers: 1}), store.Config{})
	srv.SetLogger(quiet())
	// The batch waits before its handler runs, so that all of its answer
	// is written during the drain.
	f, err := resilience.ParseFaults("latency:path=/batch;d=1s", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFaults(f)
	if _, _, err := srv.AddDocument("d", workload.Doc(3000).XMLString()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	base, key := "http://"+ln.Addr().String(), ln.Addr().String()
	// Two routers: one with a batch in flight, one with an idle
	// connection.
	tr, other := NewPeerTransport(5*time.Second), NewPeerTransport(5*time.Second)
	pooled := func(tr *PeerTransport) []*peerClientConn {
		pool := *tr.idle.Lock()
		defer tr.idle.Unlock()
		return append([]*peerClientConn(nil), pool[key]...)
	}
	ctx := context.Background()

	const slow = "count(//*[count(preceding::*) > count(following::*)])"
	type result struct {
		resp *http.Response
		err  error
	}
	batch := make(chan result, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/batch", strings.NewReader(`{"doc":"d","queries":["count(/*)","`+slow+`","`+slow+`"]}`))
		resp, err := tr.RoundTrip(req)
		batch <- result{resp, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); !srv.conns.active(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the batch never reached the backend")
		}
	}
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if resp, err := other.RoundTrip(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	idle := pooled(other)
	if len(idle) != 1 {
		t.Fatalf("%d pooled connections, want 1", len(idle))
	}

	drained := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 20*time.Second)
		defer cancel()
		drained <- srv.Shutdown(sctx)
	}()
	idle[0].conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle[0].br.Peek(1); err != io.EOF {
		t.Fatalf("idle peer connection on shutdown: %v, want it closed (EOF)", err)
	}
	res := <-batch
	if res.err != nil {
		t.Fatalf("batch: %v", res.err)
	}
	if !res.resp.Close {
		t.Fatalf("the batch answered during the drain without Connection: close: %v", res.resp.Header)
	}
	lines := bufio.NewReader(res.resp.Body)
	for i := 0; i < 3; i++ {
		line, err := lines.ReadBytes('\n')
		if err != nil || !bytes.Contains(line, []byte(`"value"`)) {
			t.Fatalf("line %d of the in-flight batch: %q, %v", i+1, line, err)
		}
	}
	if _, err := lines.ReadByte(); err != io.EOF {
		t.Fatalf("after the last line: %v, want the end of the body", err)
	}
	res.resp.Body.Close()
	if n := len(pooled(tr)); n != 0 {
		t.Fatalf("%d connections pooled after a drained answer, want none", n)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	req, _ = http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if resp, err := tr.RoundTrip(req); err == nil {
		resp.Body.Close()
		t.Fatal("a call after shutdown was answered")
	}
}

// active reports whether a request is running on one of the loop's
// connections.
func (l *Loop) active() bool {
	st := l.state.Lock()
	defer l.state.Unlock()
	for c := range st.conns {
		p := c.state.Lock().phase
		c.state.Unlock()
		if p == phaseActive {
			return true
		}
	}
	return false
}

// TestPeerTransportRefusesUnsafeHeads: a call whose target or
// X-Request-Id holds a byte an HTTP/1.1 head cannot carry — CR, LF,
// another control byte, a space in the target — fails, and the peer
// receives nothing: no header can be smuggled into the head.
func TestPeerTransportRefusesUnsafeHeads(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Connections are read one after another, in the order they were
	// made, up to the marker connection the test makes last.
	received := make(chan int64, 1)
	go func() {
		var total int64
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			b, _ := io.ReadAll(nc)
			nc.Close()
			if string(b) == "marker" {
				received <- total
				return
			}
			total += int64(len(b))
		}
	}()
	tr := NewPeerTransport(time.Second) // a call that reaches the peer waits this long for an answer
	for _, c := range []struct{ id, query string }{
		{id: "a\r\nX-Smuggled: 1"},
		{id: "a\nX-Smuggled: 1"},
		{id: "a\rb"},
		{id: "a\x00b"},
		{id: "a\x1bb"},
		{id: "a\x7fb"},
		{query: "q=1\r\nX-Smuggled: 1"},
		{query: "q=1\n"},
		{query: "q=\x00"},
		{query: "q=1 HTTP/1.0"},
	} {
		req, err := http.NewRequest(http.MethodPost, "http://"+ln.Addr().String()+"/query", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		req.URL.RawQuery = c.query
		if c.id != "" {
			req.Header.Set("X-Request-Id", c.id)
		}
		if resp, err := tr.RoundTrip(req); err == nil {
			resp.Body.Close()
			t.Errorf("id %q, query %q: the call was made", c.id, c.query)
		}
	}
	marker, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(marker, "marker")
	marker.Close()
	select {
	case n := <-received:
		if n != 0 {
			t.Fatalf("the peer received %d bytes", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the peer is still reading a connection the transport left open")
	}
}
