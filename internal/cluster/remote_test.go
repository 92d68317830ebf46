package cluster

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/store"
)

// backend is one real xpathserve node under test: the serve.Server (so
// tests can reach through to its engine and store), the httptest
// server carrying it, and a Node client pointed at it.
type backend struct {
	srv  *serve.Server
	ts   *backendServer
	node *Node
}

// backendServer is the httptest server of a backend. Its Close and
// CloseClientConnections also drop the peer connections the server
// hijacked, which httptest.Server does not track: a node taken down
// must look like a dead process to the routers pooling connections to
// it.
type backendServer struct {
	*httptest.Server
	srv *serve.Server
}

func (b *backendServer) Close() {
	b.Server.Close()
	b.dropPeers()
}

func (b *backendServer) CloseClientConnections() {
	b.Server.CloseClientConnections()
	b.dropPeers()
}

func (b *backendServer) dropPeers() {
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	b.srv.CloseConns(gone)
}

func newBackend(t *testing.T, cfg store.Config) *backend {
	t.Helper()
	srv := serve.New(engine.New(engine.Options{CacheSize: 32, Workers: 2}), cfg)
	ts := &backendServer{Server: httptest.NewServer(srv.Handler()), srv: srv}
	t.Cleanup(ts.Close)
	node, err := NewNode(ts.URL, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return &backend{srv: srv, ts: ts, node: node}
}

// TestRemoteRoundTrip drives the full store.Store surface over a live
// backend: Put, Get, Range, Stats, Delete — the same contract the
// in-process Sharded store satisfies, against another process's corpus.
func TestRemoteRoundTrip(t *testing.T) {
	b := newBackend(t, store.Config{})
	r := NewRemote(b.node, 5*time.Second)

	if _, err := r.Put("alpha", "<a><b/><b/></a>", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("beta", "<x><y/></x>", 0); err != nil {
		t.Fatal(err)
	}
	xml, ok := r.Get("alpha")
	if !ok || xml == "" {
		t.Fatalf("Get(alpha) = %q, %v", xml, ok)
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("Get of a missing document succeeded")
	}
	if err := r.Err(); err != nil {
		t.Fatalf("a miss is not a failure, but Err() = %v", err)
	}

	seen := map[string]bool{}
	r.Range(func(k, v string, size int64) bool {
		if v == "" || size <= 0 {
			t.Errorf("Range(%s) carried no document: %q, %d", k, v, size)
		}
		seen[k] = true
		return true
	})
	if !seen["alpha"] || !seen["beta"] || len(seen) != 2 {
		t.Fatalf("Range visited %v, want alpha and beta", seen)
	}

	if st := r.Stats(); st.Entries != 2 {
		t.Fatalf("Stats().Entries = %d, want 2", st.Entries)
	}
	if !r.Delete("alpha") || r.Delete("alpha") {
		t.Fatal("Delete should report presence exactly once")
	}
	if st := r.Stats(); st.Entries != 1 {
		t.Fatalf("after delete Stats().Entries = %d, want 1", st.Entries)
	}
	// The remote and the backend agree: the backend really holds beta.
	if _, ok := b.srv.Session("beta"); !ok {
		t.Fatal("backend lost beta")
	}
}

// TestRemoteTypedErrors pins the error mapping: a full remote store is
// store.ErrFull (same sentinel as a full local store), malformed XML
// is an ErrPeer with the backend's 400, and an unreachable peer is
// ErrUnavailable — also surfaced through Err() when the interface
// methods had to swallow it.
func TestRemoteTypedErrors(t *testing.T) {
	b := newBackend(t, store.Config{MaxEntries: 1})
	r := NewRemote(b.node, time.Second)

	if _, err := r.Put("one", "<a/>", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("two", "<b/>", 0); !errors.Is(err, store.ErrFull) {
		t.Fatalf("over-cap Put err = %v, want store.ErrFull", err)
	}
	var pe *PeerError
	if _, err := r.Put("one", "<unclosed", 0); !errors.As(err, &pe) || pe.Status != 400 {
		t.Fatalf("malformed XML err = %v, want PeerError with status 400", err)
	}
	if _, err := r.Put("one", "<unclosed", 0); !errors.Is(err, ErrPeer) {
		t.Fatal("PeerError does not match ErrPeer")
	}

	b.ts.Close() // the peer goes away
	if _, err := r.Put("one", "<a/>", 0); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Put against downed peer err = %v, want ErrUnavailable", err)
	}
	if _, ok := r.Get("one"); ok {
		t.Fatal("Get against downed peer succeeded")
	}
	if err := r.Err(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Err() = %v, want ErrUnavailable", err)
	}
	if b.node.Healthy() {
		t.Fatal("node still marked healthy after connection failures")
	}
}

// TestRangeDocumentsContextCancelled pins the regression the ctxhttp
// analyzer guards against: a corpus walk must be tied to its caller's
// context. A cancelled context stops the walk — before the listing
// when cancelled up front, and between per-document fetches when
// cancelled mid-walk — instead of the walk grinding through every
// document on swallowed timeouts.
func TestRangeDocumentsContextCancelled(t *testing.T) {
	b := newBackend(t, store.Config{})
	r := NewRemote(b.node, 5*time.Second)
	for _, name := range []string{"a", "b", "c"} {
		if _, err := r.Put(name, "<d><e/></d>", 0); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visited := 0
	r.RangeDocumentsContext(ctx, func(serve.DocInfo) bool {
		visited++
		return true
	})
	if visited != 0 {
		t.Fatalf("pre-cancelled walk visited %d documents, want 0", visited)
	}
	if err := r.Err(); err == nil {
		t.Fatal("pre-cancelled walk left Err() nil; the failure was swallowed")
	}

	// Cancelling mid-walk stops before the next fetch.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	visited = 0
	r.RangeDocumentsContext(ctx, func(serve.DocInfo) bool {
		visited++
		cancel()
		return true
	})
	if visited != 1 {
		t.Fatalf("mid-walk cancellation visited %d documents, want 1", visited)
	}

	// An undisturbed context changes nothing: all three visited.
	visited = 0
	r.RangeDocumentsContext(context.Background(), func(serve.DocInfo) bool {
		visited++
		return true
	})
	if visited != 3 {
		t.Fatalf("uncancelled walk visited %d documents, want 3", visited)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("uncancelled walk Err() = %v, want nil", err)
	}
}
