package cluster

import (
	"context"
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
