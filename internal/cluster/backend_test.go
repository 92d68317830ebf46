package cluster

import (
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
	ts   *httptest.Server
	node *Node
}

func newBackend(t *testing.T, cfg store.Config) *backend {
	t.Helper()
	srv := serve.New(engine.New(engine.Options{CacheSize: 32, Workers: 2}), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	node, err := NewNode(ts.URL, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return &backend{srv: srv, ts: ts, node: node}
}
