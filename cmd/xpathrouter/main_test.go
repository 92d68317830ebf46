package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/store"
)

func TestParsePeers(t *testing.T) {
	nodes, err := parsePeers("http://a:8080, http://b:8080 ,", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].Name() != "a:8080" || nodes[1].Name() != "b:8080" {
		t.Fatalf("parsed %v", nodes)
	}
	for spec, wantErr := range map[string]string{
		"":                              "-peers is required",
		"   ,  ,":                       "no usable URLs",
		"ftp://x":                       "want http(s)",
		"http://a:1,http://a:1":         "duplicate peer",
		"http://a:8080,not a url at &%": "peer",
	} {
		if _, err := parsePeers(spec, time.Second); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("parsePeers(%q) err = %v, want mention of %q", spec, err, wantErr)
		}
	}
}

// TestRouterWiring boots the same stack main assembles — two real
// backend nodes behind a router built from a -peers string — and
// drives a routed query end to end through the router handler.
func TestRouterWiring(t *testing.T) {
	var urls []string
	var backends []*serve.Server
	for i := 0; i < 2; i++ {
		srv := serve.New(engine.New(engine.Options{}), store.Config{})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		backends = append(backends, srv)
	}
	nodes, err := parsePeers(strings.Join(urls, ","), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.New(nodes, cluster.Options{Retries: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	defer router.Stop()
	rts := httptest.NewServer(router.Handler())
	t.Cleanup(rts.Close)

	if _, _, err := backends[cluster.KeyShard("wired", 2)].AddDocument("wired", "<a><b/></a>"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(rts.URL + "/query?doc=wired&q=count(//b)")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed query status = %d", resp.StatusCode)
	}
	if h := router.CheckHealth(); h != 2 {
		t.Fatalf("CheckHealth = %d, want 2", h)
	}
	if _, err := cluster.New(nil, cluster.Options{}); err == nil {
		t.Fatal(errors.New("router over zero peers must be rejected"))
	}
}
