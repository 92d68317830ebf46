package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWalkDecisions drives each decision of Router.walk through the
// router's handlers over fake peers, counting the requests each peer's
// transport is handed. statuses and wantTries list the candidates of
// the document "d" in placement order (all healthy, so reads keep it),
// then the drain ring's extra peer.
func TestWalkDecisions(t *testing.T) {
	const dead = 0 // the status of a peer that refuses connections
	for _, c := range []struct {
		name         string
		statuses     []int
		delay        time.Duration // before every live answer
		drain        bool          // the old ring is candidate 0 again (its own Node), then a peer answering 200
		method, path string
		cancelled    bool          // the client is gone before the walk starts
		deadline     time.Duration // the client's
		wantStatus   int
		wantTries    []int
		maxFirst     time.Duration // bound on the first attempt's duration
	}{
		{name: "a peer in both rings is tried once", statuses: []int{404, 404}, drain: true,
			method: http.MethodGet, path: "/documents?name=d", wantStatus: 200, wantTries: []int{1, 1, 1}},
		{name: "a cancelled context makes no attempt", statuses: []int{200, 200}, cancelled: true,
			method: http.MethodGet, path: "/query?doc=d&q=q", wantTries: []int{0, 0}},
		{name: "a put stops at a live owner's 507", statuses: []int{507, 200},
			method: http.MethodPost, path: "/documents", wantStatus: 507, wantTries: []int{1, 0}},
		{name: "a put stops at a live owner's 400", statuses: []int{400, 200},
			method: http.MethodPost, path: "/documents", wantStatus: 400, wantTries: []int{1, 0}},
		{name: "a put passes over an unreachable owner", statuses: []int{dead, 200},
			method: http.MethodPost, path: "/documents", wantStatus: 200, wantTries: []int{1, 1}},
		{name: "a read passes over an unreachable peer and a 404", statuses: []int{dead, 404, 200},
			method: http.MethodGet, path: "/query?doc=d&q=q", wantStatus: 200, wantTries: []int{1, 1, 1}},
		{name: "each attempt gets its share of the deadline", statuses: []int{200, 200, 200}, delay: 2 * time.Second,
			deadline: 600 * time.Millisecond, method: http.MethodGet, path: "/documents?name=d",
			maxFirst: 450 * time.Millisecond}, // ~200ms: 600ms over 3 candidates
	} {
		t.Run(c.name, func(t *testing.T) {
			type peer struct {
				ts     *httptest.Server
				node   *Node
				status atomic.Int32
				tries  atomic.Int32
			}
			var mu sync.Mutex
			var first time.Duration // the first attempt's round trip
			// node is a client of p whose transport counts p's tries.
			node := func(p *peer) *Node {
				n, err := NewNode(p.ts.URL, 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				n.WrapTransport(func(inner http.RoundTripper) http.RoundTripper {
					return roundTripFunc(func(req *http.Request) (*http.Response, error) {
						p.tries.Add(1)
						start := time.Now()
						resp, err := inner.RoundTrip(req)
						mu.Lock()
						if first == 0 {
							first = time.Since(start)
						}
						mu.Unlock()
						return resp, err
					})
				})
				return n
			}
			newPeer := func() *peer {
				p := &peer{}
				p.status.Store(200)
				p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					select {
					case <-time.After(c.delay):
					case <-r.Context().Done():
						return
					}
					w.WriteHeader(int(p.status.Load()))
					w.Write([]byte(`{"name":"d","nodes":1,"version":1,"error":"planted"}`))
				}))
				t.Cleanup(p.ts.Close)
				p.node = node(p)
				return p
			}
			peers := make([]*peer, len(c.statuses))
			nodes := make([]*Node, len(peers))
			byURL := map[string]*peer{}
			for i := range peers {
				peers[i] = newPeer()
				nodes[i] = peers[i].node
				byURL[nodes[i].URL()] = peers[i]
			}
			// Candidate order is placement order over URL-sorted peers:
			// put the peers in it and give each its status.
			ring, err := NewRing(nodes, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range ring.Replicas("d", len(nodes)-1) {
				peers[i] = byURL[n.URL()]
				peers[i].status.Store(int32(c.statuses[i]))
				if c.statuses[i] == dead {
					peers[i].ts.Close()
				}
			}
			opts := Options{Retries: len(nodes) - 1, DownAfter: 1000, AnswerCacheSize: -1, Timeout: 5 * time.Second}
			if c.drain {
				extra := newPeer()
				peers = append(peers, extra)
				opts.Generation, opts.DrainPeers = 2, []*Node{node(peers[0]), extra.node}
			}
			router, err := New(nodes, opts)
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.deadline > 0 {
				ctx, cancel = context.WithTimeout(ctx, c.deadline)
				defer cancel()
			}
			if c.cancelled {
				cancel()
			}
			body := ""
			if c.method == http.MethodPost {
				body = `{"name":"d","xml":"<a/>"}`
			}
			rec := httptest.NewRecorder()
			router.Handler().ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(body)).WithContext(ctx))
			if c.wantStatus != 0 && rec.Code != c.wantStatus {
				t.Errorf("status %d (%s), want %d", rec.Code, rec.Body, c.wantStatus)
			}
			for i, want := range c.wantTries {
				if got := peers[i].tries.Load(); int(got) != want {
					t.Errorf("candidate %d tried %d times, want %d", i, got, want)
				}
			}
			if c.maxFirst > 0 && (first == 0 || first > c.maxFirst) {
				t.Errorf("first attempt took %v, want at most %v of the client's %v", first, c.maxFirst, c.deadline)
			}
		})
	}
}
