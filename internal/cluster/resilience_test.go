package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/store"
)

// TestCarvedAttemptDeadline pins the per-attempt timeout fix: a tight
// caller deadline split across the retry chain's remaining attempts
// beats the generous flat -timeout, and the carved deadline tripping
// reads as ErrUnavailable (the peer's fault, retryable) while the
// caller's own context stays live.
func TestCarvedAttemptDeadline(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
			return
		}
		w.Write([]byte("{}"))
	}))
	defer slow.Close()
	n, err := NewNode(slow.URL, 5*time.Second) // generous flat timeout
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	actx := resilience.WithAttemptsLeft(ctx, 3) // each attempt gets ~200ms
	start := time.Now()
	_, gerr := n.GetDocument(actx, "x")
	elapsed := time.Since(start)
	if !errors.Is(gerr, ErrUnavailable) {
		t.Fatalf("carved-deadline trip = %v, want ErrUnavailable", gerr)
	}
	if ctx.Err() != nil {
		t.Fatal("caller context expired with the carved attempt")
	}
	if elapsed > 450*time.Millisecond {
		t.Fatalf("attempt took %v, want ~200ms (600ms/3 attempts)", elapsed)
	}
}

// TestNodeShedding pins the per-peer in-flight bound: with the bound
// full, further calls shed fast with ErrOverloaded instead of queuing.
func TestNodeShedding(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.Write([]byte("{}"))
	}))
	defer slow.Close()
	n, err := NewNode(slow.URL, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	n.SetMaxInflight(1)
	done := make(chan error, 1)
	go func() {
		_, err := n.GetDocument(context.Background(), "x")
		done <- err
	}()
	// Wait for the first call to occupy the slot.
	deadline := time.Now().Add(2 * time.Second)
	for n.inflight.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := n.GetDocument(context.Background(), "x"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-bound call = %v, want ErrOverloaded", err)
	}
	if n.Shed() != 1 {
		t.Fatalf("Shed = %d, want 1", n.Shed())
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-bound call failed: %v", err)
	}
}

// TestBreakerUnderConcurrentForwards pins breaker behavior on the
// router's forward path under the race detector: a dead owner's
// breaker trips open while concurrent queries keep answering from the
// replica, and the open state is visible on /healthz and as the
// xpathrouter_breaker_state gauge.
func TestBreakerUnderConcurrentForwards(t *testing.T) {
	router, ts, backends := newCluster(t, 2, Options{
		Retries:          1,
		Replicas:         1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // stays open for the test's duration
		Timeout:          time.Second,
	}, store.Config{})
	doc := namesOwnedBy(2, 1)[1][0] // owned by backends[1]
	if resp, _ := postJSON(t, ts.URL+"/documents", map[string]string{"name": doc, "xml": "<a><b/><b/></a>"}); resp.StatusCode != 200 {
		t.Fatal("registration failed")
	}
	backends[1].ts.Close()

	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, out := postJSON(t, ts.URL+"/query", map[string]string{"doc": doc, "query": "count(//b)"})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("query status %d: %v", resp.StatusCode, out)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	br := backends[1].node.Breaker()
	if br == nil || br.State() != resilience.BreakerOpen {
		t.Fatalf("dead owner's breaker = %v, want open", br.State())
	}
	if backends[0].node.Breaker().State() != resilience.BreakerClosed {
		t.Fatal("live replica's breaker should stay closed")
	}

	// The open breaker is visible on /healthz...
	_, health := getJSON(t, ts.URL+"/health")
	seen := false
	for _, p := range health["peers"].([]any) {
		ph := p.(map[string]any)
		if ph["node"] == backends[1].node.Name() {
			seen = true
			if ph["breaker"] != "open" {
				t.Fatalf("healthz breaker = %v, want open", ph["breaker"])
			}
		}
	}
	if !seen {
		t.Fatal("dead peer missing from /health")
	}
	// ...and as the per-peer gauge.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	want := fmt.Sprintf("xpathrouter_breaker_state{peer=%q} 2", backends[1].node.Name())
	if !strings.Contains(string(body), want) {
		t.Fatalf("metrics missing %q", want)
	}
	router.Stop()
}

// TestRepairConvergence pins anti-entropy repair: a document written
// only to its owner (a failed mirror write) is re-copied to its
// replica at the authoritative version, and a replica holding a stale
// version converges to the owner's; a second round finds nothing to do.
func TestRepairConvergence(t *testing.T) {
	router, _, backends := newCluster(t, 3, Options{Replicas: 1, Timeout: time.Second}, store.Config{})
	byURL := map[string]*backend{}
	for _, b := range backends {
		byURL[b.node.URL()] = b
	}
	ctx := context.Background()

	// Case 1: the replica never got its mirror copy.
	missing := namesOwnedBy(3, 1)[0][0]
	placement := router.Ring().Replicas(missing, 1)
	owner, replica := byURL[placement[0].URL()], byURL[placement[1].URL()]
	if _, _, err := owner.node.PutDocument(ctx, missing, "<a><b/></a>"); err != nil {
		t.Fatal(err)
	}
	ownerInfo, err := owner.node.GetDocument(ctx, missing)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica.node.GetDocument(ctx, missing); !errors.Is(err, ErrNotFound) {
		t.Fatalf("replica already holds the doc: %v", err)
	}

	// Case 2: the replica holds a stale version.
	stale := namesOwnedBy(3, 2)[1][0]
	splacement := router.Ring().Replicas(stale, 1)
	sowner, sreplica := byURL[splacement[0].URL()], byURL[splacement[1].URL()]
	if _, _, err := sreplica.node.PutDocument(ctx, stale, "<old/>"); err != nil {
		t.Fatal(err)
	}
	// Two owner writes outrun the replica's version counter.
	if _, _, err := sowner.node.PutDocument(ctx, stale, "<mid/>"); err != nil {
		t.Fatal(err)
	}
	if _, sv, err := sowner.node.PutDocument(ctx, stale, "<new/>"); err != nil {
		t.Fatal(err)
	} else if ri, _ := sreplica.node.GetDocument(ctx, stale); ri.Version >= sv {
		t.Fatalf("test setup: replica version %d not stale vs owner %d", ri.Version, sv)
	}

	copies := router.RepairNow(ctx)
	if copies < 2 {
		t.Fatalf("RepairNow copies = %d, want >= 2", copies)
	}

	got, err := replica.node.GetDocument(ctx, missing)
	if err != nil {
		t.Fatalf("replica still missing %q after repair: %v", missing, err)
	}
	if got.Version != ownerInfo.Version {
		t.Fatalf("replica version = %d, owner = %d", got.Version, ownerInfo.Version)
	}

	sownerInfo, err := sowner.node.GetDocument(ctx, stale)
	if err != nil {
		t.Fatal(err)
	}
	sgot, err := sreplica.node.GetDocument(ctx, stale)
	if err != nil {
		t.Fatal(err)
	}
	if sgot.Version != sownerInfo.Version || sgot.XML != sownerInfo.XML {
		t.Fatalf("stale replica did not converge: v%d %q vs owner v%d %q",
			sgot.Version, sgot.XML, sownerInfo.Version, sownerInfo.XML)
	}

	// Idempotence: a converged fleet has nothing to repair.
	if copies := router.RepairNow(ctx); copies != 0 {
		t.Fatalf("second RepairNow copies = %d, want 0", copies)
	}
	if router.repairErrs.Load() != 0 {
		t.Fatalf("repair errors = %d, want 0", router.repairErrs.Load())
	}
}

// TestRepairAfterKilledMirror is the ISSUE's repair scenario end to
// end: a mirror write dies (replica down during registration), the
// replica comes back empty, and the repair loop restores the copy at
// the owner's version without a manual reshard.
func TestRepairAfterKilledMirror(t *testing.T) {
	router, ts, backends := newCluster(t, 2, Options{
		Replicas: 1,
		Timeout:  time.Second,
		// BreakerThreshold stays 0 (defaults on): repair must work with
		// breakers active.
	}, store.Config{})
	doc := namesOwnedBy(2, 1)[0][0] // owned by backends[0], mirrored to backends[1]

	// Kill the mirror target, then register: the write lands on the
	// owner, the mirror fails.
	replicaAddr := backends[1].ts.Listener.Addr().String()
	backends[1].ts.Close()
	resp, out := postJSON(t, ts.URL+"/documents", map[string]string{"name": doc, "xml": "<a><b/><b/></a>"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registration = %d %v", resp.StatusCode, out)
	}
	if _, ok := out["replica_errors"]; !ok {
		t.Fatalf("mirror write to a dead replica did not degrade: %v", out)
	}

	// The replica restarts empty at its old address (the ring still
	// points there).
	repl := httptest.NewUnstartedServer(backends[1].srv.Handler())
	l, err := net.Listen("tcp", replicaAddr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", replicaAddr, err)
	}
	repl.Listener = l
	repl.Start()
	t.Cleanup(repl.Close)

	if copies := router.RepairNow(context.Background()); copies < 1 {
		t.Fatalf("RepairNow copies = %d, want >= 1", copies)
	}
	ownerInfo, err := backends[0].node.GetDocument(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := backends[1].node.GetDocument(context.Background(), doc)
	if err != nil {
		t.Fatalf("replica still missing after repair: %v", err)
	}
	if got.Version != ownerInfo.Version {
		t.Fatalf("replica version = %d, owner = %d", got.Version, ownerInfo.Version)
	}
}

// TestRepairTakesHolderPastListing: a holder whose copy moves past the
// round's listing before the round fetches from it is still a source.
// The round writes the newer copy, at its own version, to the replica
// that lacks the document, and counts no error.
func TestRepairTakesHolderPastListing(t *testing.T) {
	router, _, backends := newCluster(t, 2, Options{Replicas: 1, Timeout: time.Second}, store.Config{})
	doc := namesOwnedBy(2, 1)[0][0] // owned by backends[0], mirrored to backends[1]
	owner, replica := backends[0], backends[1]
	ctx := context.Background()
	if _, _, err := owner.node.PutDocument(ctx, doc, "<a><b/></a>"); err != nil {
		t.Fatal(err)
	}
	// On the first fetch the owner's copy moves on, written straight to
	// its server: no mirror write reaches the replica.
	var moved uint64
	owner.node.WrapTransport(func(next http.RoundTripper) http.RoundTripper {
		return roundTripFunc(func(req *http.Request) (*http.Response, error) {
			if req.Method == http.MethodGet && req.URL.Query().Get("name") != "" && moved == 0 {
				_, v, err := owner.srv.AddDocument(doc, "<a><b/><b/></a>")
				if err != nil {
					return nil, err
				}
				moved = v
			}
			return next.RoundTrip(req)
		})
	})

	if copies := router.RepairNow(ctx); copies != 1 {
		t.Fatalf("RepairNow copies = %d, want 1", copies)
	}
	want, err := owner.node.GetDocument(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replica.node.GetDocument(ctx, doc)
	if err != nil {
		t.Fatalf("replica still missing %q after repair: %v", doc, err)
	}
	if moved == 0 || got.Version != moved || got.XML != want.XML {
		t.Fatalf("replica holds v%d %q, want the owner's newer v%d %q", got.Version, got.XML, moved, want.XML)
	}
	if n := router.repairErrs.Load(); n != 0 {
		t.Fatalf("repair errors = %d, want 0", n)
	}
}

// TestRetryBudgetExhaustion pins the token bucket: a dead owner makes
// every query spend a retry token, and once the bucket is dry the
// router answers 503 with Retry-After instead of retrying.
func TestRetryBudgetExhaustion(t *testing.T) {
	_, ts, backends := newCluster(t, 2, Options{
		Retries:          1,
		Replicas:         1,
		RetryBudget:      0.001, // deposits are negligible; the bucket starts with DefaultBudgetCap tokens
		BreakerThreshold: -1,    // keep the dead owner in play so every query retries
		DownAfter:        1000,  // likewise: health-sorting must not hide the owner
		AnswerCacheSize:  -1,    // every query must reach the fleet, not the cache
		Timeout:          time.Second,
	}, store.Config{})
	doc := namesOwnedBy(2, 1)[1][0]
	if resp, _ := postJSON(t, ts.URL+"/documents", map[string]string{"name": doc, "xml": "<a><b/></a>"}); resp.StatusCode != 200 {
		t.Fatal("registration failed")
	}
	backends[1].ts.Close()

	sawDenied := false
	for i := 0; i < resilience.DefaultBudgetCap+5; i++ {
		resp, out := postJSON(t, ts.URL+"/query", map[string]string{"doc": doc, "query": "count(//b)"})
		switch resp.StatusCode {
		case http.StatusOK:
			// Retry within budget: the replica answered.
		case http.StatusServiceUnavailable:
			sawDenied = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("503 without Retry-After: %v", out)
			}
			if msg, _ := out["error"].(string); !strings.Contains(msg, "retry budget") {
				t.Fatalf("503 body = %v, want retry-budget error", out)
			}
		default:
			t.Fatalf("query %d status = %d: %v", i, resp.StatusCode, out)
		}
	}
	if !sawDenied {
		t.Fatal("budget never denied a retry")
	}
}

// TestRouterDrain pins graceful degradation: BeginDrain flips /healthz
// to 503 (load balancers stop routing) while /query keeps answering
// in-flight traffic.
func TestRouterDrain(t *testing.T) {
	router, ts, _ := newCluster(t, 2, Options{Timeout: time.Second}, store.Config{})
	if resp, _ := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatal("healthz not OK before drain")
	}
	if resp, _ := postJSON(t, ts.URL+"/documents", map[string]string{"name": "d1", "xml": "<a><b/></a>"}); resp.StatusCode != 200 {
		t.Fatal("registration failed")
	}
	router.BeginDrain()
	resp, out := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || out["draining"] != true {
		t.Fatalf("draining healthz = %d %v, want 503 draining", resp.StatusCode, out)
	}
	if resp, _ := getJSON(t, ts.URL+"/query?doc=d1&q=count(//b)"); resp.StatusCode != http.StatusOK {
		t.Fatal("in-flight traffic must keep answering during drain")
	}
}
