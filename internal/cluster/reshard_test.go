package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestReshardGrowRing is the migration acceptance test: a corpus
// registered on a 2-node ring is resharded onto a 3-node ring (the
// two old nodes plus a fresh one) with zero lost documents, preserved
// versions, dry-run planning, idempotent re-runs, and prune cleanup.
func TestReshardGrowRing(t *testing.T) {
	backends := make([]*backend, 3)
	for i := range backends {
		backends[i] = newBackend(t, store.Config{})
	}
	oldNodes := []*Node{backends[0].node, backends[1].node}
	newNodes := []*Node{backends[0].node, backends[1].node, backends[2].node}

	// Register a corpus through a router over the old ring.
	oldRouter, err := New(oldNodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ots := httptest.NewServer(oldRouter.Handler())
	t.Cleanup(ots.Close)
	docs := map[string]string{}
	for i := 0; i < 10; i++ {
		name := "doc-" + string(rune('a'+i))
		docs[name] = "<a><b/><b/></a>"
		if resp, out := postJSON(t, ots.URL+"/documents", map[string]string{"name": name, "xml": docs[name]}); resp.StatusCode != 200 {
			t.Fatalf("register %s: %d %v", name, resp.StatusCode, out)
		}
	}
	// Replace one document so its version is above 1 — the reshard
	// must preserve it.
	if resp, out := postJSON(t, ots.URL+"/documents", map[string]string{"name": "doc-a", "xml": "<a><b/><b/><b/></a>"}); resp.StatusCode != 200 {
		t.Fatalf("replace doc-a: %d %v", resp.StatusCode, out)
	}
	docs["doc-a"] = "<a><b/><b/><b/></a>"
	ctx := context.Background()
	wantVer, err := backends[0].node.GetDocument(ctx, "doc-a")
	if err != nil {
		// doc-a may live on the other node; find it.
		wantVer, err = backends[1].node.GetDocument(ctx, "doc-a")
		if err != nil {
			t.Fatal(err)
		}
	}

	// Dry run: plans copies onto the fresh node, moves nothing.
	var planLog bytes.Buffer
	dry, err := Reshard(ctx, ReshardOptions{
		From: oldNodes, To: newNodes, DryRun: true, Log: &planLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dry.Documents != 10 || dry.Copies == 0 {
		t.Fatalf("dry run = %+v, want 10 documents and a nonzero plan", dry)
	}
	if !strings.Contains(planLog.String(), "copy") {
		t.Fatalf("dry-run log carries no movement plan:\n%s", planLog.String())
	}
	if st := backends[2].srv.StoreStats(); st.Entries != 0 {
		t.Fatalf("dry run moved %d documents onto the new node", st.Entries)
	}

	// Real run: every planned copy lands.
	sum, err := Reshard(ctx, ReshardOptions{From: oldNodes, To: newNodes})
	if err != nil {
		t.Fatalf("reshard: %v (%+v)", err, sum)
	}
	if sum.Copies != dry.Copies || sum.Errors != 0 {
		t.Fatalf("reshard = %+v, want %d copies and no errors", sum, dry.Copies)
	}

	// Zero lost documents: a router over the NEW ring answers every
	// document from its new owner, with no retry budget to lean on.
	newRouter, err := New(newNodes, Options{Generation: 2, AnswerCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	nts := httptest.NewServer(newRouter.Handler())
	t.Cleanup(nts.Close)
	moved := 0
	for name := range docs {
		resp, out := getJSON(t, nts.URL+"/query?doc="+name+"&q=count(//b)")
		if resp.StatusCode != 200 {
			t.Fatalf("%s lost in reshard: %d %v", name, resp.StatusCode, out)
		}
		want := 2.0
		if name == "doc-a" {
			want = 3.0
		}
		if out["value"].(map[string]any)["number"] != want {
			t.Fatalf("%s answered %v after reshard, want %v", name, out["value"], want)
		}
		if out["node"] == backends[2].node.Name() {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no document is owned by the new node — placement did not change")
	}
	// The replaced document kept its version on its new owner.
	info, err := newRouter.Owner("doc-a").GetDocument(ctx, "doc-a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != wantVer.Version {
		t.Fatalf("doc-a resharded at version %d, want preserved %d", info.Version, wantVer.Version)
	}

	// Idempotent: a second run copies nothing.
	again, err := Reshard(ctx, ReshardOptions{From: oldNodes, To: newNodes})
	if err != nil {
		t.Fatal(err)
	}
	if again.Copies != 0 || again.Errors != 0 {
		t.Fatalf("re-run = %+v, want zero copies (idempotent)", again)
	}

	// Prune: off-placement copies disappear; every document stays
	// answerable on the new ring.
	pruned, err := Reshard(ctx, ReshardOptions{From: oldNodes, To: newNodes, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Pruned == 0 {
		t.Fatalf("prune run = %+v, want pruned copies", pruned)
	}
	total := 0
	for _, b := range backends {
		total += b.srv.StoreStats().Entries
	}
	if total != 10 {
		t.Fatalf("after prune the fleet holds %d copies, want exactly 10 (one per doc)", total)
	}
	for name := range docs {
		if resp, _ := getJSON(t, nts.URL+"/query?doc="+name+"&q=count(//b)"); resp.StatusCode != 200 {
			t.Fatalf("%s unanswerable after prune: %d", name, resp.StatusCode)
		}
	}
}

// TestReshardWithReplicas reshards onto a replicated placement: each
// document lands on its new owner plus one successor.
func TestReshardWithReplicas(t *testing.T) {
	backends := make([]*backend, 3)
	for i := range backends {
		backends[i] = newBackend(t, store.Config{})
	}
	oldNodes := []*Node{backends[0].node}
	newNodes := []*Node{backends[0].node, backends[1].node, backends[2].node}
	ctx := context.Background()
	for _, name := range []string{"r1", "r2", "r3", "r4"} {
		if _, _, err := backends[0].node.PutDocument(ctx, name, "<a><b/></a>"); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := Reshard(ctx, ReshardOptions{
		From: oldNodes, To: newNodes, Replicas: 1, Prune: true,
	})
	if err != nil {
		t.Fatalf("reshard: %v (%+v)", err, sum)
	}
	newRing, _ := NewRing(newNodes, 2)
	byURL := map[string]*backend{}
	for _, b := range backends {
		byURL[b.node.URL()] = b
	}
	for _, name := range []string{"r1", "r2", "r3", "r4"} {
		for _, n := range newRing.Replicas(name, 1) {
			if _, ok := byURL[n.URL()].srv.Session(name); !ok {
				t.Fatalf("%s missing from its placement node %s", name, n.Name())
			}
		}
	}
	// An unreachable node aborts instead of resharding around a hole.
	backends[1].ts.Close()
	if _, err := Reshard(ctx, ReshardOptions{
		From: oldNodes, To: newNodes,
	}); err == nil {
		t.Fatal("reshard with an unreachable node did not abort")
	}
}

// reshardFixture is a one-node corpus of n documents on backends[0]
// to be resharded onto all three backends. fetches counts the document
// fetches sent to the source. before, when set, runs ahead of each
// with the document's name; after, when set, runs once the fetch's
// response has been read whole, so it may cancel the run without
// failing the fetch it follows.
type reshardFixture struct {
	backends      []*backend
	oldRing, ring []*Node
	fetches       int
	before        func(name string)
	after         func()
}

func newReshardFixture(t *testing.T, n int) *reshardFixture {
	t.Helper()
	f := &reshardFixture{backends: make([]*backend, 3)}
	for i := range f.backends {
		f.backends[i] = newBackend(t, store.Config{})
	}
	src := f.backends[0]
	f.oldRing = []*Node{src.node}
	f.ring = []*Node{src.node, f.backends[1].node, f.backends[2].node}
	for i := 0; i < n; i++ {
		if _, _, err := src.node.PutDocument(context.Background(), fmt.Sprintf("doc-%02d", i), "<a><b/></a>"); err != nil {
			t.Fatal(err)
		}
	}
	src.node.WrapTransport(func(next http.RoundTripper) http.RoundTripper {
		return roundTripFunc(func(req *http.Request) (*http.Response, error) {
			name := req.URL.Query().Get("name")
			if req.Method != http.MethodGet || name == "" {
				return next.RoundTrip(req)
			}
			f.fetches++
			if f.before != nil {
				f.before(name)
			}
			resp, err := next.RoundTrip(req)
			if err != nil || f.after == nil {
				return resp, err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			resp.Body = io.NopCloser(bytes.NewReader(body))
			f.after()
			return resp, nil
		})
	})
	return f
}

func (f *reshardFixture) run(ctx context.Context, log io.Writer) (ReshardSummary, error) {
	return Reshard(ctx, ReshardOptions{From: f.oldRing, To: f.ring, Log: log})
}

// TestReshardCopyPassStopsOnCancel ties the copy pass to its caller's
// context: cancelled up front, the run fetches nothing; cancelled
// mid-pass, it stops before the next fetch instead of grinding through
// the corpus; either way Reshard returns ctx's error.
func TestReshardCopyPassStopsOnCancel(t *testing.T) {
	f := newReshardFixture(t, 8)
	dry, err := Reshard(context.Background(), ReshardOptions{From: f.oldRing, To: f.ring, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if dry.Copies < 2 {
		t.Fatalf("dry run = %+v; the test needs at least two planned copies", dry)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.run(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled reshard err = %v, want context.Canceled", err)
	}
	if f.fetches != 0 {
		t.Fatalf("pre-cancelled reshard fetched %d documents, want 0", f.fetches)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	f.after = cancel
	if _, err := f.run(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("reshard cancelled mid-pass err = %v, want context.Canceled", err)
	}
	if f.fetches != 1 {
		t.Fatalf("reshard cancelled mid-pass fetched %d documents, want 1", f.fetches)
	}

	// An undisturbed context changes nothing: every planned copy lands.
	f.after, f.fetches = nil, 0
	sum, err := f.run(context.Background(), nil)
	if err != nil || sum.Errors != 0 || sum.Copies == 0 {
		t.Fatalf("uncancelled reshard = %+v, %v; want copies and no errors", sum, err)
	}
}

// TestReshardDocumentDeletedBeforeFetch deletes a planned document from
// its source between the inventory and its fetch: the run counts one
// error, copies that document nowhere, and still copies the rest.
func TestReshardDocumentDeletedBeforeFetch(t *testing.T) {
	f := newReshardFixture(t, 8)
	src := f.backends[0]
	var deleted string
	f.before = func(name string) {
		if deleted == "" {
			deleted = name
			if err := src.node.DeleteDocument(context.Background(), name); err != nil {
				t.Errorf("delete %s: %v", name, err)
			}
		}
	}
	var log bytes.Buffer
	sum, err := f.run(context.Background(), &log)
	if err == nil || sum.Errors != 1 {
		t.Fatalf("reshard = %+v, %v; want exactly one error", sum, err)
	}
	if !strings.Contains(log.String(), "no longer holds "+deleted) {
		t.Fatalf("log does not report the vanished document %s:\n%s", deleted, log.String())
	}
	for _, b := range f.backends {
		if _, ok := b.srv.Session(deleted); ok {
			t.Fatalf("%s was copied to %s after its source deleted it", deleted, b.node.Name())
		}
	}
	ring, _ := NewRing(f.ring, 2)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("doc-%02d", i)
		if name == deleted {
			continue
		}
		owner := ring.Owner(name)
		for _, b := range f.backends {
			if b.node == owner {
				if _, ok := b.srv.Session(name); !ok {
					t.Fatalf("%s missing from its new owner %s", name, owner.Name())
				}
			}
		}
	}
}

// TestReshardAndRepairAgree: a reshard is the repair pass run onto the
// new ring, so after one a router over that ring finds nothing to
// repair — its round lists each peer once, as a converged round does,
// and fetches and copies nothing.
func TestReshardAndRepairAgree(t *testing.T) {
	backends := make([]*backend, 3)
	for i := range backends {
		backends[i] = newBackend(t, store.Config{})
	}
	oldNodes := []*Node{backends[0].node, backends[1].node}
	newNodes := []*Node{backends[0].node, backends[1].node, backends[2].node}
	oldRing, _ := NewRing(oldNodes, 1)
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("doc-%02d", i)
		for v := 0; v <= i%3; v++ { // versions 1 to 3
			if _, _, err := oldRing.Owner(name).PutDocument(ctx, name, "<a><b/></a>"); err != nil {
				t.Fatal(err)
			}
		}
	}
	sum, err := Reshard(ctx, ReshardOptions{From: oldNodes, To: newNodes, Replicas: 1})
	if err != nil || sum.Copies == 0 {
		t.Fatalf("reshard = %+v, %v; want copies and no error", sum, err)
	}

	router, err := New(newNodes, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	var listings, fetches, writes int
	for _, n := range newNodes {
		n.WrapTransport(func(next http.RoundTripper) http.RoundTripper {
			return roundTripFunc(func(req *http.Request) (*http.Response, error) {
				switch {
				case req.Method != http.MethodGet:
					writes++
				case req.URL.Query().Get("name") != "":
					fetches++
				default:
					listings++
				}
				return next.RoundTrip(req)
			})
		})
	}
	if copies := router.RepairNow(ctx); copies != 0 || listings != len(newNodes) || fetches != 0 || writes != 0 {
		t.Fatalf("repair after reshard: %d copies, %d listings, %d fetches, %d writes; want 0, %d, 0, 0",
			copies, listings, fetches, writes, len(newNodes))
	}
	if n := router.repairErrs.Load(); n != 0 {
		t.Fatalf("repair errors = %d, want 0", n)
	}
}
