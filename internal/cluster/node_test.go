package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/store"
)

// TestNodeDocumentRoundTrip drives a peer's document API through Node
// against a live backend: put, get with its version, list, stats and
// delete. A miss is ErrNotFound.
func TestNodeDocumentRoundTrip(t *testing.T) {
	b := newBackend(t, store.Config{})
	ctx := context.Background()

	_, verA, err := b.node.PutDocument(ctx, "alpha", "<a><b/><b/></a>")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.node.PutDocument(ctx, "beta", "<x><y/></x>"); err != nil {
		t.Fatal(err)
	}
	info, err := b.node.GetDocument(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "alpha" || info.XML == "" || info.Version != verA || info.Nodes == 0 {
		t.Fatalf("GetDocument(alpha) = %+v, want its XML at version %d", info, verA)
	}
	if _, err := b.node.GetDocument(ctx, "nope"); !errors.Is(err, ErrNotFound) || !IsNotFound(err) {
		t.Fatalf("GetDocument of a missing document err = %v, want ErrNotFound", err)
	}

	docs, err := b.node.Documents(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range docs {
		if d.Bytes <= 0 || d.Version == 0 {
			t.Errorf("listing of %s carried no size or version: %+v", d.Name, d)
		}
		seen[d.Name] = true
	}
	if !seen["alpha"] || !seen["beta"] || len(seen) != 2 {
		t.Fatalf("Documents listed %v, want alpha and beta", seen)
	}

	if st, err := b.node.Stats(ctx); err != nil || st.Store.Entries != 2 {
		t.Fatalf("Stats() = %+v, %v; want 2 entries", st.Store, err)
	}
	if err := b.node.DeleteDocument(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	if err := b.node.DeleteDocument(ctx, "alpha"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete err = %v, want ErrNotFound", err)
	}
	if st, err := b.node.Stats(ctx); err != nil || st.Store.Entries != 1 {
		t.Fatalf("after delete Stats() = %+v, %v; want 1 entry", st.Store, err)
	}
	// The node and the backend agree: the backend really holds beta.
	if _, ok := b.srv.Session("beta"); !ok {
		t.Fatal("backend lost beta")
	}
}

// TestNodeTypedErrors pins the error mapping: a full peer store is
// store.ErrFull (same sentinel as a full local store), malformed XML
// is a PeerError with the backend's 400 that matches ErrPeer, and an
// unreachable peer is ErrUnavailable and marks the node unhealthy.
func TestNodeTypedErrors(t *testing.T) {
	b := newBackend(t, store.Config{MaxEntries: 1})
	ctx := context.Background()

	if _, _, err := b.node.PutDocument(ctx, "one", "<a/>"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.node.PutDocument(ctx, "two", "<b/>"); !errors.Is(err, store.ErrFull) {
		t.Fatalf("over-cap put err = %v, want store.ErrFull", err)
	}
	_, _, err := b.node.PutDocument(ctx, "one", "<unclosed")
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Status != 400 {
		t.Fatalf("malformed XML err = %v, want PeerError with status 400", err)
	}
	if !errors.Is(err, ErrPeer) {
		t.Fatal("PeerError does not match ErrPeer")
	}

	b.ts.Close() // the peer goes away
	if _, _, err := b.node.PutDocument(ctx, "one", "<a/>"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("put against downed peer err = %v, want ErrUnavailable", err)
	}
	cctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	if _, err := b.node.GetDocument(cctx, "one"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("get against downed peer err = %v, want ErrUnavailable", err)
	}
	if b.node.Healthy() {
		t.Fatal("node still marked healthy after connection failures")
	}
}
