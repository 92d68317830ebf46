package cluster

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// Remote implements store.Store[string] over one peer node's HTTP
// document API: keys are document names, values are serialized XML.
// It is the multi-process counterpart of store.Sharded — the same
// Get/Put/Delete/Range/Stats surface, backed by another process's
// corpus instead of in-process shards, with per-node connection reuse
// and a per-call timeout.
//
// The store.Store interface has no error channel on Get/Delete/Range,
// so those swallow transport failures into their boolean results; the
// most recent failure is retained and readable via Err, and callers
// that need full error reporting use the context-taking methods
// (GetDocument, PutDocument, ...) instead. Put does return errors and
// maps the peer's responses onto the same sentinel errors the local
// store uses: a full remote store is store.ErrFull, an oversized
// document store.ErrTooLarge.
type Remote struct {
	node    *Node
	timeout time.Duration

	mu      sync.Mutex
	lastErr error
}

// Compile-time check: Remote is a drop-in store.Store.
var _ store.Store[string] = (*Remote)(nil)

// NewRemote creates a Remote over a peer node. A zero timeout takes
// DefaultTimeout.
func NewRemote(node *Node, timeout time.Duration) *Remote {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Remote{node: node, timeout: timeout}
}

// Err returns the most recent transport failure swallowed by an
// interface method (nil when the last such call succeeded).
func (r *Remote) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

func (r *Remote) note(err error) {
	if errors.Is(err, ErrNotFound) {
		err = nil // absence is a result, not a failure
	}
	r.mu.Lock()
	r.lastErr = err
	r.mu.Unlock()
}

func (r *Remote) callCtx() (context.Context, context.CancelFunc) {
	//lint:ignore ctxhttp the store.Store interface methods have no context parameter; each call is bounded by the per-call timeout instead
	return context.WithTimeout(context.Background(), r.timeout)
}

// GetDocument fetches the serialized XML stored under key.
func (r *Remote) GetDocument(ctx context.Context, key string) (string, error) {
	info, err := r.node.GetDocument(ctx, key)
	if err != nil {
		return "", err
	}
	return info.XML, nil
}

// PutDocument registers xml under key on the peer, returning the
// version the peer assigned.
func (r *Remote) PutDocument(ctx context.Context, key, xml string) (uint64, error) {
	_, ver, err := r.node.PutDocument(ctx, key, xml)
	return ver, err
}

// Get returns the document stored under key. Transport failures read
// as absence; check Err to distinguish a missing document from an
// unreachable peer.
func (r *Remote) Get(key string) (string, bool) {
	ctx, cancel := r.callCtx()
	defer cancel()
	xml, err := r.GetDocument(ctx, key)
	r.note(err)
	if err != nil {
		return "", false
	}
	return xml, true
}

// Put stores v (serialized XML) under key, returning the version the
// peer assigned. The size argument is ignored: the peer accounts the
// document at its own serialized size, exactly as a local AddDocument
// would.
func (r *Remote) Put(key string, v string, _ int64) (uint64, error) {
	ctx, cancel := r.callCtx()
	defer cancel()
	ver, err := r.PutDocument(ctx, key, v)
	r.note(err)
	return ver, err
}

// Delete removes key, reporting whether the peer had it.
func (r *Remote) Delete(key string) bool {
	ctx, cancel := r.callCtx()
	defer cancel()
	err := r.node.DeleteDocument(ctx, key)
	r.note(err)
	return err == nil
}

// Range lists the peer's documents, then fetches each one's XML
// lazily until f returns false. The listing is a point-in-time
// snapshot; documents added or removed while ranging may or may not
// be visited, matching the local store's Range contract. Documents
// that vanish between the listing and their fetch are skipped.
func (r *Remote) Range(f func(key string, v string, size int64) bool) {
	r.RangeDocuments(func(info serve.DocInfo) bool {
		return f(info.Name, info.XML, info.Bytes)
	})
}

// RangeDocuments is Range with the full wire-level document record:
// each visited DocInfo carries the serialized XML and the document's
// monotonic version — what the reshard tool streams when it moves a
// corpus between rings while preserving versions.
func (r *Remote) RangeDocuments(f func(info serve.DocInfo) bool) {
	//lint:ignore ctxhttp interface-shaped convenience wrapper; callers with a context use RangeDocumentsContext
	r.RangeDocumentsContext(context.Background(), f)
}

// RangeDocumentsContext is RangeDocuments tied to a caller context:
// every listing and per-document fetch derives its per-call timeout
// from ctx, so cancelling ctx stops the walk at the next call — a
// corpus-sized stream (the reshard copy pass) is abandonable instead
// of running to completion one swallowed timeout at a time.
func (r *Remote) RangeDocumentsContext(ctx context.Context, f func(info serve.DocInfo) bool) {
	lctx, cancel := context.WithTimeout(ctx, r.timeout)
	docs, err := r.node.Documents(lctx)
	cancel()
	r.note(err)
	if err != nil {
		return
	}
	for _, d := range docs {
		if ctx.Err() != nil {
			r.note(ctx.Err())
			return
		}
		fctx, fcancel := context.WithTimeout(ctx, r.timeout)
		info, err := r.node.GetDocument(fctx, d.Name)
		fcancel()
		if errors.Is(err, ErrNotFound) {
			continue
		}
		r.note(err)
		if err != nil {
			return
		}
		if !f(info) {
			return
		}
	}
}

// Stats returns the peer store's statistics (zero on transport
// failure; check Err).
func (r *Remote) Stats() store.Stats {
	ctx, cancel := r.callCtx()
	defer cancel()
	st, err := r.node.Stats(ctx)
	r.note(err)
	return st.Store
}
