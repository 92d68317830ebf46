// Fixture for the retryloop analyzer: peer-iteration loops re-issuing
// cluster.Node requests, with and without the resilience discipline.
package retryloop

import (
	"context"
	"errors"

	"repro/internal/cluster"
	"repro/internal/resilience"
)

// Seeded violation: a naked failover chain — each dead peer is hit
// back-to-back with no backoff and no budget.
func inventory(ctx context.Context, peers []*cluster.Node) map[string]uint64 {
	out := map[string]uint64{}
	for _, n := range peers {
		docs, err := n.Documents(ctx) // want `peer loop re-issues Node\.Documents with no resilience discipline`
		if err != nil {
			continue
		}
		for _, d := range docs {
			out[d.Name] = d.Version
		}
	}
	return out
}

// Seeded violation: two naked attempts in one loop body.
func firstAnswer(ctx context.Context, peers []*cluster.Node, doc, q string) ([]byte, error) {
	for _, n := range peers {
		if _, err := n.GetDocument(ctx, doc); err != nil { // want `peer loop re-issues Node\.GetDocument with no resilience discipline`
			continue
		}
		if _, res, err := n.Query(ctx, doc, q, false); err == nil { // want `peer loop re-issues Node\.Query with no resilience discipline`
			return res, nil
		}
	}
	return nil, errors.New("no peer answered")
}

// Exempt by direct reference: attempts ride resilience.Retry, so the
// chain is spaced and budgeted.
func resilientInventory(ctx context.Context, peers []*cluster.Node, b *resilience.Backoff) map[string]uint64 {
	out := map[string]uint64{}
	for _, n := range peers {
		err := resilience.Retry(ctx, 2, b, func(actx context.Context) error {
			docs, lerr := n.Documents(actx)
			if lerr != nil {
				return lerr
			}
			for _, d := range docs {
				out[d.Name] = d.Version
			}
			return nil
		}, func(error) bool { return true })
		if err != nil {
			continue
		}
	}
	return out
}

// pace is a resilient helper: it references the resilience package.
func pace(ctx context.Context, b *resilience.Backoff, attempt int) error {
	return resilience.Sleep(ctx, b.Delay(attempt))
}

// Exempt by the transitive fixpoint: the discipline lives in the
// same-package pace helper.
func pacedProbe(ctx context.Context, peers []*cluster.Node, b *resilience.Backoff) int {
	healthy := 0
	for i, n := range peers {
		if err := pace(ctx, b, i); err != nil {
			break
		}
		if n.Healthz(ctx) == nil {
			healthy++
		}
	}
	return healthy
}

// Not flagged: requests inside a function literal are the concurrent
// fan-out shape — one probe per peer, not a failover chain.
func fanOut(ctx context.Context, peers []*cluster.Node) {
	for _, n := range peers {
		go func(n *cluster.Node) {
			_ = n.Healthz(ctx)
		}(n)
	}
}

// Not flagged: the receiver is a fixed node, not the range variable —
// iterating documents against one peer is not a retry chain.
func oneNode(ctx context.Context, n *cluster.Node, docs []string) {
	for _, doc := range docs {
		_, _ = n.GetDocument(ctx, doc)
	}
}

// Not flagged: non-request methods on the range variable are free.
func names(peers []*cluster.Node) []string {
	var out []string
	for _, n := range peers {
		out = append(out, n.Name())
	}
	return out
}
