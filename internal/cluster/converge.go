package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/resilience"
	"repro/internal/serve"
)

// Convergence is one pass, shared by anti-entropy repair
// (Router.RepairNow) and resharding (Reshard, the pass run onto a new
// ring): inventory lists who holds which document at which version;
// plan takes each document's highest listed version as authoritative
// and diffs it against the ring's placement; fetch reads the document
// from a holder of that version or a newer one. The caller copies it to
// the placement nodes below with Node.PutDocumentAt at the version the
// fetch returned with the XML — never relabelled, since (name →
// version) is the key a copy is right under. A backend whose copy moved
// past that version skips the write as stale, so the pass is
// idempotent against concurrent writes, and the next pass sees the new
// truth.

// A listing is one node's inventory: the version of every document it
// holds, or the error that kept it from answering.
type listing struct {
	node *Node
	docs map[string]uint64 // nil when err is set
	err  error
}

// inventory lists every node's documents, retrying a transient failure
// (ErrUnavailable) once with backoff. What a failed listing means is
// the caller's to decide.
func inventory(ctx context.Context, nodes []*Node, b *resilience.Backoff) []listing {
	out := make([]listing, len(nodes))
	for i, n := range nodes {
		var docs []serve.DocInfo
		err := resilience.Retry(ctx, 2, b, func(actx context.Context) (err error) {
			docs, err = n.Documents(actx)
			return err
		}, func(err error) bool { return errors.Is(err, ErrUnavailable) })
		out[i] = listing{node: n, err: err}
		if err == nil {
			out[i].docs = make(map[string]uint64, len(docs))
			for _, d := range docs {
				out[i].docs[d.Name] = d.Version
			}
		}
	}
	return out
}

// A docPlan is what one document needs: its authoritative version (the
// highest listed), its placement, the placement nodes listed below that
// version (targets) and the nodes listed at it (sources, placement
// nodes first: their copy is the one reads route to).
type docPlan struct {
	name                        string
	ver                         uint64
	placement, targets, sources []*Node
}

// plan diffs every listed document, in name order, against its
// placement on ring: the owner and replicas successors. A node whose
// listing failed is neither target nor source — its holdings are
// unknown, not empty.
func plan(ls []listing, ring *Ring, replicas int) []docPlan {
	byURL := map[string]map[string]uint64{}
	auth := map[string]uint64{}
	for _, l := range ls {
		if l.err == nil {
			byURL[l.node.URL()] = l.docs
			for name, v := range l.docs {
				auth[name] = max(auth[name], v)
			}
		}
	}
	names := make([]string, 0, len(auth))
	for name := range auth {
		names = append(names, name)
	}
	sort.Strings(names)
	plans := make([]docPlan, len(names))
	for i, name := range names {
		p := docPlan{name: name, ver: auth[name], placement: ring.Replicas(name, replicas)}
		for _, n := range p.placement {
			docs, listed := byURL[n.URL()]
			switch {
			case !listed:
			case docs[name] < p.ver:
				p.targets = append(p.targets, n)
			default:
				p.sources = append(p.sources, n)
			}
		}
		for _, l := range ls {
			if l.err == nil && l.docs[name] == p.ver && !hasNode(p.placement, l.node) {
				p.sources = append(p.sources, l.node)
			}
		}
		plans[i] = p
	}
	return plans
}

// fetch reads p's document from the first source that returns it at
// p.ver or newer. When none does, the error is the last source's; a
// source found below p.ver reads as ErrNotFound, as a vanished one.
func fetch(ctx context.Context, p docPlan) (serve.DocInfo, error) {
	var err error
	for _, n := range p.sources {
		info, gerr := n.GetDocument(ctx, p.name)
		if gerr == nil && info.Version >= p.ver {
			return info, nil
		}
		if err = gerr; err == nil {
			err = fmt.Errorf("%w (%s): %s is at v%d, below v%d", ErrNotFound, n.Name(), p.name, info.Version, p.ver)
		}
	}
	return serve.DocInfo{}, err
}

// hasNode reports whether ns holds a node at n's URL: the old and the
// new ring of a reshard may reach one backend through two Nodes.
func hasNode(ns []*Node, n *Node) bool {
	return slices.ContainsFunc(ns, func(m *Node) bool { return m.URL() == n.URL() })
}
