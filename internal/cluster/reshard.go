package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/resilience"
	"repro/internal/serve"
)

// ReshardOptions configures one resharding run: move every document
// from the placement implied by the From ring to the placement implied
// by the To ring, preserving versions.
type ReshardOptions struct {
	// From is the old ring's peer set; To the new ring's. Peers may
	// overlap — growing a 2-node ring to 3 keeps the original nodes in
	// both.
	From, To []*Node
	// FromGeneration and ToGeneration stamp the two rings (defaults: 1
	// and FromGeneration+1).
	FromGeneration, ToGeneration uint64
	// Replicas is the new ring's replication factor: each document is
	// placed on its new owner plus this many ring successors.
	Replicas int
	// DryRun plans without writing: the movement plan is logged and
	// counted, nothing is copied or pruned.
	DryRun bool
	// Prune deletes each document from inventoried nodes that are not
	// among its new-ring targets once its copies have all succeeded.
	// Off by default: a migration that keeps the old copies is
	// trivially abortable.
	Prune bool
	// Timeout bounds each per-node call (default DefaultTimeout).
	Timeout time.Duration
	// Log receives one line per planned movement and a summary (nil
	// discards).
	Log io.Writer
}

// ReshardSummary counts what a run did (or, under DryRun, would do).
type ReshardSummary struct {
	Documents int // distinct documents inventoried
	Copies    int // target copies written (planned, under DryRun)
	Skipped   int // target copies already in place at >= the version
	Pruned    int // copies deleted from non-target nodes
	Errors    int // failed copies or prunes
}

// docPlan is one document's movement plan.
type docPlan struct {
	name    string
	ver     uint64
	source  string   // URL of the node to stream the XML from
	targets []string // URLs still needing a copy at ver
	prunes  []string // URLs holding a copy that the new ring does not place
}

// Reshard moves a corpus from the From ring's placement to the To
// ring's: it inventories every node (old and new — so a partially
// migrated corpus resumes instead of restarting), plans the copies
// each document still needs, fetches each planned document's XML from
// a holder of the newest version (Node.GetDocument), and writes it
// through the new ring at the version the fetch paired with it. The
// write path is Server.AddDocumentAt's mirror form, which skips stale
// writes, so the run is idempotent: re-running a completed reshard
// copies nothing. A document replaced mid-run is copied at whatever
// version its fetch returns; a router in drain mode keeps answering
// for the stragglers until a final run reports zero copies. A source that no longer holds
// a planned document counts an error (the next run reconciles); a
// source that cannot be reached, or ctx ending, stops the run with
// that error before the next fetch.
func Reshard(ctx context.Context, opts ReshardOptions) (ReshardSummary, error) {
	var sum ReshardSummary
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}
	if opts.Replicas < 0 {
		return sum, fmt.Errorf("replicas must be >= 0, got %d", opts.Replicas)
	}
	if opts.FromGeneration == 0 {
		opts.FromGeneration = 1
	}
	if opts.ToGeneration == 0 {
		opts.ToGeneration = opts.FromGeneration + 1
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	oldRing, err := NewRing(opts.From, opts.FromGeneration)
	if err != nil {
		return sum, fmt.Errorf("old ring: %w", err)
	}
	newRing, err := NewRing(opts.To, opts.ToGeneration)
	if err != nil {
		return sum, fmt.Errorf("new ring: %w", err)
	}

	// Every distinct node, old ring first: the copy pass below prefers
	// sourcing from the old ring, whose copies are the ones being
	// retired.
	byURL := map[string]*Node{}
	var nodes []*Node
	for _, n := range append(append([]*Node{}, oldRing.Peers()...), newRing.Peers()...) {
		if byURL[n.URL()] == nil {
			byURL[n.URL()] = n
			nodes = append(nodes, n)
		}
	}

	// Inventory: who holds which document at which version. A transient
	// transport failure is retried once with backoff; a node that stays
	// unreachable aborts the run — resharding around a hole would
	// silently lose whatever only that node held.
	backoff := resilience.NewBackoff(0, 0, 0)
	holders := map[string]map[string]uint64{} // doc -> node URL -> version
	for _, n := range nodes {
		var docs []serve.DocInfo
		err := resilience.Retry(ctx, 2, backoff, func(actx context.Context) error {
			cctx, cancel := context.WithTimeout(actx, opts.Timeout)
			defer cancel()
			var lerr error
			docs, lerr = n.Documents(cctx)
			return lerr
		}, func(err error) bool { return errors.Is(err, ErrUnavailable) })
		if err != nil {
			return sum, fmt.Errorf("inventory %s: %w", n.Name(), err)
		}
		for _, d := range docs {
			if holders[d.Name] == nil {
				holders[d.Name] = map[string]uint64{}
			}
			holders[d.Name][n.URL()] = d.Version
		}
	}

	// Plan: per document, the newest version wins; its copy must reach
	// the new owner and the replica successors that do not already
	// hold it at that version.
	var names []string
	for name := range holders {
		names = append(names, name)
	}
	sort.Strings(names)
	sum.Documents = len(names)
	var planned []*docPlan
	for _, name := range names {
		hs := holders[name]
		var ver uint64
		for _, v := range hs {
			if v > ver {
				ver = v
			}
		}
		targetSet := map[string]bool{}
		p := &docPlan{name: name, ver: ver}
		for _, tn := range newRing.Replicas(name, opts.Replicas) {
			targetSet[tn.URL()] = true
			if hv, ok := hs[tn.URL()]; !ok || hv < ver {
				p.targets = append(p.targets, tn.URL())
			} else {
				sum.Skipped++
			}
		}
		for url := range hs {
			if !targetSet[url] {
				p.prunes = append(p.prunes, url)
			}
		}
		sort.Strings(p.prunes)
		// Source: a holder of the newest version, old-ring nodes first
		// (the nodes slice order).
		for _, n := range nodes {
			if hs[n.URL()] == ver {
				p.source = n.URL()
				break
			}
		}
		if len(p.targets) > 0 || (opts.Prune && len(p.prunes) > 0) {
			planned = append(planned, p)
		}
		for _, target := range p.targets {
			logf("%s v%d: copy %s -> %s", name, ver, byURL[p.source].Name(), byURL[target].Name())
		}
		if opts.Prune {
			for _, prune := range p.prunes {
				logf("%s v%d: prune %s", name, ver, byURL[prune].Name())
			}
		}
	}

	if opts.DryRun {
		for _, p := range planned {
			sum.Copies += len(p.targets)
			if opts.Prune {
				sum.Pruned += len(p.prunes)
			}
		}
		logf("dry run: %d documents, %d copies, %d already placed, %d prunes (generation %d -> %d)",
			sum.Documents, sum.Copies, sum.Skipped, sum.Pruned, oldRing.Generation(), newRing.Generation())
		return sum, nil
	}

	// Copy pass: fetch each planned document from its source and write
	// it through the new ring. A document replaced since the inventory
	// is fetched at its newer version — the mirror write path keeps
	// that consistent on every target.
	failed := map[string]bool{}
	for _, p := range planned {
		if len(p.targets) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return sum, err
		}
		src := byURL[p.source]
		fctx, cancel := context.WithTimeout(ctx, opts.Timeout)
		info, err := src.GetDocument(fctx, p.name)
		cancel()
		if IsNotFound(err) {
			logf("source %s no longer holds %s; re-run to reconcile", src.Name(), p.name)
			sum.Errors++
			failed[p.name] = true
			continue
		}
		if err != nil {
			return sum, fmt.Errorf("fetching %s from %s: %w", p.name, src.Name(), err)
		}
		// Write at the version the fetch paired with this XML — never
		// the (possibly newer) planned version: labeling old content
		// with a new version would let the stale-write guard pin it.
		// If the fetch saw an older copy than the plan, the copy lands
		// under-versioned and the next run reconciles.
		for _, target := range p.targets {
			cctx, cancel := context.WithTimeout(ctx, opts.Timeout)
			_, _, err := byURL[target].PutDocumentAt(cctx, p.name, info.XML, info.Version)
			cancel()
			if err != nil {
				logf("copy %s -> %s failed: %v", p.name, byURL[target].Name(), err)
				sum.Errors++
				failed[p.name] = true
				continue
			}
			sum.Copies++
		}
	}

	// Prune pass: only documents whose copies all landed lose their
	// off-ring copies, so an interrupted run never deletes the last
	// good copy.
	if opts.Prune {
		for _, p := range planned {
			if failed[p.name] {
				continue
			}
			for _, url := range p.prunes {
				cctx, cancel := context.WithTimeout(ctx, opts.Timeout)
				err := byURL[url].DeleteDocument(cctx, p.name)
				cancel()
				if err != nil && !IsNotFound(err) {
					logf("prune %s from %s failed: %v", p.name, byURL[url].Name(), err)
					sum.Errors++
					continue
				}
				sum.Pruned++
			}
		}
	}

	logf("resharded: %d documents, %d copies, %d already placed, %d pruned, %d errors (generation %d -> %d)",
		sum.Documents, sum.Copies, sum.Skipped, sum.Pruned, sum.Errors, oldRing.Generation(), newRing.Generation())
	if sum.Errors > 0 {
		return sum, fmt.Errorf("reshard finished with %d errors; re-run to reconcile", sum.Errors)
	}
	return sum, nil
}

// IsNotFound reports whether err is the typed "document not found on
// peer" condition.
func IsNotFound(err error) bool { return errors.Is(err, ErrNotFound) }
