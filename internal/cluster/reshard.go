package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/resilience"
)

// ReshardOptions configures one resharding run: move every document
// from the placement implied by the From ring to the placement implied
// by the To ring, preserving versions.
type ReshardOptions struct {
	// From is the old ring's peer set; To the new ring's. Peers may
	// overlap — growing a 2-node ring to 3 keeps the original nodes in
	// both.
	From, To []*Node
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

// Reshard is the convergence pass (converge.go) run onto the To ring:
// it inventories every node, old and new — so a partially migrated
// corpus resumes instead of restarting — plans the copies each document
// still needs on the new placement, fetches each planned document and
// writes it to its targets. The backends skip stale writes, so the run
// is idempotent: re-running a completed reshard copies nothing. A
// document replaced mid-run is copied at whatever version its fetch
// returns; a router in drain mode keeps answering for the stragglers
// until a final run reports zero copies. A document no source still
// holds counts an error (the next run reconciles); a node or source
// that cannot be reached, or ctx ending, stops the run with that error.
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
	oldRing, err := NewRing(opts.From, 0)
	if err != nil {
		return sum, fmt.Errorf("old ring: %w", err)
	}
	newRing, err := NewRing(opts.To, 0)
	if err != nil {
		return sum, fmt.Errorf("new ring: %w", err)
	}
	var nodes []*Node
	for _, n := range append(slices.Clone(oldRing.Peers()), newRing.Peers()...) {
		if !hasNode(nodes, n) {
			nodes = append(nodes, n)
		}
	}

	// A node that stays unreachable aborts the run: resharding around a
	// hole would silently lose whatever only that node held.
	ls := inventory(ctx, nodes, resilience.NewBackoff(0))
	for _, l := range ls {
		if l.err != nil {
			return sum, fmt.Errorf("inventory %s: %w", l.node.Name(), l.err)
		}
	}
	plans := plan(ls, newRing, opts.Replicas)
	sum.Documents = len(plans)
	prunes := make([][]*Node, len(plans)) // holders the new ring does not place
	for i, p := range plans {
		sum.Skipped += len(p.placement) - len(p.targets)
		for _, t := range p.targets {
			logf("%s v%d: copy %s -> %s", p.name, p.ver, p.sources[0].Name(), t.Name())
		}
		for _, l := range ls {
			if _, ok := l.docs[p.name]; opts.Prune && ok && !hasNode(p.placement, l.node) {
				prunes[i] = append(prunes[i], l.node)
				logf("%s v%d: prune %s", p.name, p.ver, l.node.Name())
			}
		}
	}

	if opts.DryRun {
		for i, p := range plans {
			sum.Copies += len(p.targets)
			sum.Pruned += len(prunes[i])
		}
		logf("dry run: %d documents, %d copies, %d already placed, %d prunes",
			sum.Documents, sum.Copies, sum.Skipped, sum.Pruned)
		return sum, nil
	}

	failed := make([]bool, len(plans))
	for i, p := range plans {
		if len(p.targets) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return sum, err
		}
		info, err := fetch(ctx, p)
		if IsNotFound(err) {
			logf("source no longer holds %s v%d (%v); re-run to reconcile", p.name, p.ver, err)
			sum.Errors++
			failed[i] = true
			continue
		}
		if err != nil {
			return sum, fmt.Errorf("fetching %s: %w", p.name, err)
		}
		for _, t := range p.targets {
			if _, _, err := t.PutDocumentAt(ctx, p.name, info.XML, info.Version); err != nil {
				logf("copy %s -> %s failed: %v", p.name, t.Name(), err)
				sum.Errors++
				failed[i] = true
				continue
			}
			sum.Copies++
		}
	}

	// Only documents whose copies all landed lose their off-ring copies,
	// so an interrupted run never deletes the last good copy.
	for i, p := range plans {
		if failed[i] {
			continue
		}
		for _, n := range prunes[i] {
			if err := n.DeleteDocument(ctx, p.name); err != nil && !IsNotFound(err) {
				logf("prune %s from %s failed: %v", p.name, n.Name(), err)
				sum.Errors++
				continue
			}
			sum.Pruned++
		}
	}

	logf("resharded: %d documents, %d copies, %d already placed, %d pruned, %d errors",
		sum.Documents, sum.Copies, sum.Skipped, sum.Pruned, sum.Errors)
	if sum.Errors > 0 {
		return sum, fmt.Errorf("reshard finished with %d errors; re-run to reconcile", sum.Errors)
	}
	return sum, nil
}

// IsNotFound reports whether err is the typed "document not found on
// peer" condition.
func IsNotFound(err error) bool { return errors.Is(err, ErrNotFound) }
