// Command xpathreshard moves a document corpus between placement
// rings: when the cluster's peer set changes (a node added for
// capacity, a node retired), it fetches every document that must move
// from the old ring and writes it through the new ring's placement —
// owner plus -replicas successors — preserving each document's
// monotonic version, so replicas and router answer caches keep
// detecting staleness across the migration.
//
// Usage:
//
//	xpathreshard -from http://n1:8080,http://n2:8080 \
//	    -to http://n1:8080,http://n2:8080,http://n3:8080 \
//	    -replicas 1 [-dry-run] [-prune] [-timeout 10s] [-log-level info]
//
// A reshard is the router's anti-entropy repair pass run onto the new
// ring (cluster.Reshard): every node, old and new, is inventoried, each
// document's highest version is copied from a holder to the new
// placement nodes below it, at the version fetched, and -timeout
// bounds each call to a node. The run is idempotent and resumable:
// copies already in place are skipped and the backends refuse stale
// writes themselves — re-running a completed reshard copies nothing,
// and an interrupted run picks up where it stopped. -dry-run prints the
// movement plan (one "copy A -> B" line per pending copy) without
// touching anything. -prune deletes each document's off-placement
// copies once its new-ring copies have all landed; without it the old
// copies stay, which makes a migration trivially abortable.
//
// During the migration, point the router at the new ring with
// -drain-peers set to the old ring: read misses on the new ring are
// forwarded to the old one, so clients keep their answers while
// documents move. Exit status is 0 on a clean run, 1 when any copy or
// prune failed (re-run to reconcile), 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/obs"
)

func main() {
	from := flag.String("from", "", "old ring: comma-separated backend base URLs (required)")
	to := flag.String("to", "", "new ring: comma-separated backend base URLs (required)")
	replicas := flag.Int("replicas", 0, "new ring's replication factor: copies per document beyond the owner")
	dryRun := flag.Bool("dry-run", false, "print the movement plan without copying or pruning")
	prune := flag.Bool("prune", false, "delete off-placement copies after a document's copies all land")
	timeout := flag.Duration("timeout", cluster.DefaultTimeout, "per-node call timeout")
	logLevel := flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
	flag.Parse()

	// Errors go through slog on stderr; the movement plan itself stays
	// plain lines on stdout (Log below), where scripts expect it.
	level, lerr := obs.ParseLogLevel(*logLevel)
	if lerr != nil {
		fmt.Fprintf(os.Stderr, "xpathreshard: %v\n", lerr)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	slog.SetDefault(logger)

	fromNodes, err := cluster.ParsePeers(*from, *timeout)
	if err != nil {
		logger.Error("invalid -from", "err", err)
		os.Exit(2)
	}
	toNodes, err := cluster.ParsePeers(*to, *timeout)
	if err != nil {
		logger.Error("invalid -to", "err", err)
		os.Exit(2)
	}
	// Interrupting the migration is safe (the run is resumable), so
	// SIGINT/SIGTERM cancel the context and the copy pass stops at the
	// next per-document call instead of being killed mid-copy.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sum, err := cluster.Reshard(ctx, cluster.ReshardOptions{
		From:     fromNodes,
		To:       toNodes,
		Replicas: *replicas,
		DryRun:   *dryRun,
		Prune:    *prune,
		Log:      os.Stdout,
	})
	if err != nil {
		logger.Error("reshard failed", "err", err, "copy_errors", sum.Errors)
		if sum.Errors > 0 {
			os.Exit(1)
		}
		os.Exit(2)
	}
}
