// Command xpathrouter is the cluster front of the serving stack: it
// partitions documents across N xpathserve backends with the same
// FNV-1a routing the in-process store uses for shards, so a corpus can
// exceed one machine's memory while clients keep talking to a single
// address with the single-node API.
//
// Usage:
//
//	xpathrouter -addr :8079 -peers http://n1:8080,http://n2:8080,http://n3:8080 \
//	    -replicas 1 -replica-retry 1 -timeout 10s
//
// Endpoints (the xpathserve surface, plus fleet views):
//
//	POST   /documents  {"name": "d", "xml": "..."}   register on the owner + replicas
//	GET    /documents                                merged listing, tagged per node
//	GET    /documents?name=d                         fetch from the owning node
//	DELETE /documents?name=d                         evict from every holder
//	GET    /query?doc=d&q=//b                        forwarded to the owning node
//	POST   /query      {"doc": "d", "query": "..."}  same, JSON body
//	POST   /batch      {"doc": "d", ...}             single-doc batch, relayed
//	POST   /batch      {"docs": ["d","e"], ...}      scatter-gather, one stream per node
//	GET    /stats                                    per-node stats + fleet totals
//	GET    /health                                   per-peer health + ring description (+ uptime, build)
//	GET    /metrics                                  Prometheus text-format metrics
//	GET    /debug/traces                             recent request span trees (JSON)
//
// Observability: the router mints an X-Request-Id per request and
// forwards it to the backends, so one ID correlates router logs,
// backend logs and every NDJSON batch line; ?trace=1 on /query splices
// the owning backend's span tree into the router's own and returns the
// combined report inline; -slow-query logs the span tree of slow
// requests; -debug-addr serves net/http/pprof on a side address.
//
// The -peers list becomes a canonically ordered placement ring
// (stamped -ring-generation): reordering the flag never moves
// documents, only adding or removing a peer does — and that is
// cmd/xpathreshard's job, with -drain-peers pointing this router at
// the old ring so read misses keep answering mid-migration.
// -replicas N mirrors every registration to the owner's next N ring
// successors at the owner-assigned document version, so -replica-retry
// reads hit a warm copy when the owner is down. Repeated identical
// queries are served from an LRU answer cache (-answer-cache entries)
// keyed by (doc, query, version) and invalidated when a registration
// bumps the version.
//
// /batch groups jobs by owning node — M documents over N nodes opens
// at most N backend streams — and merges them into one NDJSON
// response in completion order; every line carries the global job
// index ("index", doc-major), the document ("doc") and the node that
// produced it ("node"). Disconnecting cancels every in-flight backend
// call, and the backends stop their evaluations at the next
// cancellation checkpoint. A single -peers entry is the degenerate
// 1-node deployment: same binary, same API, no special casing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -debug-addr mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8079", "listen address")
	peers := flag.String("peers", "", "comma-separated backend base URLs (required), e.g. http://n1:8080,http://n2:8080")
	retries := flag.Int("replica-retry", 0, "how many further peers to try when a document's owner is unreachable")
	replicas := flag.Int("replicas", 0, "mirror each registration to this many ring successors beyond the owner")
	generation := flag.Uint64("ring-generation", 1, "placement generation stamped on the ring (bump when the peer set changes)")
	answerCache := flag.Int("answer-cache", cluster.DefaultAnswerCacheSize, "router answer cache capacity in entries (0 disables)")
	drainPeers := flag.String("drain-peers", "", "previous ring's backend URLs: forward read misses there while cmd/xpathreshard migrates the corpus")
	timeout := flag.Duration("timeout", cluster.DefaultTimeout, "per-backend-call timeout (batch streams are exempt beyond dial/header latency)")
	healthEvery := flag.Duration("health-interval", 5*time.Second, "background health probe period")
	maxBody := flag.Int64("max-body", serve.DefaultMaxBodyBytes, "request body size limit in bytes (match the backends' -max-body)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
	slowQuery := flag.Duration("slow-query", 0, "log the full span tree of requests at least this slow (0 = off)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	retryBudget := flag.Float64("retry-budget", 0.1, "retry tokens earned per first attempt; retries beyond the accrued budget fail fast (0 = unlimited)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive per-peer failures that open its circuit breaker (0 = default, negative = disabled)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long an open breaker waits before probing the peer again (0 = default)")
	repairInterval := flag.Duration("repair-interval", 30*time.Second, "anti-entropy repair round period (0 = off)")
	peerInflight := flag.Int("peer-inflight", 0, "per-peer in-flight request bound; excess calls are shed with 503 (0 = unlimited)")
	downAfter := flag.Int("down-after", 0, "consecutive probe failures before a peer is marked down (0 = default)")
	faultSpec := flag.String("fault-spec", "", "inject faults into backend calls, e.g. 'refuse:peer=n2;p=0.5,latency:d=100ms' (empty = off)")
	faultSeed := flag.Int64("fault-seed", 0, "seed for probabilistic fault injection (0 = nondeterministic)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpathrouter: %v\n", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	slog.SetDefault(logger)

	nodes, err := parsePeers(*peers, *timeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpathrouter: %v\n", err)
		os.Exit(2)
	}
	cacheSize := *answerCache
	if cacheSize == 0 {
		cacheSize = -1 // Options uses negative for "disabled", 0 for the default
	}
	opts := cluster.Options{
		Retries:          *retries,
		Replicas:         *replicas,
		Generation:       *generation,
		AnswerCacheSize:  cacheSize,
		Timeout:          *timeout,
		HealthInterval:   *healthEvery,
		MaxBody:          *maxBody,
		Logger:           logger,
		SlowQuery:        *slowQuery,
		RetryBudget:      *retryBudget,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		RepairInterval:   *repairInterval,
		PeerInflight:     *peerInflight,
		DownAfter:        *downAfter,
		Seed:             *faultSeed,
	}
	if *drainPeers != "" {
		opts.DrainPeers, err = cluster.ParsePeers(*drainPeers, *timeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xpathrouter: -drain-peers: %v\n", err)
			os.Exit(2)
		}
	}
	if *faultSpec != "" {
		faults, err := resilience.ParseFaults(*faultSpec, *faultSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xpathrouter: -fault-spec: %v\n", err)
			os.Exit(2)
		}
		for _, n := range append(append([]*cluster.Node{}, nodes...), opts.DrainPeers...) {
			n.WrapTransport(faults.Transport)
		}
		logger.Warn("fault injection active", "spec", *faultSpec, "seed", *faultSeed)
	}
	router, err := cluster.New(nodes, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpathrouter: %v\n", err)
		os.Exit(2)
	}
	router.Start()
	defer router.Stop()

	if *debugAddr != "" {
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}

	ring := router.Ring()
	names := make([]string, 0, ring.Len())
	for _, n := range ring.Peers() {
		names = append(names, n.Name())
	}
	logger.Info("xpathrouter listening",
		"addr", *addr, "ring", fmt.Sprint(names), "generation", ring.Generation(),
		"replicas", *replicas, "replica_retry", *retries, "timeout", *timeout)
	hs := &http.Server{
		Addr:              *addr,
		Handler:           router.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGTERM/SIGINT drain: flip /health and /healthz to 503 so
	// upstream load balancers stop sending work, keep answering
	// in-flight requests, then close the listener.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("server failed", "err", err)
			os.Exit(1)
		}
	case <-sigCtx.Done():
		logger.Info("draining", "timeout", *drainTimeout)
		router.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logger.Warn("drain incomplete", "err", err)
			os.Exit(1)
		}
		logger.Info("drained")
	}
}

// parsePeers turns the -peers flag into Nodes via the shared
// cluster.ParsePeers, prefixing errors with the flag's name.
func parsePeers(spec string, timeout time.Duration) ([]*cluster.Node, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-peers is required (comma-separated backend URLs)")
	}
	nodes, err := cluster.ParsePeers(spec, timeout)
	if err != nil {
		return nil, fmt.Errorf("-peers: %w", err)
	}
	return nodes, nil
}
