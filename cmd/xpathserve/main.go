// Command xpathserve is an HTTP/JSON server for XPath 1.0 queries: the
// sharded document store of internal/store and the concurrent serving
// layer of internal/engine behind the wire format of internal/serve.
//
// Usage:
//
//	xpathserve -addr :8080 -doc catalog=catalog.xml -doc site=site.xml
//
// Endpoints:
//
//	POST   /documents  {"name": "d", "xml": "<a><b/></a>"}   register a document
//	GET    /documents                                         list documents (+ idle ages)
//	GET    /documents?name=d                                  fetch one document (incl. xml)
//	DELETE /documents?name=d                                  evict a document
//	GET    /query?doc=d&q=//b                                 evaluate one query
//	POST   /query      {"doc": "d", "query": "count(//b)"}    same, JSON body
//	POST   /batch      {"doc": "d", "queries": ["//b", ...]}  streaming batch (JSON lines)
//	GET    /stats                                             cache + store + in-flight stats
//	GET    /healthz                                           liveness probe (+ uptime, build info)
//	GET    /metrics                                           Prometheus text-format metrics
//	GET    /debug/traces                                      recent request span trees (JSON)
//
// Observability: every request carries an X-Request-Id (minted here or
// adopted from the router), ?trace=1 on /query returns the request's
// span tree inline, -slow-query logs the span tree of slow requests,
// -log-level tunes the structured (slog) log, and -debug-addr serves
// net/http/pprof on a side address.
//
// Documents are spread over -shards independently locked store shards
// (FNV routing) with per-shard byte accounting against -maxbytes and
// the -evict policy; -maxidle additionally evicts documents that have
// not been queried for that long. Compiled queries are cached (LRU,
// -cache entries); batches fan out over -workers goroutines and stream
// each result the moment it finishes. Evaluation is tied to the
// request context: disconnected clients stop burning CPU at the next
// cancellation checkpoint. A fleet of these nodes scales out behind
// cmd/xpathrouter, which partitions documents across them with the
// same FNV routing the store uses for shards.
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

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/store"
)

// docFlags collects repeated -doc name=path flags.
type docFlags []string

func (d *docFlags) String() string     { return fmt.Sprint(*d) }
func (d *docFlags) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	var docs docFlags
	addr := flag.String("addr", ":8080", "listen address")
	strategy := flag.String("strategy", "auto", "evaluation strategy: auto|naive|datapool|bottomup|topdown|mincontext|optmincontext|corexpath|xpatterns")
	plannerMode := flag.String("planner", "rules", "accepted (rules|adaptive|off) and ignored: auto is one static table; the flag stays until the benchmark driver stops passing it")
	cacheSize := flag.Int("cache", engine.DefaultCacheSize, "compiled-query cache capacity")
	workers := flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
	naiveBudget := flag.Int64("naive-budget", 0, "step budget for naive/datapool strategies (0 = unlimited)")
	maxRows := flag.Int("maxrows", 0, "context-value table row limit for the bottomup strategy (0 = unlimited)")
	fallback := flag.Bool("fallback", true, "retry queries that trip the bottomup table limit on mincontext instead of erroring")
	maxBody := flag.Int64("max-body", serve.DefaultMaxBodyBytes, "request body size limit in bytes")
	maxDocs := flag.Int("max-docs", serve.DefaultMaxDocuments, "maximum number of retained documents")
	shards := flag.Int("shards", store.DefaultShards, "document store shard count")
	maxBytes := flag.Int64("maxbytes", 0, "document store byte budget, divided evenly among shards and enforced per shard (0 = unlimited)")
	evict := flag.String("evict", "lru", "store policy when the byte budget is exhausted: lru|reject")
	maxIdle := flag.Duration("maxidle", 0, "evict documents not queried for this long (0 = never)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
	slowQuery := flag.Duration("slow-query", 0, "log the full span tree of requests at least this slow (0 = off)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	faultSpec := flag.String("fault-spec", "", "inject faults into matching requests, e.g. 'latency:path=/query;d=200ms,err:p=0.1;code=503' (empty = off)")
	faultSeed := flag.Int64("fault-seed", 0, "seed for probabilistic fault injection (0 = nondeterministic)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
	flag.Var(&docs, "doc", "document to serve, as name=path (repeatable)")
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpathserve: %v\n", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	slog.SetDefault(logger)

	strat, ok := core.StrategyByName(*strategy)
	if !ok {
		fmt.Fprintf(os.Stderr, "xpathserve: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	policy, ok := store.PolicyByName(*evict)
	if !ok {
		fmt.Fprintf(os.Stderr, "xpathserve: unknown eviction policy %q\n", *evict)
		os.Exit(2)
	}
	if _, ok := planner.ModeByName(*plannerMode); !ok {
		fmt.Fprintf(os.Stderr, "xpathserve: unknown planner mode %q\n", *plannerMode)
		os.Exit(2)
	}
	eng := engine.New(engine.Options{
		Strategy:     strat,
		CacheSize:    *cacheSize,
		Workers:      *workers,
		NaiveBudget:  *naiveBudget,
		MaxTableRows: *maxRows,
		Fallback:     *fallback,
	})
	srv := serve.New(eng, store.Config{
		Shards:     *shards,
		MaxBytes:   *maxBytes,
		MaxEntries: *maxDocs,
		Policy:     policy,
	})
	srv.SetMaxBody(*maxBody)
	srv.SetLogger(logger)
	srv.SetSlowQuery(*slowQuery)
	if *faultSpec != "" {
		faults, err := resilience.ParseFaults(*faultSpec, *faultSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xpathserve: %v\n", err)
			os.Exit(2)
		}
		srv.SetFaults(faults)
		logger.Warn("fault injection active", "spec", *faultSpec, "seed", *faultSeed)
	}
	for _, spec := range docs {
		name, path, err := parseDocFlag(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xpathserve: %v\n", err)
			os.Exit(2)
		}
		xml, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xpathserve: %v\n", err)
			os.Exit(1)
		}
		n, _, err := srv.AddDocument(name, string(xml))
		if err != nil {
			fmt.Fprintf(os.Stderr, "xpathserve: %v\n", err)
			os.Exit(1)
		}
		logger.Info("loaded document", "name", name, "path", path, "nodes", n)
	}

	if *maxIdle > 0 {
		// The janitor wakes a few times per idle window so a document is
		// evicted within ~1.25× -maxidle of its last query.
		interval := *maxIdle / 4
		if interval < time.Second {
			interval = time.Second
		}
		go func() {
			for range time.Tick(interval) {
				if evicted := srv.EvictIdle(*maxIdle); len(evicted) > 0 {
					logger.Info("evicted idle documents", "count", len(evicted), "names", strings.Join(evicted, ", "))
				}
			}
		}()
	}

	if *debugAddr != "" {
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}

	logger.Info("xpathserve listening",
		"addr", *addr, "strategy", strat.String(),
		"cache", *cacheSize, "shards", *shards, "docs", fmt.Sprint(srv.DocNames()))
	// Header/idle timeouts bound connection abuse; per-request bodies
	// are capped by the handler's MaxBytesReader. No WriteTimeout:
	// large batches on big documents legitimately take a while, and
	// /batch streams for as long as the client stays.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGTERM/SIGINT drain: flip /healthz to 503 so the router's prober
	// stops routing here, then let in-flight requests finish before the
	// listener closes.
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
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logger.Warn("drain incomplete", "err", err)
			os.Exit(1)
		}
		logger.Info("drained")
	}
}

// parseDocFlag splits a -doc value of the form name=path.
func parseDocFlag(v string) (name, path string, err error) {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return "", "", fmt.Errorf("-doc wants name=path, got %q", v)
	}
	return name, path, nil
}
