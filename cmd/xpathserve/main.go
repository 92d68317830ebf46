// Command xpathserve is an HTTP/JSON server for XPath 1.0 queries: the
// document store of internal/store and the concurrent serving
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
// Observability: every request carries an X-Request-Id (minted here, or
// adopted from the client or router when it is 1–64 bytes of
// [0-9A-Za-z._:-]), ?trace=1 on /query returns the request's span tree
// inline, /debug/traces keeps every 64th request's tree, -slow-query
// traces every request and logs the trees of slow ones, -log-level tunes
// the structured (slog) log, and -debug-addr serves net/http/pprof on a
// side address.
//
// Documents live in one store, bounded by -max-docs entries (0 = 64)
// and by -maxbytes of XML (0 = unlimited) under the -evict policy (lru
// evicts the least recently queried documents of the whole store); a
// negative limit is a startup error (exit 2). -maxidle
// additionally evicts documents that have not been queried for that
// long. Compiled queries are cached (LRU, -cache entries); batches fan
// out over -workers goroutines and stream each result the moment it
// finishes. Evaluation is tied to the request context: disconnected
// clients stop burning CPU at the next cancellation checkpoint. A fleet of these nodes scales out behind
// cmd/xpathrouter, which partitions documents across them by FNV-1a
// over the document name.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
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

// The store's two limits. What 0 means differs, and a negative value
// is refused at startup (checkLimits) rather than read as no limit.
var (
	maxDocsUsage  = fmt.Sprintf("maximum number of retained documents (0 = %d documents)", serve.DefaultMaxDocuments)
	maxBytesUsage = "document store byte budget over all documents' XML; a larger document is refused with 413 (0 = unlimited)"
)

// checkLimits refuses a negative -max-docs or -maxbytes, naming the flag.
func checkLimits(maxDocs int, maxBytes int64) error {
	switch {
	case maxDocs < 0:
		return fmt.Errorf("-max-docs %d: must be 0 (%d documents) or more", maxDocs, serve.DefaultMaxDocuments)
	case maxBytes < 0:
		return fmt.Errorf("-maxbytes %d: must be 0 (unlimited) or more", maxBytes)
	}
	return nil
}

// docFlags collects repeated -doc name=path flags.
type docFlags []string

func (d *docFlags) String() string     { return fmt.Sprint(*d) }
func (d *docFlags) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	var docs docFlags
	addr := flag.String("addr", ":8080", "listen address")
	strategy := flag.String("strategy", "auto", "evaluation strategy: auto|topdown|mincontext|optmincontext|corexpath|xpatterns")
	plannerMode := flag.String("planner", "rules", "accepted (rules|adaptive|off) and ignored: auto is one static table; the flag stays until the benchmark driver stops passing it")
	cacheSize := flag.Int("cache", engine.DefaultCacheSize, "compiled-query cache capacity")
	workers := flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
	maxBody := flag.Int64("max-body", serve.DefaultMaxBodyBytes, "request body size limit in bytes")
	maxDocs := flag.Int("max-docs", serve.DefaultMaxDocuments, maxDocsUsage)
	maxBytes := flag.Int64("maxbytes", 0, maxBytesUsage)
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

	if err := checkLimits(*maxDocs, *maxBytes); err != nil {
		fmt.Fprintf(os.Stderr, "xpathserve: %v\n", err)
		os.Exit(2)
	}
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
		Strategy:  strat,
		CacheSize: *cacheSize,
		Workers:   *workers,
	})
	srv := serve.New(eng, store.Config{
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

	// The main listener is served by serve's own connection loop
	// (Server.Serve): 10 s to read a request's head, 2 min idle between
	// requests, request bodies capped by the handler's MaxBytesReader.
	// No write bound: large batches on big documents legitimately take a
	// while, and /batch streams for as long as the client stays.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	logger.Info("xpathserve listening",
		"addr", *addr, "strategy", strat.String(),
		"cache", *cacheSize, "docs", fmt.Sprint(srv.DocNames()))

	// SIGTERM/SIGINT drain: flip /healthz to 503 so the router's prober
	// stops routing here, then let in-flight requests finish — clients'
	// and routers' peer connections alike — before the process exits.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
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
		if err := srv.Shutdown(ctx); err != nil {
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
