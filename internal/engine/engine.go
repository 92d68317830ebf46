// Package engine is the concurrent serving layer on top of
// internal/core: it amortizes query compilation across requests with a
// thread-safe LRU cache of compiled queries, and parallelizes batch
// evaluation over a bounded worker pool.
//
// The layering mirrors the combined processor of the paper's
// introduction — internal/core picks the best algorithm per query — but
// adds what a production deployment needs around it: compile-once
// semantics under sustained traffic (in the spirit of the compiled-
// query reuse of Gottlob/Orsi/Pieris's rewriting systems), bounded
// concurrency, and observable cache/in-flight statistics.
//
// Concurrency model: a Document is immutable after parsing (its lazy
// strval memo is a slice of atomic pointers), a compiled *core.Query is
// immutable after Compile, and core.Engine.Evaluate builds per-call
// evaluator state. One Engine and its Sessions may therefore be shared
// freely by any number of goroutines; internal/core's
// TestConcurrentEvaluation and this package's race tests pin that
// contract down.
package engine

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/planner"
)

// DefaultCacheSize is the compiled-query cache capacity used when
// Options.CacheSize is zero.
const DefaultCacheSize = 1024

// Options configures an Engine. The zero value is a sensible serving
// default: Auto strategy, DefaultCacheSize cache, GOMAXPROCS workers.
type Options struct {
	// Strategy is the evaluation strategy handed to internal/core for
	// every session (default Auto: the combined processor).
	Strategy core.Strategy

	// CacheSize bounds the compiled-query LRU cache (default
	// DefaultCacheSize) and sizes its second-miss doorkeeper.
	CacheSize int

	// Workers bounds the per-batch worker pool (default GOMAXPROCS).
	Workers int

	// Planner is ignored: Auto is one static table (core.Explain) and
	// there is no mode to select. The field stays because the
	// benchmark's layer probe sets it; the follow-up [benchmark] issue
	// named in internal/planner's package comment removes it.
	Planner planner.Mode

	// Fallback is ignored: no strategy has a resource limit to fall
	// back from. The field stays because the benchmark's layer probe
	// sets it; the follow-up [benchmark] issue named in
	// internal/planner's package comment removes it with Planner.
	Fallback bool

	// Metrics is the observability registry the engine records into
	// (nil: the engine creates its own). The serving layer passes the
	// registry on so engine, HTTP and store instruments share one
	// /metrics exposition.
	Metrics *obs.Registry
}

// Engine caches compiled queries and spawns Sessions over documents.
// It is safe for concurrent use.
type Engine struct {
	opts     Options
	cache    *queryCache
	reg      *obs.Registry
	metrics  *engineMetrics
	inFlight atomic.Int64
}

// New creates an Engine. Zero-valued Options fields take defaults.
func New(opts Options) *Engine {
	if opts.CacheSize <= 0 {
		opts.CacheSize = DefaultCacheSize
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	e := &Engine{opts: opts, cache: newQueryCache(opts.CacheSize), reg: opts.Metrics}
	e.metrics = newEngineMetrics(e.reg, e)
	return e
}

// Metrics returns the registry the engine records into, so upper
// layers (serve, cmd wiring) can add their own instruments to the same
// /metrics exposition.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// Strategy returns the engine's configured evaluation strategy.
func (e *Engine) Strategy() core.Strategy { return e.opts.Strategy }

// Compile returns the compiled form of src, consulting the cache first
// so each distinct query string is parsed and classified once under
// sustained traffic. Compilation errors are not cached.
func (e *Engine) Compile(src string) (*core.Query, error) {
	return e.CompileContext(context.Background(), src)
}

// CompileContext is Compile with trace plumbing: when ctx carries an
// obs trace, the cache probe and (on a miss) the compilation each get
// a span, with the cache outcome recorded as an attribute.
func (e *Engine) CompileContext(ctx context.Context, src string) (*core.Query, error) {
	_, lookup := obs.StartSpan(ctx, "cache_lookup")
	if q, ok := e.cache.get(src); ok {
		lookup.SetAttr("outcome", "hit")
		lookup.End()
		return q, nil
	}
	lookup.SetAttr("outcome", "miss")
	lookup.End()
	_, span := obs.StartSpan(ctx, "compile")
	start := time.Now()
	q, err := core.Compile(src)
	if err != nil {
		span.End()
		return nil, err
	}
	q = e.cache.add(src, q, uint64(time.Since(start)))
	span.SetAttr("fragment", q.Fragment().Label())
	span.End()
	e.metrics.stage.With("compile").ObserveSince(start)
	return q, nil
}

// Stats is a point-in-time reading of the engine's observable state.
type Stats struct {
	// Hits, Misses and Evictions count compiled-query cache events
	// since the engine was created. Rejects counts the misses that were
	// a text's first sighting: compiled and answered, not cached (see
	// queryCache).
	Hits, Misses, Evictions, Rejects uint64
	// CompileNanosSaved is the cumulative compile time cache hits
	// avoided re-spending, summed from each entry's own recorded
	// compilation cost.
	CompileNanosSaved uint64
	// Size and Capacity describe the cache's current fill.
	Size, Capacity int
	// Queries counts evaluations dispatched across all sessions
	// (xpath_queries_total); InFlight those currently executing.
	Queries  uint64
	InFlight int64
}

// HitRate returns the cache hit fraction in [0, 1] (0 before any
// lookup).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns current cache and in-flight statistics.
func (e *Engine) Stats() Stats {
	c := e.cache.snapshot()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Rejects: c.rejects,
		CompileNanosSaved: c.savedNanos,
		Size:              c.size, Capacity: c.capacity,
		Queries:  e.metrics.queries.Value(),
		InFlight: e.inFlight.Load(),
	}
}
