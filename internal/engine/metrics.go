package engine

import "repro/internal/obs"

// engineMetrics are the engine's instruments in the shared obs
// registry. Cache and fallback counts are CounterFuncs over the same
// atomics Stats reads, so /metrics and /stats can never disagree.
type engineMetrics struct {
	// queries counts evaluations dispatched; errors the subset that
	// returned one (including cancellations).
	queries *obs.Counter
	errors  *obs.Counter

	// stage is the per-stage latency family (xpath_stage_seconds); the
	// serving layer registers its own stages into the same family via
	// the shared registry's get-or-create semantics.
	stage *obs.HistogramVec

	// query is the evaluation latency family keyed by fragment class
	// (core.Fragment.Label) and the strategy that ran.
	query *obs.HistogramVec
}

// newEngineMetrics registers the engine's instruments in reg.
func newEngineMetrics(reg *obs.Registry, e *Engine) *engineMetrics {
	m := &engineMetrics{
		queries: reg.Counter("xpath_queries_total", "queries evaluated (all sessions)"),
		errors:  reg.Counter("xpath_query_errors_total", "queries that returned an error"),
		stage:   reg.HistogramVec("xpath_stage_seconds", "per-stage request latency in seconds", nil, "stage"),
		query:   reg.HistogramVec("xpath_query_seconds", "evaluation latency in seconds by fragment class and strategy", nil, "fragment", "strategy"),
	}
	reg.CounterFunc("xpath_compile_cache_hits_total", "compiled-query cache hits", func() float64 {
		hits, _, _, _, _, _ := e.cache.snapshot()
		return float64(hits)
	})
	reg.CounterFunc("xpath_compile_cache_misses_total", "compiled-query cache misses", func() float64 {
		_, misses, _, _, _, _ := e.cache.snapshot()
		return float64(misses)
	})
	reg.CounterFunc("xpath_compile_cache_evictions_total", "compiled-query cache evictions", func() float64 {
		_, _, evictions, _, _, _ := e.cache.snapshot()
		return float64(evictions)
	})
	reg.CounterFunc("xpath_fallbacks_total", "queries retried on MinContext after a table-limit trip", func() float64 {
		return float64(e.fallbacks.Load())
	})
	reg.GaugeFunc("xpath_inflight", "evaluations currently executing", func() float64 {
		return float64(e.inFlight.Load())
	})
	return m
}

// StageSeconds returns the engine's per-stage latency family so the
// serving layer can record its own stages (parse, index_warm,
// serialize, route) into the same xpath_stage_seconds histogram the
// compile and evaluate stages use.
func (e *Engine) StageSeconds() *obs.HistogramVec { return e.metrics.stage }
