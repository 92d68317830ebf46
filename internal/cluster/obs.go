package cluster

import (
	"repro/internal/obs"
	"repro/internal/resilience"
)

// initObs registers the router's instruments. The routed-work counters
// are CounterFuncs over the same atomics /stats reports, so the two
// surfaces cannot disagree; per-path HTTP counts and stage latencies are
// recorded by the middleware.
func (r *Router) initObs() {
	reg := obs.NewRegistry()
	r.reg = reg
	r.mw = &obs.Middleware{
		Requests:    reg.CounterVec("router_http_requests_total", "HTTP requests by normalized path", "path"),
		SlowQueries: reg.Counter("router_slow_queries_total", "traced requests slower than the -slow-query threshold"),
		Stage:       reg.HistogramVec("router_stage_seconds", "per-stage routing latency in seconds", nil, "stage"),
		Endpoints:   []string{"/documents", "/query", "/batch", "/stats", "/health", "/healthz", "/metrics"},
		Traces:      obs.NewTraceRing(),
		SlowQuery:   r.opts.SlowQuery,
		Logger:      r.opts.Logger,
	}
	reg.CounterFunc("router_requests_total", "client requests routed", func() float64 {
		return float64(r.requests.Load())
	})
	reg.CounterFunc("router_retries_total", "replica retries after an unreachable or missing owner", func() float64 {
		return float64(r.retried.Load())
	})
	reg.CounterFunc("router_replicated_total", "successful replica mirror writes", func() float64 {
		return float64(r.replicated.Load())
	})
	reg.CounterFunc("router_replica_errors_total", "failed replica mirror writes", func() float64 {
		return float64(r.replicaErrs.Load())
	})
	reg.CounterFunc("router_drained_total", "read misses answered by the drain ring", func() float64 {
		return float64(r.drained.Load())
	})
	reg.CounterFunc("router_answer_cache_hits_total", "answer cache hits", func() float64 {
		return float64(r.cache.stats().Hits)
	})
	reg.CounterFunc("router_answer_cache_misses_total", "answer cache misses", func() float64 {
		return float64(r.cache.stats().Misses)
	})
	reg.CounterFunc("router_answer_cache_invalidations_total", "answer cache entries invalidated by version bumps", func() float64 {
		return float64(r.cache.stats().Invalidations)
	})
	reg.GaugeFunc("router_peers", "peers in the placement ring", func() float64 {
		return float64(r.ring.Len())
	})
	reg.GaugeFunc("router_peers_healthy", "peers healthy at the last probe", func() float64 {
		return float64(r.healthyPeers())
	})
	reg.GaugeFunc("router_ring_generation", "placement ring generation", func() float64 {
		return float64(r.ring.Generation())
	})
	reg.CounterFunc("xpathrouter_repair_rounds_total", "anti-entropy repair rounds completed", func() float64 {
		return float64(r.repairRounds.Load())
	})
	reg.CounterFunc("xpathrouter_repair_copies_total", "replica copies issued by anti-entropy repair", func() float64 {
		return float64(r.repairCopies.Load())
	})
	reg.CounterFunc("xpathrouter_repair_errors_total", "anti-entropy repair listing and copy failures", func() float64 {
		return float64(r.repairErrs.Load())
	})
	reg.CounterFunc("xpathrouter_retry_denied_total", "retries rejected by the retry budget", func() float64 {
		return float64(r.budget.Denied())
	})
	reg.CounterFunc("xpathrouter_shed_total", "calls shed by per-peer in-flight bounds", func() float64 {
		return float64(r.shedTotal())
	})
	// Per-peer breaker position as a gauge (0 closed, 1 half-open,
	// 2 open), updated by each breaker's state-change hook.
	breakerState := reg.GaugeVec("xpathrouter_breaker_state", "per-peer circuit breaker state (0=closed, 1=half-open, 2=open)", "peer")
	for _, n := range r.ring.Peers() {
		if br := n.Breaker(); br != nil {
			breakerState.Set(float64(br.State()), n.Name())
			name := n.Name()
			br.OnStateChange(func(s resilience.BreakerState) {
				breakerState.Set(float64(s), name)
			})
		}
	}
}
