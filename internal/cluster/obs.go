package cluster

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// routerMetrics are the router's instruments. The routed-work counters
// are CounterFuncs over the same atomics /stats reports, so the two
// surfaces cannot disagree; per-path HTTP counts and stage latencies
// are recorded by the middleware.
type routerMetrics struct {
	httpRequests *obs.CounterVec
	slowQueries  *obs.Counter
	stage        *obs.HistogramVec
}

func (r *Router) initObs() {
	reg := obs.NewRegistry()
	r.reg = reg
	r.traces = obs.NewTraceRing(0)
	r.metrics = &routerMetrics{
		httpRequests: reg.CounterVec("router_http_requests_total", "HTTP requests by normalized path", "path"),
		slowQueries:  reg.Counter("router_slow_queries_total", "traced requests slower than the -slow-query threshold"),
		stage:        reg.HistogramVec("router_stage_seconds", "per-stage routing latency in seconds", nil, "stage"),
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

func (r *Router) log() *slog.Logger {
	if r.opts.Logger != nil {
		return r.opts.Logger
	}
	return slog.Default()
}

// routerPath maps a request path onto the router's fixed endpoint set
// so label cardinality stays bounded by the API.
func routerPath(p string) string {
	switch p {
	case "/documents", "/query", "/batch", "/stats", "/health", "/healthz", "/metrics":
		return p
	}
	if strings.HasPrefix(p, "/debug/") {
		return "debug"
	}
	return "other"
}

// routerTraced reports whether requests to the path get a span tree
// and a structured log line; probes and scrapes stay out.
func routerTraced(p string) bool {
	return p == "/query" || p == "/batch" || p == "/documents"
}

// routerStatusWriter captures the response status while preserving the
// http.Flusher the merged NDJSON batch stream requires.
type routerStatusWriter struct {
	http.ResponseWriter
	status int
}

func (w *routerStatusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *routerStatusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument is the router's observability middleware: it mints the
// request ID the whole fan-out shares (backends receive it via
// X-Request-Id and tag their logs and batch lines with it), opens the
// root "route" span for traced paths, and on completion records the
// trace, emits the structured log line, and fires the slow-query log
// past the threshold.
func (r *Router) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		path := routerPath(req.URL.Path)
		r.metrics.httpRequests.Inc(path)
		id := req.Header.Get(obs.HeaderRequestID)
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set(obs.HeaderRequestID, id)
		ctx := obs.WithRequestID(req.Context(), id)
		if !routerTraced(path) {
			next.ServeHTTP(w, req.WithContext(ctx))
			return
		}
		tr := obs.NewTrace(id)
		ctx = obs.WithTrace(ctx, tr)
		ctx, root := obs.StartSpan(ctx, "route")
		root.SetAttr("path", path)
		root.SetAttr("method", req.Method)
		sw := &routerStatusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, req.WithContext(ctx))
		elapsed := time.Since(start)
		root.End()
		// As in serve: the ring keeps the finished trace, and a report
		// is built only when one is read or the slow-query log fires.
		tr.Finish()
		r.traces.Add(tr)
		r.metrics.stage.With("route").Observe(elapsed.Seconds())
		log := r.log()
		if r.opts.SlowQuery > 0 && elapsed >= r.opts.SlowQuery {
			r.metrics.slowQueries.Inc()
			log.Warn("slow query",
				"request_id", id, "method", req.Method, "path", path,
				"status", sw.status, "dur_ms", elapsed.Milliseconds(),
				"trace", routerTraceAttr(tr.Report()))
		}
		// Asked first: at -log-level warn and above the line's
		// arguments would be boxed for nobody.
		if log.Enabled(ctx, slog.LevelInfo) {
			log.Info("request",
				"request_id", id, "method", req.Method, "path", path,
				"status", sw.status, "dur_ms", elapsed.Milliseconds())
		}
	})
}

// routerTraceAttr renders a span report as one compact JSON log
// attribute for the slow-query log.
func routerTraceAttr(rep *obs.TraceJSON) string {
	b, err := json.Marshal(rep)
	if err != nil {
		return "unserializable trace"
	}
	return string(b)
}
