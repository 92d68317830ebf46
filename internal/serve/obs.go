package serve

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// serveMetrics are the HTTP tier's instruments, registered into the
// engine's registry so one /metrics exposition covers engine, store
// and wire format.
type serveMetrics struct {
	// httpRequests counts requests by normalized path (the fixed
	// endpoint set, never raw URLs, so cardinality stays bounded).
	httpRequests *obs.CounterVec
	// slowQueries counts traced requests that exceeded the slow-query
	// threshold.
	slowQueries *obs.Counter
	// stage is the engine's shared xpath_stage_seconds family; serve
	// records parse, index_warm, serialize and route into it.
	stage *obs.HistogramVec
}

func (s *Server) initObs() {
	reg := s.eng.Metrics()
	s.reg = reg
	s.traces = obs.NewTraceRing(0)
	s.metrics = &serveMetrics{
		httpRequests: reg.CounterVec("xpath_http_requests_total", "HTTP requests by normalized path", "path"),
		slowQueries:  reg.Counter("xpath_slow_queries_total", "traced requests slower than the -slow-query threshold"),
		stage:        s.eng.StageSeconds(),
	}
	reg.GaugeFunc("xpath_documents", "documents resident in the store", func() float64 {
		return float64(s.docs.Stats().Entries)
	})
	reg.GaugeFunc("xpath_store_bytes", "serialized bytes accounted in the store", func() float64 {
		return float64(s.docs.Stats().Bytes)
	})
}

// SetLogger sets the structured logger request handling reports to
// (default slog.Default()).
func (s *Server) SetLogger(l *slog.Logger) { s.logger = l }

// SetSlowQuery sets the slow-query threshold: traced requests that
// take at least d are logged with their full span tree (0 disables,
// the default).
func (s *Server) SetSlowQuery(d time.Duration) { s.slow = d }

// Traces exposes the recent-trace ring (tests read it; /debug/traces
// serves it).
func (s *Server) Traces() *obs.TraceRing { return s.traces }

func (s *Server) log() *slog.Logger {
	if s.logger != nil {
		return s.logger
	}
	return slog.Default()
}

// normalizePath maps a request path onto the server's fixed endpoint
// set so the per-path counter's label cardinality is bounded by the
// API, not by client behavior.
func normalizePath(p string) string {
	switch p {
	case "/documents", "/query", "/batch", "/stats", "/healthz", "/metrics":
		return p
	}
	if strings.HasPrefix(p, "/debug/") {
		return "debug"
	}
	return "other"
}

// tracedPath reports whether requests to the path get a span tree and
// a structured log line. Probes (/healthz, /stats, /metrics) stay out
// so scrapes don't churn the trace ring.
func tracedPath(p string) bool {
	return p == "/query" || p == "/batch" || p == "/documents"
}

// statusWriter captures the response status for logging while
// preserving the http.Flusher the NDJSON batch stream requires.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument is the serving tier's observability middleware: it counts
// the request, adopts (or mints) the X-Request-Id, opens the root
// "route" span for traced paths, and on completion records the trace,
// emits the structured log line, and fires the slow-query log when the
// threshold is crossed.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := normalizePath(r.URL.Path)
		s.metrics.httpRequests.Inc(path)
		id := r.Header.Get(obs.HeaderRequestID)
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set(obs.HeaderRequestID, id)
		ctx := obs.WithRequestID(r.Context(), id)
		if !tracedPath(path) {
			next.ServeHTTP(w, r.WithContext(ctx))
			return
		}
		tr := obs.NewTrace(id)
		ctx = obs.WithTrace(ctx, tr)
		ctx, root := obs.StartSpan(ctx, "route")
		root.SetAttr("path", path)
		root.SetAttr("method", r.Method)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		root.End()
		// The ring keeps the finished trace; its report is built when
		// somebody reads /debug/traces, and here only if the slow-query
		// log fires.
		tr.Finish()
		s.traces.Add(tr)
		s.metrics.stage.With("route").Observe(elapsed.Seconds())
		log := s.log()
		if s.slow > 0 && elapsed >= s.slow {
			s.metrics.slowQueries.Inc()
			log.Warn("slow query",
				"request_id", id, "method", r.Method, "path", path,
				"status", sw.status, "dur_ms", elapsed.Milliseconds(),
				"trace", traceAttr(tr.Report()))
		}
		// Asked first: at -log-level warn and above the line's
		// arguments would be boxed for nobody.
		if log.Enabled(ctx, slog.LevelInfo) {
			log.Info("request",
				"request_id", id, "method", r.Method, "path", path,
				"status", sw.status, "dur_ms", elapsed.Milliseconds())
		}
	})
}

// traceAttr renders a span report as one compact JSON log attribute —
// the slow-query log's payload must survive line-oriented log
// shipping.
func traceAttr(rep *obs.TraceJSON) string {
	b, err := json.Marshal(rep)
	if err != nil {
		return "unserializable trace"
	}
	return string(b)
}
