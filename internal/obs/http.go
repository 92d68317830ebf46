package obs

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// maxRequestIDLen bounds an adopted X-Request-Id: the ID is echoed in
// the response header, the trace ring, every log line and every /batch
// line, and forwarded to backends, so a client must not choose its size.
const maxRequestIDLen = 64

// AdoptRequestID returns the client's X-Request-Id value when it is 1–64
// bytes of [0-9A-Za-z._:-], and a fresh ID (NewRequestID) otherwise.
func AdoptRequestID(id string) string {
	if len(id) == 0 || len(id) > maxRequestIDLen {
		return NewRequestID()
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case '0' <= c && c <= '9', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return NewRequestID()
		}
	}
	return id
}

// traceEvery is how often an ordinary request to a traced path builds a
// span tree: one in this many, so /debug/traces keeps showing recent
// traffic without every request paying for a tree nobody reads.
const traceEvery = 64

// tracedPath reports whether requests to the (normalized) path are the
// ones traced, timed and logged; probes and scrapes stay out.
func tracedPath(p string) bool {
	return p == "/query" || p == "/batch" || p == "/documents"
}

// Middleware is the HTTP observability wrapper the server and the router
// share. Every request is counted by normalized path and gets a request
// ID: the client's X-Request-Id if AdoptRequestID accepts it, else a
// fresh one, echoed in the response and carried in the context. Requests
// to /query, /batch and /documents are also timed into Stage as "route"
// and logged; they build a span tree only when one will be read — the
// client asked (?trace=1), the slow-query log is on (SlowQuery > 0), or
// the request is one in traceEvery, kept for /debug/traces. Every tree
// built goes to Traces.
//
// Every field is set before the wrapped handler serves its first
// request; the middleware only reads them.
type Middleware struct {
	// Requests counts requests by normalized path (one label).
	Requests *CounterVec
	// SlowQueries counts requests at or over SlowQuery.
	SlowQueries *Counter
	// Stage receives each traced-path request's latency as "route".
	Stage *HistogramVec
	// Endpoints is the fixed path set Requests labels by: any other path
	// under /debug/ counts as "debug", the rest as "other", so the
	// label's cardinality is bounded by the API, not by clients.
	Endpoints []string
	// Traces keeps the span trees built, for /debug/traces.
	Traces *TraceRing
	// SlowQuery is the slow-query threshold (0 = off): a request at least
	// this slow logs its span tree at WARN.
	SlowQuery time.Duration
	// Logger receives the request and slow-query lines (nil:
	// slog.Default(), resolved per request so tests can swap it).
	Logger *slog.Logger

	untraced atomic.Uint64 // traced-path requests nobody asked to trace
}

func (m *Middleware) normalize(p string) string {
	for _, e := range m.Endpoints {
		if p == e {
			return p
		}
	}
	if strings.HasPrefix(p, "/debug/") {
		return "debug"
	}
	return "other"
}

func (m *Middleware) log() *slog.Logger {
	if m.Logger != nil {
		return m.Logger
	}
	return slog.Default()
}

// Wrap returns next behind the middleware.
func (m *Middleware) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := m.normalize(r.URL.Path)
		m.Requests.Inc(path)
		id := AdoptRequestID(r.Header.Get(HeaderRequestID))
		w.Header().Set(HeaderRequestID, id)
		ctx := WithRequestID(r.Context(), id)
		if !tracedPath(path) {
			next.ServeHTTP(w, r.WithContext(ctx))
			return
		}
		var tr *Trace
		if TraceRequested(r) || m.SlowQuery > 0 || m.untraced.Add(1)%traceEvery == 0 {
			tr = NewTrace(id)
			ctx = WithTrace(ctx, tr)
		}
		// Without a trace the span is nil and its methods no-ops.
		ctx, root := StartSpan(ctx, "route")
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
		m.Traces.Add(tr)
		m.Stage.With("route").Observe(elapsed.Seconds())
		log := m.log()
		if m.SlowQuery > 0 && elapsed >= m.SlowQuery {
			m.SlowQueries.Inc()
			log.Warn("slow query",
				"request_id", id, "method", r.Method, "path", path,
				"status", sw.status, "dur_ms", elapsed.Milliseconds(),
				"trace", traceAttr(tr.Report()))
		}
		// Asked first: at -log-level warn and above the line's arguments
		// would be boxed for nobody.
		if log.Enabled(ctx, slog.LevelInfo) {
			log.Info("request",
				"request_id", id, "method", r.Method, "path", path,
				"status", sw.status, "dur_ms", elapsed.Milliseconds())
		}
	})
}

// statusWriter captures the response status for logging while
// preserving the http.Flusher the NDJSON batch streams require.
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

// traceAttr renders a span report as one compact JSON log attribute —
// the slow-query log's payload must survive line-oriented log shipping.
func traceAttr(rep *TraceJSON) string {
	b, err := json.Marshal(rep)
	if err != nil {
		return "unserializable trace"
	}
	return string(b)
}
