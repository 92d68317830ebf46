package serve

import (
	"log/slog"
	"time"

	"repro/internal/obs"
)

func (s *Server) initObs() {
	reg := s.eng.Metrics()
	s.reg = reg
	s.stage = s.eng.StageSeconds()
	s.mw = &obs.Middleware{
		Requests:    reg.CounterVec("xpath_http_requests_total", "HTTP requests by normalized path", "path"),
		SlowQueries: reg.Counter("xpath_slow_queries_total", "traced requests slower than the -slow-query threshold"),
		Stage:       s.stage,
		Endpoints:   []string{"/documents", "/query", "/batch", "/stats", "/healthz", "/metrics"},
		Traces:      obs.NewTraceRing(),
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
func (s *Server) SetLogger(l *slog.Logger) { s.mw.Logger, s.conns.log = l, l }

// SetSlowQuery sets the slow-query threshold: requests that take at
// least d are logged with their full span tree, and while it is set
// every request builds one (0 disables, the default).
func (s *Server) SetSlowQuery(d time.Duration) { s.mw.SlowQuery = d }
