package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync"
	"time"
)

// HeaderRequestID is the wire header the router uses to hand a request
// ID to the backend it forwards to, so one ID names the work on both
// tiers.
const HeaderRequestID = "X-Request-Id"

// maxSpansPerTrace bounds a single trace's span tree; a runaway batch
// can't grow a request's trace without limit. Spans past the cap are
// counted, not recorded.
const maxSpansPerTrace = 512

// NewRequestID returns a fresh 16-hex-char request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; fall back to
		// a time-derived ID rather than crashing the request path.
		now := time.Now().UnixNano()
		for i := range b {
			b[i] = byte(now >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

type ctxKey int

const (
	ctxKeyRequestID ctxKey = iota
	ctxKeyTrace
	ctxKeySpan
)

// WithRequestID attaches a request ID to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKeyRequestID, id)
}

// RequestID returns the context's request ID, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// Trace is one request's span tree. The zero value is not usable; use
// NewTrace. A nil *Trace is a valid no-op: StartSpan on a context
// without a trace returns a nil span whose methods all no-op, so
// instrumented code never branches on "is tracing on".
type Trace struct {
	requestID string
	start     time.Time

	mu      sync.Mutex
	end     time.Time // set by Finish; zero while the request runs
	roots   []*Span
	spans   int // recorded spans, capped at maxSpansPerTrace
	dropped int // spans discarded past the cap
}

// Span is one timed region inside a trace. All mutable state is
// guarded by the owning Trace's mutex so concurrent batch workers can
// add sibling spans safely.
type Span struct {
	t      *Trace
	parent *Span
	name   string
	start  time.Time

	// Guarded by t.mu.
	end      time.Time
	attrs    []spanAttr
	remote   any
	children []*Span
}

type spanAttr struct {
	key string
	val string
}

// NewTrace starts a trace for the given request ID.
func NewTrace(requestID string) *Trace {
	return &Trace{requestID: requestID, start: time.Now()}
}

// RequestID returns the ID the trace was created with.
func (t *Trace) RequestID() string {
	if t == nil {
		return ""
	}
	return t.requestID
}

// WithTrace attaches a trace (and its request ID) to the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	ctx = WithRequestID(ctx, t.RequestID())
	return context.WithValue(ctx, ctxKeyTrace, t)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKeyTrace).(*Trace)
	return t
}

// StartSpan opens a named span under the context's current span (or as
// a root) and returns a context carrying it as the new parent. Without
// a trace in ctx it returns (ctx, nil) — and every method on a nil
// *Span is a no-op — so callers never guard call sites.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TraceFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(ctxKeySpan).(*Span)
	s := &Span{t: t, parent: parent, name: name, start: time.Now()}
	t.mu.Lock()
	if t.spans >= maxSpansPerTrace {
		t.dropped++
		t.mu.Unlock()
		return ctx, nil
	}
	t.spans++
	if parent != nil {
		parent.children = append(parent.children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	t.mu.Unlock()
	return context.WithValue(ctx, ctxKeySpan, s), s
}

// End closes the span. Idempotent; the first End wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.t.mu.Unlock()
}

// SetAttr records a key/value annotation on the span (strategy name,
// fragment class, cache outcome, ...).
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, spanAttr{key, val})
	s.t.mu.Unlock()
}

// AttachRemote hangs a remote tier's trace report (or any JSON-able
// payload) under the span — the router uses it to splice a backend's
// span tree into the forward span.
func (s *Span) AttachRemote(v any) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.remote = v
	s.t.mu.Unlock()
}

// TraceJSON is the wire form of a finished trace: the ?trace=1
// response field, the /debug/traces ring entry, and the slow-query log
// payload. Durations are nanoseconds.
type TraceJSON struct {
	RequestID string     `json:"request_id"`
	Start     time.Time  `json:"start"`
	TotalNs   int64      `json:"total_ns"`
	Dropped   int        `json:"dropped_spans,omitempty"`
	Spans     []SpanJSON `json:"spans"`
}

// SpanJSON is one node of a reported span tree. StartNs is the offset
// from the trace start.
type SpanJSON struct {
	Name     string            `json:"name"`
	StartNs  int64             `json:"start_ns"`
	DurNs    int64             `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Remote   any               `json:"remote,omitempty"`
	Children []SpanJSON        `json:"children,omitempty"`
}

// Finish stops the trace's clock: every later Report reads the total,
// and any span still open, as of this moment rather than as of the
// report. The middleware calls it when the request completes, so a
// report rendered long afterwards (the /debug/traces page, the
// slow-query log) says what one rendered on the spot would have.
// Idempotent; the first Finish wins.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.end.IsZero() {
		t.end = time.Now()
	}
	t.mu.Unlock()
}

// Report snapshots the trace as JSON. Open spans are reported as
// ending now (or at Finish, once called); the trace itself stays
// usable afterwards. Safe to call concurrently with span recording.
func (t *Trace) Report() *TraceJSON {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.end.IsZero() {
		now = t.end
	}
	out := &TraceJSON{
		RequestID: t.requestID,
		Start:     t.start,
		TotalNs:   now.Sub(t.start).Nanoseconds(),
		Dropped:   t.dropped,
		Spans:     make([]SpanJSON, 0, len(t.roots)),
	}
	for _, s := range t.roots {
		out.Spans = append(out.Spans, s.reportLocked(t.start, now))
	}
	return out
}

// reportLocked converts one span subtree; t.mu must be held.
func (s *Span) reportLocked(origin, now time.Time) SpanJSON {
	end := s.end
	if end.IsZero() {
		end = now
	}
	j := SpanJSON{
		Name:    s.name,
		StartNs: s.start.Sub(origin).Nanoseconds(),
		DurNs:   end.Sub(s.start).Nanoseconds(),
		Remote:  s.remote,
	}
	if len(s.attrs) > 0 {
		j.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			j.Attrs[a.key] = a.val
		}
	}
	for _, c := range s.children {
		j.Children = append(j.Children, c.reportLocked(origin, now))
	}
	return j
}

// TraceRequested reports whether the client asked for an inline span
// report (?trace=1).
func TraceRequested(r *http.Request) bool {
	// Nearly every request has no query string at all; don't parse one.
	return r.URL.RawQuery != "" && r.URL.Query().Get("trace") == "1"
}

// TraceRing is a bounded buffer of recent finished traces, served at
// /debug/traces. It keeps the traces themselves and renders their
// reports only when Snapshot is asked for them: every traced request
// adds one, and almost none is ever read.
type TraceRing struct {
	cap int

	mu   sync.Mutex
	buf  []*Trace
	next int
}

// DefaultTraceRingSize is the number of recent traces /debug/traces
// retains.
const DefaultTraceRingSize = 64

// NewTraceRing creates a ring retaining the last n traces (n <= 0
// takes DefaultTraceRingSize).
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = DefaultTraceRingSize
	}
	return &TraceRing{cap: n}
}

// Add records a finished trace (see Trace.Finish). Nil traces are
// ignored.
func (r *TraceRing) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, t)
		return
	}
	r.buf[r.next] = t
	r.next = (r.next + 1) % r.cap
}

// Snapshot returns the reports of the retained traces, newest first.
func (r *TraceRing) Snapshot() []*TraceJSON {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	traces := make([]*Trace, 0, len(r.buf))
	if len(r.buf) < r.cap {
		for i := len(r.buf) - 1; i >= 0; i-- {
			traces = append(traces, r.buf[i])
		}
	} else {
		for i := 0; i < r.cap; i++ {
			traces = append(traces, r.buf[(r.next-1-i+2*r.cap)%r.cap])
		}
	}
	r.mu.Unlock()
	// Rendered outside the ring's lock: a report takes its trace's own.
	out := make([]*TraceJSON, len(traces))
	for i, t := range traces {
		out[i] = t.Report()
	}
	return out
}

// Handler serves the ring as a JSON array, newest first.
func (r *TraceRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSONIndent(w, r.Snapshot())
	})
}
