package resilience

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/guard"
)

// FaultKind names one injectable failure mode.
type FaultKind int

const (
	// FaultRefuse fails the call before it starts: the server aborts the
	// connection without a response, the client transport returns a
	// connection-refused style error.
	FaultRefuse FaultKind = iota
	// FaultLatency delays the call by the rule's duration before letting
	// it proceed normally.
	FaultLatency
	// FaultErr answers with an injected HTTP status (default 503)
	// instead of the real handler/peer response.
	FaultErr
	// FaultCut severs the stream mid-flight: the server aborts after
	// `after` response writes, the client sees the body error out after
	// `after` bytes.
	FaultCut
)

func (k FaultKind) String() string {
	switch k {
	case FaultRefuse:
		return "refuse"
	case FaultLatency:
		return "latency"
	case FaultErr:
		return "err"
	case FaultCut:
		return "cut"
	}
	return "unknown"
}

// faultRule is one parsed injection rule.
type faultRule struct {
	kind   FaultKind
	path   string        // request path prefix ("" matches all)
	method string        // exact method ("" matches all)
	peer   string        // host substring, matched client-side ("" matches all)
	prob   float64       // trigger probability in (0,1]
	times  int           // remaining triggers; < 0 means unlimited
	delay  time.Duration // latency rules
	code   int           // err rules
	after  int           // cut rules: writes (server) / bytes (client) before the cut
	fired  uint64        // cumulative triggers, for Stats
}

// Faults is a set of seeded, deterministic fault-injection rules. It
// mounts server-side as a middleware (Handler) — the -fault-spec hook
// in xpathserve and xpathrouter — or client-side as a transport
// wrapper (Transport). Safe for concurrent use; a nil *Faults injects
// nothing.
type Faults struct {
	state guard.Locked[faultsState]
}

// faultsState is what an injector's lock guards: the random source and
// the rules, whose trigger counts change as they fire.
type faultsState struct {
	rng   *rand.Rand
	rules []*faultRule
}

// ParseFaults parses a fault spec into an injector. The grammar is a
// comma-separated list of rules, each "kind:key=val;key=val":
//
//	kind   refuse | latency | err | cut
//	path   request path prefix the rule matches (default: all)
//	method HTTP method the rule matches (default: all)
//	peer   substring of the target host, client side only (default: all)
//	p      trigger probability 0 < p <= 1 (default 1)
//	times  trigger at most N times, then lie dormant (default unlimited)
//	d      latency duration, e.g. 200ms (latency rules; required)
//	code   injected status (err rules; default 503)
//	after  writes (server) or bytes (client) to pass before cutting
//	       (cut rules; default 0 — cut immediately)
//
// Example: "latency:path=/query;d=200ms,cut:path=/batch;after=2;times=1".
// An empty spec returns (nil, nil). Seed 0 derives one from the clock;
// pass a fixed seed for reproducible chaos runs.
func ParseFaults(spec string, seed int64) (*Faults, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	var rules []*faultRule
	for _, rs := range strings.Split(spec, ",") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		r, err := parseRule(rs)
		if err != nil {
			return nil, fmt.Errorf("fault spec %q: %w", rs, err)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	return &Faults{state: guard.New(faultsState{rng: rand.New(rand.NewSource(seed)), rules: rules})}, nil
}

func parseRule(rs string) (*faultRule, error) {
	kindStr, rest, _ := strings.Cut(rs, ":")
	r := &faultRule{prob: 1, times: -1, code: http.StatusServiceUnavailable}
	switch kindStr {
	case "refuse":
		r.kind = FaultRefuse
	case "latency":
		r.kind = FaultLatency
	case "err":
		r.kind = FaultErr
	case "cut":
		r.kind = FaultCut
	default:
		return nil, fmt.Errorf("unknown fault kind %q", kindStr)
	}
	if rest == "" {
		if r.kind == FaultLatency {
			return nil, fmt.Errorf("latency fault needs d=<duration>")
		}
		return r, nil
	}
	for _, kv := range strings.Split(rest, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("malformed option %q (want key=val)", kv)
		}
		var err error
		switch key {
		case "path":
			r.path = val
		case "method":
			r.method = strings.ToUpper(val)
		case "peer":
			r.peer = val
		case "p":
			if r.prob, err = strconv.ParseFloat(val, 64); err != nil || r.prob <= 0 || r.prob > 1 {
				return nil, fmt.Errorf("p=%q: want probability in (0,1]", val)
			}
		case "times":
			if r.times, err = strconv.Atoi(val); err != nil || r.times < 1 {
				return nil, fmt.Errorf("times=%q: want positive integer", val)
			}
		case "d":
			if r.delay, err = time.ParseDuration(val); err != nil || r.delay <= 0 {
				return nil, fmt.Errorf("d=%q: want positive duration", val)
			}
		case "code":
			if r.code, err = strconv.Atoi(val); err != nil || r.code < 100 || r.code > 599 {
				return nil, fmt.Errorf("code=%q: want HTTP status", val)
			}
		case "after":
			if r.after, err = strconv.Atoi(val); err != nil || r.after < 0 {
				return nil, fmt.Errorf("after=%q: want non-negative integer", val)
			}
		default:
			return nil, fmt.Errorf("unknown option %q", key)
		}
	}
	if r.kind == FaultLatency && r.delay <= 0 {
		return nil, fmt.Errorf("latency fault needs d=<duration>")
	}
	return r, nil
}

// match decides under the lock whether a rule triggers for the given
// request shape, consuming its trigger budget when it does.
func (f *Faults) match(method, path, host string) *faultRule {
	if f == nil {
		return nil
	}
	st := f.state.Lock()
	defer f.state.Unlock()
	for _, r := range st.rules {
		if r.times == 0 {
			continue
		}
		if r.path != "" && !strings.HasPrefix(path, r.path) {
			continue
		}
		if r.method != "" && r.method != method {
			continue
		}
		if r.peer != "" && !strings.Contains(host, r.peer) {
			continue
		}
		if r.prob < 1 && st.rng.Float64() >= r.prob {
			continue
		}
		if r.times > 0 {
			r.times--
		}
		r.fired++
		return r
	}
	return nil
}

// Fired returns how many times each rule has triggered, in spec order
// — the chaos harness's assertion hook.
func (f *Faults) Fired() []uint64 {
	if f == nil {
		return nil
	}
	st := f.state.Lock()
	defer f.state.Unlock()
	out := make([]uint64, len(st.rules))
	for i, r := range st.rules {
		out[i] = r.fired
	}
	return out
}

// Handler mounts the injector as server middleware: refuse and cut
// abort the connection (http.ErrAbortHandler — the client sees EOF /
// a reset, not a status), latency sleeps before the real handler, err
// answers with the injected status. Peer selectors never match
// server-side. A nil *Faults returns next unchanged.
func (f *Faults) Handler(next http.Handler) http.Handler {
	if f == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r := f.match(req.Method, req.URL.Path, "")
		if r == nil {
			next.ServeHTTP(w, req)
			return
		}
		switch r.kind {
		case FaultRefuse:
			panic(http.ErrAbortHandler)
		case FaultLatency:
			if err := Sleep(req.Context(), r.delay); err != nil {
				return
			}
			next.ServeHTTP(w, req)
		case FaultErr:
			http.Error(w, "injected fault", r.code)
		case FaultCut:
			cw := &cutWriter{ResponseWriter: w, state: guard.New(cutState{left: r.after})}
			next.ServeHTTP(cw, req)
		}
	})
}

// cutWriter passes through `left` Write calls, flushes what it let
// out so the client observes a truncated-but-started stream, then
// severs the connection. The cut must not panic: streaming handlers
// legitimately write from worker goroutines, where a panic would take
// down the process instead of one response. Hijacking the connection
// and closing it works from any goroutine; where hijacking is
// unsupported the writes just start failing.
type cutWriter struct {
	http.ResponseWriter
	state guard.Locked[cutState]
}

// cutState is what a cutWriter's lock guards.
type cutState struct {
	left int
	cut  bool
}

func (c *cutWriter) Write(p []byte) (int, error) {
	st := c.state.Lock()
	defer c.state.Unlock()
	if st.left <= 0 {
		if !st.cut {
			st.cut = true
			if fl, ok := c.ResponseWriter.(http.Flusher); ok {
				fl.Flush()
			}
			if hj, ok := c.ResponseWriter.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
				}
			}
		}
		return 0, &faultError{kind: FaultCut}
	}
	st.left--
	return c.ResponseWriter.Write(p)
}

// Flush forwards to the wrapped writer so streaming handlers keep
// their per-line flushing behaviour under injection.
func (c *cutWriter) Flush() {
	st := c.state.Lock()
	defer c.state.Unlock()
	if st.cut {
		return
	}
	if fl, ok := c.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// faultError marks a client-side injected failure so tests can tell
// it from organic transport errors.
type faultError struct{ kind FaultKind }

func (e *faultError) Error() string { return "injected fault: " + e.kind.String() }

// IsInjected reports whether err originated from a Faults transport.
func IsInjected(err error) bool {
	for err != nil {
		if _, ok := err.(*faultError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// faultTransport applies the injector's rules to outbound requests.
type faultTransport struct {
	f     *Faults
	inner http.RoundTripper
}

// Transport mounts the injector as a client http.RoundTripper wrapper:
// refuse fails the round trip outright, latency sleeps first (bounded
// by the request context), err synthesizes a response without touching
// the peer, cut lets the real response start and errors its body after
// `after` bytes. A nil *Faults returns inner unchanged.
func (f *Faults) Transport(inner http.RoundTripper) http.RoundTripper {
	if f == nil {
		return inner
	}
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &faultTransport{f: f, inner: inner}
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := t.f.match(req.Method, req.URL.Path, req.URL.Host)
	if r == nil {
		return t.inner.RoundTrip(req)
	}
	switch r.kind {
	case FaultRefuse:
		return nil, &faultError{kind: FaultRefuse}
	case FaultLatency:
		if err := Sleep(req.Context(), r.delay); err != nil {
			return nil, err
		}
		return t.inner.RoundTrip(req)
	case FaultErr:
		return &http.Response{
			StatusCode: r.code,
			Status:     fmt.Sprintf("%d injected fault", r.code),
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
			Body:       io.NopCloser(bytes.NewReader([]byte("injected fault\n"))),
			Request:    req,
		}, nil
	case FaultCut:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &cutBody{inner: resp.Body, left: int64(r.after)}
		return resp, nil
	}
	return t.inner.RoundTrip(req)
}

// cutBody yields `left` bytes of the real body, then errors as an
// injected mid-stream cut.
type cutBody struct {
	inner io.ReadCloser
	left  int64
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, &faultError{kind: FaultCut}
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.inner.Read(p)
	b.left -= int64(n)
	if err == nil && b.left <= 0 {
		err = &faultError{kind: FaultCut}
	}
	return n, err
}

func (b *cutBody) Close() error { return b.inner.Close() }
