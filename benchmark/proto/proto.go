// Package proto is the line protocol between the benchmark driver and
// its layer probe: one JSON request per line on the probe's standard
// input, one JSON reply per line on its standard output. It is also
// the format of the spans the traced window writes to
// benchmark/out/trace-<workload>.json.
package proto

// Span is one timed call into a layer. Spans of one probed operation
// share Op; Parent names the span that caused this one. Times are Unix
// nanoseconds, comparable between the driver and the probe because both
// run on one machine.
type Span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent"`
	Op      int    `json:"op"`
	// Bytes is the size of the response body, on the spans of wire calls.
	Bytes int `json:"bytes,omitempty"`
}

// Micros returns the span's duration in microseconds.
func (s Span) Micros() float64 { return float64(s.EndNs-s.StartNs) / 1e3 }

// Commands of a Request.
const (
	// CmdDoc registers Request.XML under Request.Doc in the probe.
	CmdDoc = "doc"
	// CmdLadder runs Request.Query on Request.Doc once through each
	// in-process layer and replies with one span per rung.
	CmdLadder = "ladder"
	// CmdMicro measures the evaluators, axis kernels, bitsets, parser
	// and index build on Request.Doc and replies with Metrics.
	CmdMicro = "micro"
)

// Request is one command to the probe.
type Request struct {
	Cmd     string       `json:"cmd"`
	Doc     string       `json:"doc"`
	XML     string       `json:"xml,omitempty"`
	Query   string       `json:"query,omitempty"`
	Op      int          `json:"op,omitempty"`
	Queries []MicroQuery `json:"queries,omitempty"`
}

// MicroQuery is one pool template handed to CmdMicro with the fragment
// class it was written for ("core", "xpatterns", "wadler", "full").
type MicroQuery struct {
	Text  string `json:"text"`
	Class string `json:"class"`
}

// Reply answers one Request. A non-empty Error means the command
// failed and the other fields are unset.
type Reply struct {
	Error   string             `json:"error,omitempty"`
	Spans   []Span             `json:"spans,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Names of the ladder's spans. Each rung is an independent execution
// of the same operation through one more layer than the rung before.
const (
	SpanProbe        = "probe" // the parent of every span of one operation
	SpanParse        = "xpath.parse"
	SpanCompile      = "core.compile"
	SpanEvaluate     = "core.evaluate"
	SpanSessionFresh = "engine.session_fresh"
	SpanSessionWarm  = "engine.session_warm"
	SpanHandler      = "serve.handler"
	SpanHTTP         = "serve.http"
	SpanHTTPTraced   = "serve.http_traced"
	SpanRouterMiss   = "cluster.router_miss"
	SpanRouterHit    = "cluster.router_hit"
	SpanRegister     = "serve.register"
	SpanReplicate    = "cluster.register"
	SpanBatch        = "cluster.batch"
)

// FreshSuffix returns trailing XPath whitespace that encodes n: a
// query text with it appended has the same meaning and parse cost, but
// no cache keyed on the text has seen it.
func FreshSuffix(n int) string {
	const ws = " \t\n"
	out := []byte{' '}
	for n > 0 {
		out = append(out, ws[n%len(ws)])
		n /= len(ws)
	}
	return string(out)
}
