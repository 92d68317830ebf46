// Package obs is the observability substrate of the serving stack:
// a dependency-free Prometheus-text-format metrics registry (counters,
// gauges, fixed-bucket histograms, and their labeled variants),
// request-scoped span tracing carried in context.Context, the HTTP
// middleware the server and the router share (Middleware), and the
// process-level build/uptime surfaces the health endpoints report.
//
// The package sits below every other serving layer — engine, serve and
// cluster all record into it — and depends on nothing in the
// repository but internal/guard, a leaf that imports no repository
// package, so instrumenting a layer can never introduce an import
// cycle.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/guard"
)

// DefBuckets are the default latency histogram bucket upper bounds, in
// seconds: 100µs to 10s, roughly logarithmic. Fixed buckets keep every
// scrape allocation-free and make histograms from different processes
// mergeable.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metricNameRe is the registry's naming rule: snake_case, starting
// with a letter. cmd/xpathlint's metricname analyzer enforces the same
// pattern statically on every registration literal.
var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// metric is one registered instrument: a name/help/kind description
// plus a text-format renderer.
type metric interface {
	describe() (name, help, kind string)
	// signature distinguishes incompatible registrations of one name
	// (kind, help, buckets, labels); identical signatures may share the
	// instrument.
	signature() string
	write(w io.Writer)
}

// Registry holds a process's metrics and renders them in Prometheus
// text exposition format. Registration is get-or-create: registering a
// name twice with an identical signature returns the existing
// instrument (so layers sharing a registry can share a histogram
// family), while a signature mismatch panics — silent divergence of
// two instruments under one name is a programming error.
type Registry struct {
	state guard.Locked[registryState]
}

// registryState is what a registry's lock guards.
type registryState struct {
	byName  map[string]metric
	ordered []string
}

// NewRegistry creates an empty Registry.
func NewRegistry() *Registry {
	return &Registry{state: guard.New(registryState{byName: map[string]metric{}})}
}

// register implements the get-or-create contract shared by every
// constructor.
func (r *Registry) register(name string, m metric) metric {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: metric name %q is not snake_case", name))
	}
	st := r.state.Lock()
	defer r.state.Unlock()
	if old, ok := st.byName[name]; ok {
		if old.signature() != m.signature() {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different signature (%s vs %s)", name, m.signature(), old.signature()))
		}
		return old
	}
	st.byName[name] = m
	st.ordered = append(st.ordered, name)
	return m
}

// WriteTo renders every registered metric in Prometheus text format,
// in registration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	st := r.state.Lock()
	metrics := make([]metric, len(st.ordered))
	for i, n := range st.ordered {
		metrics[i] = st.byName[n]
	}
	r.state.Unlock()
	cw := &countingWriter{w: w}
	for _, m := range metrics {
		name, help, kind := m.describe()
		fmt.Fprintf(cw, "# HELP %s %s\n", name, escapeHelp(help))
		fmt.Fprintf(cw, "# TYPE %s %s\n", name, kind)
		m.write(cw)
	}
	return cw.n, cw.err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

// Handler serves the registry at GET /metrics in text exposition
// format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value; integral values print without a
// fraction so counter samples stay grep-friendly.
func formatValue(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelPairs renders {k="v",...} for parallel name/value slices ("" for
// none).
func labelPairs(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing counter.
type Counter struct {
	name, help string
	labelNames []string // a CounterVec child's label names and values
	labelVals  []string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) describe() (string, string, string) { return c.name, c.help, "counter" }
func (c *Counter) signature() string                  { return "counter|" + c.help }
func (c *Counter) write(w io.Writer) {
	fmt.Fprintf(w, "%s%s %d\n", c.name, labelPairs(c.labelNames, c.labelVals), c.v.Load())
}

// Counter registers (or returns) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, &Counter{name: name, help: help}).(*Counter)
}

// funcMetric renders a value read from a callback at scrape time — the
// bridge for counters and gauges the layers already track in their own
// atomics (engine cache hits, router retry counts, store fill), so
// /metrics never double-counts what /stats reports.
type funcMetric struct {
	name, help, kind string
	fn               func() float64
}

func (f *funcMetric) describe() (string, string, string) { return f.name, f.help, f.kind }
func (f *funcMetric) signature() string                  { return f.kind + "|func|" + f.help }
func (f *funcMetric) write(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", f.name, formatValue(f.fn()))
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time; fn must be monotonic.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, &funcMetric{name: name, help: help, kind: "counter", fn: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, &funcMetric{name: name, help: help, kind: "gauge", fn: fn})
}

// Gauge is a value that can go up and down.
type Gauge struct {
	name, help string
	labelNames []string // a GaugeVec child's label names and values
	labelVals  []string
	bits       atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) describe() (string, string, string) { return g.name, g.help, "gauge" }
func (g *Gauge) signature() string                  { return "gauge|" + g.help }
func (g *Gauge) write(w io.Writer) {
	fmt.Fprintf(w, "%s%s %s\n", g.name, labelPairs(g.labelNames, g.labelVals), formatValue(g.Value()))
}

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, &Gauge{name: name, help: help}).(*Gauge)
}

// Histogram is a fixed-bucket histogram of observations (latencies in
// seconds, by convention). Observations are lock-free: one atomic add
// into the bucket plus a CAS-add into the sum.
type Histogram struct {
	name, help string
	labelNames []string
	labelVals  []string
	buckets    []float64 // ascending upper bounds; +Inf is implicit
	counts     []atomic.Uint64
	sumBits    atomic.Uint64
	count      atomic.Uint64
}

func newHistogram(name, help string, buckets []float64, labelNames, labelVals []string) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending", name))
		}
	}
	h := &Histogram{name: name, help: help, buckets: buckets, labelNames: labelNames, labelVals: labelVals}
	h.counts = make([]atomic.Uint64, len(buckets)+1)
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the number of observations recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) describe() (string, string, string) { return h.name, h.help, "histogram" }
func (h *Histogram) signature() string {
	return "histogram|" + h.help + "|" + fmt.Sprint(h.buckets)
}

func (h *Histogram) write(w io.Writer) {
	names := append(append([]string{}, h.labelNames...), "le")
	cum := uint64(0)
	for i, ub := range h.buckets {
		cum += h.counts[i].Load()
		vals := append(append([]string{}, h.labelVals...), formatValue(ub))
		fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, labelPairs(names, vals), cum)
	}
	cum += h.counts[len(h.buckets)].Load()
	vals := append(append([]string{}, h.labelVals...), "+Inf")
	fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, labelPairs(names, vals), cum)
	pairs := labelPairs(h.labelNames, h.labelVals)
	fmt.Fprintf(w, "%s_sum%s %s\n", h.name, pairs, formatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", h.name, pairs, cum)
}

// Histogram registers (or returns) an unlabeled histogram. A nil
// buckets slice takes DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, newHistogram(name, help, buckets, nil, nil)).(*Histogram)
}

// family is what the three labeled families share: children filed
// under their label values (childKey), created on first use and
// rendered in creation order, each a Counter, Gauge or Histogram that
// carries its own label values.
type family[T metric] struct {
	name, help, kind string
	sig              string
	labels           []string
	newChild         func(vals []string) T
	state            guard.Locked[familyState[T]]
}

// familyState is what a family's lock guards.
type familyState[T metric] struct {
	children map[string]T
	order    []T
}

func newFamily[T metric](name, help, kind, sig string, labels []string, newChild func([]string) T) family[T] {
	checkLabels(name, labels)
	return family[T]{name: name, help: help, kind: kind, sig: sig, labels: labels, newChild: newChild,
		state: guard.New(familyState[T]{children: map[string]T{}})}
}

func (f *family[T]) describe() (string, string, string) { return f.name, f.help, f.kind }
func (f *family[T]) signature() string                  { return f.sig }

// lookup finds the child for values; ok is false when it was never
// created.
func (f *family[T]) lookup(values []string) (c T, ok bool) {
	var room [64]byte
	key := f.childKey(room[:0], values)
	st := f.state.Lock()
	c, ok = st.children[string(key)]
	f.state.Unlock()
	return c, ok
}

// child returns the child for values, creating it on first use.
func (f *family[T]) child(values []string) T {
	var room [64]byte
	key := f.childKey(room[:0], values)
	st := f.state.Lock()
	defer f.state.Unlock()
	c, ok := st.children[string(key)]
	if !ok {
		c = f.newChild(append([]string{}, values...))
		st.children[string(key)] = c
		st.order = append(st.order, c)
	}
	return c
}

// childKey appends the label values of a child, NUL-separated, to dst:
// the key its family files it under. Built in a caller's stack array
// and looked up as m[string(key)], which Go does without copying, it
// finds an existing child with no allocation.
func (f *family[T]) childKey(dst []byte, values []string) []byte {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	for i, v := range values {
		if i > 0 {
			dst = append(dst, 0)
		}
		dst = append(dst, v...)
	}
	return dst
}

func (f *family[T]) write(w io.Writer) {
	st := f.state.Lock()
	children := append([]T{}, st.order...)
	f.state.Unlock()
	for _, c := range children {
		c.write(w)
	}
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ family[*Counter] }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	sig := "counter|" + help + "|" + strings.Join(labels, ",")
	return r.register(name, &CounterVec{newFamily(name, help, "counter", sig, labels, func(vals []string) *Counter {
		return &Counter{name: name, help: help, labelNames: labels, labelVals: vals}
	})}).(*CounterVec)
}

// Inc adds one to the child counter for the given label values.
func (v *CounterVec) Inc(values ...string) { v.child(values).Inc() }

// Add adds n to the child counter for the given label values.
func (v *CounterVec) Add(n uint64, values ...string) { v.child(values).Add(n) }

// Value returns the child counter's current count (0 when the child
// has never been touched).
func (v *CounterVec) Value(values ...string) uint64 {
	if c, ok := v.lookup(values); ok {
		return c.Value()
	}
	return 0
}

// GaugeVec is a family of gauges distinguished by label values — the
// shape the router's per-peer breaker-state export uses.
type GaugeVec struct{ family[*Gauge] }

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	sig := "gauge|" + help + "|" + strings.Join(labels, ",")
	return r.register(name, &GaugeVec{newFamily(name, help, "gauge", sig, labels, func(vals []string) *Gauge {
		return &Gauge{name: name, help: help, labelNames: labels, labelVals: vals}
	})}).(*GaugeVec)
}

// Set replaces the child gauge's value for the given label values.
func (v *GaugeVec) Set(val float64, values ...string) { v.child(values).Set(val) }

// Add adjusts the child gauge for the given label values by d.
func (v *GaugeVec) Add(d float64, values ...string) { v.child(values).Add(d) }

// Value returns the child gauge's current value (0 when the child has
// never been touched).
func (v *GaugeVec) Value(values ...string) float64 {
	if g, ok := v.lookup(values); ok {
		return g.Value()
	}
	return 0
}

// HistogramVec is a family of histograms distinguished by label
// values — the shape the engine's per-(fragment, strategy) latency
// family uses.
type HistogramVec struct{ family[*Histogram] }

// HistogramVec registers (or returns) a labeled histogram family. A
// nil buckets slice takes DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	sig := "histogram|" + help + "|" + fmt.Sprint(buckets) + "|" + strings.Join(labels, ",")
	return r.register(name, &HistogramVec{newFamily(name, help, "histogram", sig, labels, func(vals []string) *Histogram {
		return newHistogram(name, help, buckets, labels, vals)
	})}).(*HistogramVec)
}

// With returns the child histogram for the given label values (created
// on first use).
func (v *HistogramVec) With(values ...string) *Histogram { return v.child(values) }

func checkLabels(name string, labels []string) {
	for _, l := range labels {
		if !metricNameRe.MatchString(l) {
			panic(fmt.Sprintf("obs: metric %q label %q is not snake_case", name, l))
		}
	}
}
