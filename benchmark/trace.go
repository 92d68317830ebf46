package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/benchmark/proto"
)

// This file is the traced window's layer probe as seen from the
// driver: it owns the in-process probe child and a probe topology (a
// router over two backends holding the workload's documents), runs the
// ladder for every probeEvery-th operation, keeps the spans in memory
// and turns them into the per-layer metrics.

// probeEvery is how often the traced window probes: once per this many
// operations, starting with the first.
const probeEvery = 20

// sideProbeEvery is how many ladder probes pass between probes of
// registration and batch, which are costly on large documents.
const sideProbeEvery = 4

// layerChild is the running layerprobe process.
type layerChild struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	enc *json.Encoder
	dec *json.Decoder
}

// startLayerChild launches the probe with the planner mode of the
// servers under test ("" is the shipped default, adaptive).
func startLayerChild(ps *procs, p paths, rules bool) (*layerChild, error) {
	mode := "adaptive"
	if rules {
		mode = "rules"
	}
	cmd := exec.Command(filepath.Join(p.bin, "layerprobe"), "-planner", mode)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := ps.start(cmd); err != nil {
		return nil, err
	}
	return &layerChild{cmd: cmd, in: in, enc: json.NewEncoder(in), dec: json.NewDecoder(bufio.NewReaderSize(out, 1<<16))}, nil
}

// call sends one request and waits for its reply.
func (lc *layerChild) call(req proto.Request) (proto.Reply, error) {
	var reply proto.Reply
	if err := lc.enc.Encode(req); err != nil {
		return reply, fmt.Errorf("layer probe %s: send: %w", req.Cmd, err)
	}
	if err := lc.dec.Decode(&reply); err != nil {
		return reply, fmt.Errorf("layer probe %s: receive: %w", req.Cmd, err)
	}
	if reply.Error != "" {
		return reply, fmt.Errorf("layer probe %s: %s", req.Cmd, reply.Error)
	}
	return reply, nil
}

// prober runs the ladder. It is used by the one client goroutine of
// the traced window.
type prober struct {
	child  *layerChild
	topo   *topology   // the probe topology
	direct string      // one backend of it; with -replicas 1 over two backends both hold every document
	c      *client     // sends the wire rungs over its own connection
	docs   []*docState // the probe topology's own view of the documents, in workload order
	spans  []proto.Span
	probes int
	err    error // the first failure; probing stops there
}

// newProber starts the probe child and the probe topology and loads
// variant 0 of every document into both.
func newProber(ctx context.Context, ps *procs, p paths, w workload, docs []*docState) (*prober, error) {
	child, err := startLayerChild(ps, p, w.rules)
	if err != nil {
		return nil, err
	}
	topo, err := startTopology(ctx, ps, p, w.rules, true)
	if err != nil {
		return nil, err
	}
	pr := &prober{child: child, topo: topo, direct: topo.backends[0].url}
	pr.c = &client{w: w, hc: newHTTPClient(), entry: topo.router.url}
	for _, ds := range docs {
		// The probe topology keeps its own version history.
		probeDoc := &docState{name: ds.name, variants: ds.variants[:1], body: ds.body, expected: ds.expected[:1], byVersion: map[uint64]int{}}
		pr.docs = append(pr.docs, probeDoc)
		if _, err := child.call(proto.Request{Cmd: proto.CmdDoc, Doc: ds.name, XML: ds.variants[0].xml}); err != nil {
			return nil, err
		}
		if _, err := pr.c.timedRegister(ctx, pr.c.entry, probeDoc, probeDoc.name, 0); err != nil {
			return nil, fmt.Errorf("probe topology: %w", err)
		}
	}
	return pr, nil
}

// wire makes one HTTP call of the ladder and records its span, which
// ends at the last body byte: decoding and checking the answer is the
// harness's work, not the servers'.
func (pr *prober) wire(name string, opID int, call func() (time.Duration, error)) {
	if pr.err != nil {
		return
	}
	start := time.Now()
	lat, err := call()
	if err != nil {
		pr.err = fmt.Errorf("probe %s: %w", name, err)
		return
	}
	pr.spans = append(pr.spans, proto.Span{
		Name: name, StartNs: start.UnixNano(), EndNs: start.Add(lat).UnixNano(),
		Parent: proto.SpanProbe, Op: opID, Bytes: pr.c.buf.Len(),
	})
}

// probe executes the ladder for one operation of the traced window: the
// in-process rungs in the child, then the wire rungs against the probe
// topology, every rung an independent execution of the same query on
// the same XML.
func (pr *prober) probe(ctx context.Context, opID int, o op) {
	if pr.err != nil {
		return
	}
	start := time.Now()
	ds := pr.doc(o.ds.name)
	text := o.queryText()
	reply, err := pr.child.call(proto.Request{Cmd: proto.CmdLadder, Doc: ds.name, Query: text, Op: opID})
	if err != nil {
		pr.err = err
		return
	}
	pr.spans = append(pr.spans, reply.Spans...)

	// Texts no cache has seen, with the same meaning: the backend
	// compiles them on the priming calls, so the timed direct call and
	// the routed call both find theirs compiled, and the routed call is
	// the router's first sight of its text, an answer-cache miss. The
	// router, idle since the last probe, is woken by a miss on the other
	// text first.
	pr.probes++
	query := func(base, path, text string) func() (time.Duration, error) {
		body, _ := json.Marshal(queryRequest{Doc: ds.name, Query: text}) // two strings always marshal
		return func() (time.Duration, error) {
			tmpl, expect := o.tmpl, o.expect
			if o.kind != opQuery {
				tmpl, expect = templateIndex(o.queryText()), nil
			}
			return pr.c.timedQuery(ctx, base, path, ds, body, text, expect, tmpl)
		}
	}
	fresh, wake := text+proto.FreshSuffix(2*pr.probes), text+proto.FreshSuffix(2*pr.probes+1)
	router := pr.topo.router.url
	for _, prime := range []func() (time.Duration, error){
		query(pr.direct, "/query", fresh), query(pr.direct, "/query", wake), query(router, "/query", wake),
	} {
		if _, err := prime(); err != nil {
			pr.err = fmt.Errorf("probe prime: %w", err)
			return
		}
	}
	pr.wire(proto.SpanRouterMiss, opID, query(router, "/query", fresh))
	pr.wire(proto.SpanRouterHit, opID, query(router, "/query", fresh))
	pr.wire(proto.SpanHTTP, opID, query(pr.direct, "/query", fresh))
	pr.wire(proto.SpanHTTPTraced, opID, query(pr.direct, "/query?trace=1", fresh))

	if pr.probes%sideProbeEvery == 1 {
		// Registration directly on a backend, then through the router,
		// which also replicates; under names no query addresses.
		pr.wire(proto.SpanRegister, opID, func() (time.Duration, error) {
			return pr.c.timedRegister(ctx, pr.direct, ds, "probe-direct", 0)
		})
		pr.wire(proto.SpanReplicate, opID, func() (time.Duration, error) {
			return pr.c.timedRegister(ctx, router, ds, "probe-routed", 0)
		})
		other := pr.otherDoc(ds)
		pr.wire(proto.SpanBatch, opID, func() (time.Duration, error) {
			return pr.c.batch(ctx, router, ds, other, batchProbeTemplates)
		})
	}
	pr.spans = append(pr.spans, proto.Span{Name: proto.SpanProbe, StartNs: start.UnixNano(), EndNs: time.Now().UnixNano(), Op: opID})
}

// batchProbeTemplates are the four queries of the probe's batch: the
// first four of the pool outside the XPatterns class, whose literals a
// compile_cold document of three items need not hold (see genDoc).
var batchProbeTemplates = func() []int {
	var out []int
	for i, t := range pool {
		if t.class != "xpatterns" && len(out) < batchQueries {
			out = append(out, i)
		}
	}
	return out
}()

// doc returns the probe topology's view of the named document.
func (pr *prober) doc(name string) *docState {
	for _, ds := range pr.docs {
		if ds.name == name {
			return ds
		}
	}
	return nil
}

// otherDoc returns a document other than ds, for the two-document
// batch; every workload has at least two.
func (pr *prober) otherDoc(ds *docState) *docState {
	if pr.docs[0] != ds {
		return pr.docs[0]
	}
	return pr.docs[1]
}

// templateIndex returns the pool index of a template text.
func templateIndex(text string) int {
	for i, t := range pool {
		if t.text == text {
			return i
		}
	}
	return -1
}

// micro asks the child for the measurements inside evaluate, on the
// workload's first document.
func (pr *prober) micro(doc string) (map[string]float64, error) {
	queries := make([]proto.MicroQuery, len(pool))
	for i, t := range pool {
		queries[i] = proto.MicroQuery{Text: t.text, Class: t.class}
	}
	reply, err := pr.child.call(proto.Request{Cmd: proto.CmdMicro, Doc: doc, Queries: queries})
	return reply.Metrics, err
}

// stop ends the child and the probe topology.
func (pr *prober) stop(ps *procs) {
	pr.c.close()
	pr.child.in.Close()
	ps.stop(pr.child.cmd)
	pr.topo.stop(ps)
}

// writeTrace writes the spans to benchmark/out/trace-<workload>.json.
func writeTrace(p paths, workload string, spans []proto.Span) (string, error) {
	dir := filepath.Join(p.root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// ladderMetrics turns the spans of a traced window into the probe
// ladder's metrics. A rung's self time on one operation is its span
// minus the span of the rung below on the same operation; every rung
// executed the same query on the same XML, so the difference is what
// the extra layer costs. Each metric is the median over the probed
// operations: on a shared machine one scheduling stall of 10 ms in a
// sample of a hundred would move a mean by more than most rungs take.
func ladderMetrics(spans []proto.Span) map[string]float64 {
	byOp := map[int]map[string]proto.Span{}
	for _, s := range spans {
		if byOp[s.Op] == nil {
			byOp[s.Op] = map[string]proto.Span{}
		}
		byOp[s.Op][s.Name] = s
	}
	// over returns the median over the operations of f(rung) − f(below),
	// or of f(rung) alone when below is "".
	over := func(f func(proto.Span) float64, rung, below string) float64 {
		var vals []float64
		for _, op := range byOp {
			r, ok := op[rung]
			if !ok {
				continue
			}
			v := f(r)
			if below != "" {
				b, ok := op[below]
				if !ok {
					continue
				}
				v -= f(b)
			}
			vals = append(vals, v)
		}
		return median(vals)
	}
	us := func(rung, below string) float64 { return over(proto.Span.Micros, rung, below) }
	return map[string]float64{
		"xpath.parse_us":              us(proto.SpanParse, ""),
		"core.compile_self_us":        us(proto.SpanCompile, proto.SpanParse),
		"core.evaluate_us":            us(proto.SpanEvaluate, ""),
		"engine.session_self_us":      us(proto.SpanSessionWarm, proto.SpanEvaluate),
		"engine.compile_miss_self_us": us(proto.SpanSessionFresh, proto.SpanSessionWarm),
		"serve.handler_self_us":       us(proto.SpanHandler, proto.SpanSessionWarm),
		"serve.http_self_us":          us(proto.SpanHTTP, proto.SpanHandler),
		"cluster.router_self_us":      us(proto.SpanRouterMiss, proto.SpanHTTP),
		"cluster.cache_hit_us":        us(proto.SpanRouterHit, ""),
		"obs.trace_self_us":           us(proto.SpanHTTPTraced, proto.SpanHTTP),
		"serve.register_self_us":      us(proto.SpanRegister, ""),
		"cluster.replicate_self_us":   us(proto.SpanReplicate, proto.SpanRegister),
		"serve.response_bytes":        over(func(s proto.Span) float64 { return float64(s.Bytes) }, proto.SpanHTTP, ""),
		"batch_p50_ms":                us(proto.SpanBatch, "") / 1e3,
		"register_p50_ms":             us(proto.SpanReplicate, "") / 1e3,
	}
}
