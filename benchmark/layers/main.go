//go:build layerprobe

// Command layerprobe times calls into the public functions of each
// layer of the repository, in process, for the benchmark's traced
// window. It is the only part of the benchmark that imports the
// repository's internal packages, and it is only compiled with the
// layerprobe build tag, so a refactor of those packages can break this
// file but neither the tier-1 build nor the end-to-end metrics. The
// README lists every symbol imported here.
//
// It speaks the line protocol of package proto on its standard input
// and output.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"repro/benchmark/proto"
	"repro/internal/axes"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func main() {
	plannerName := flag.String("planner", "adaptive", "planner mode of the probed engines, as xpathserve's -planner")
	flag.Parse()
	mode, ok := planner.ModeByName(*plannerName)
	if !ok {
		fmt.Fprintf(os.Stderr, "layerprobe: unknown planner mode %q\n", *plannerName)
		os.Exit(2)
	}
	p := newProbe(mode)
	in := json.NewDecoder(bufio.NewReaderSize(os.Stdin, 1<<20))
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	for {
		var req proto.Request
		if err := in.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return
			}
			fmt.Fprintf(os.Stderr, "layerprobe: read request: %v\n", err)
			os.Exit(1)
		}
		err := enc.Encode(p.handle(req))
		if err == nil {
			err = out.Flush()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "layerprobe: write reply: %v\n", err)
			os.Exit(1)
		}
	}
}

// probe holds the in-process copies of the serving stack. The engines
// take the options cmd/xpathserve gives them by default.
type probe struct {
	// warm only ever sees the workload's own query texts, so its compile
	// cache hits like the server's; cold only ever sees fresh texts, so
	// every lookup misses and, once full, evicts.
	warm, cold *engine.Engine
	handler    http.Handler
	srv        *serve.Server
	docs       map[string]*probedDoc
	fresh      int
}

type probedDoc struct {
	xml     string
	core    *core.Engine
	session *engine.Session // of the warm engine, the one the handler serves from
	cold    *engine.Session
}

func newProbe(mode planner.Mode) *probe {
	opts := engine.Options{Strategy: core.Auto, Planner: mode, Fallback: true}
	p := &probe{warm: engine.New(opts), cold: engine.New(opts), docs: map[string]*probedDoc{}}
	p.srv = serve.New(p.warm, store.Config{})
	// The servers under test run with -log-level error; without this
	// the handler would format an info line per request.
	p.srv.SetLogger(obs.NewLogger(io.Discard, slog.LevelError))
	p.handler = p.srv.Handler()
	return p
}

func (p *probe) handle(req proto.Request) proto.Reply {
	var reply proto.Reply
	var err error
	switch req.Cmd {
	case proto.CmdDoc:
		err = p.addDoc(req.Doc, req.XML)
	case proto.CmdLadder:
		reply.Spans, err = p.ladder(req.Doc, req.Query, req.Op)
	case proto.CmdMicro:
		reply.Metrics, err = p.micro(req.Doc, req.Queries)
	default:
		err = fmt.Errorf("unknown command %q", req.Cmd)
	}
	if err != nil {
		return proto.Reply{Error: err.Error()}
	}
	return reply
}

func (p *probe) addDoc(name, xml string) error {
	if _, _, err := p.srv.AddDocument(name, xml); err != nil {
		return fmt.Errorf("register %s: %w", name, err)
	}
	sess, _ := p.srv.Session(name)
	p.docs[name] = &probedDoc{
		xml:     xml,
		core:    core.NewEngine(sess.Document(), core.Auto),
		session: sess,
		cold:    p.cold.NewSession(sess.Document()),
	}
	return nil
}

func (p *probe) doc(name string) (*probedDoc, error) {
	d, ok := p.docs[name]
	if !ok {
		return nil, fmt.Errorf("unknown document %q", name)
	}
	return d, nil
}

// ladder executes query on doc through each in-process layer, each rung
// an independent execution, and returns one span per rung. The probe
// sleeps between operations, so every rung runs twice back to back and
// the second run is the one timed: what is measured is the layer's
// work, not the wake-up of an idle process.
func (p *probe) ladder(docName, query string, op int) ([]proto.Span, error) {
	d, err := p.doc(docName)
	if err != nil {
		return nil, err
	}
	var spans []proto.Span
	timed := func(name string, f func() error) error {
		err := f()
		start := time.Now()
		if err == nil {
			err = f()
		}
		end := time.Now()
		spans = append(spans, proto.Span{Name: name, StartNs: start.UnixNano(), EndNs: end.UnixNano(), Parent: proto.SpanProbe, Op: op})
		if err != nil {
			return fmt.Errorf("%s of %q: %w", name, query, err)
		}
		return nil
	}
	ctx := context.Background()
	root := core.Context{Node: d.session.Document().RootID(), Pos: 1, Size: 1}

	// The first rung would otherwise also pay for the caches and clock
	// an idle process has lost.
	for i := 0; i < 8; i++ {
		if _, err := core.Compile(query); err != nil {
			return nil, fmt.Errorf("compile %q: %w", query, err)
		}
	}
	if err := timed(proto.SpanParse, func() error {
		_, err := xpath.Parse(query)
		return err
	}); err != nil {
		return nil, err
	}
	var q *core.Query
	if err := timed(proto.SpanCompile, func() (err error) {
		q, err = core.Compile(query)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed(proto.SpanEvaluate, func() error {
		_, err := d.core.Evaluate(q, root)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed(proto.SpanSessionFresh, func() error {
		p.fresh++
		return d.cold.DoContext(ctx, query+proto.FreshSuffix(p.fresh)).Err
	}); err != nil {
		return nil, err
	}
	// The untimed call compiles the text into the warm engine's cache if
	// this is its first sight of it; the timed call then hits.
	if err := timed(proto.SpanSessionWarm, func() error {
		return d.session.DoContext(ctx, query).Err
	}); err != nil {
		return nil, err
	}
	body, err := json.Marshal(serve.QueryRequest{Doc: docName, Query: query})
	if err != nil {
		return nil, err
	}
	// One request and recorder per execution, built outside the timing.
	var reqs []*http.Request
	for i := 0; i < 2; i++ {
		reqs = append(reqs, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	}
	if err := timed(proto.SpanHandler, func() error {
		rec := httptest.NewRecorder()
		req := reqs[0]
		reqs = reqs[1:]
		p.handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return spans, nil
}

// evalDeadline bounds one evaluation of the per-strategy measurements;
// an evaluation that passes it counts in eval.timeouts.
const evalDeadline = 100 * time.Millisecond

// strategies are the evaluators measured inside evaluate, each with the
// template classes it accepts: the linear-time fragment engines reject
// queries outside their fragment.
var strategies = []struct {
	metric   string
	strategy core.Strategy
	classes  map[string]bool
}{
	{"eval.corexpath_us", core.CoreXPath, map[string]bool{"core": true}},
	{"eval.xpatterns_us", core.XPatterns, map[string]bool{"core": true, "xpatterns": true}},
	{"eval.optmincontext_us", core.OptMinContext, nil},
	{"eval.mincontext_us", core.MinContext, nil},
	{"eval.topdown_us", core.TopDown, nil},
}

// micro measures what happens inside evaluate on one document: each
// evaluator on each pool template it accepts, the axis kernels over
// the set of all elements, bitset algebra, the XML parser and the
// index build.
func (p *probe) micro(docName string, queries []proto.MicroQuery) (map[string]float64, error) {
	d, err := p.doc(docName)
	if err != nil {
		return nil, err
	}
	tree := d.session.Document()
	root := core.Context{Node: tree.RootID(), Pos: 1, Size: 1}
	m := map[string]float64{}

	timeouts := 0
	for _, s := range strategies {
		var total time.Duration
		done := 0
		for _, mq := range queries {
			if s.classes != nil && !s.classes[mq.Class] {
				continue
			}
			q, err := core.Compile(mq.Text)
			if err != nil {
				return nil, fmt.Errorf("compile %q: %w", mq.Text, err)
			}
			// The median of three evaluations, unless the first already
			// passes the deadline.
			var took []time.Duration
			for len(took) < 3 && err == nil {
				ctx, cancel := context.WithTimeout(context.Background(), evalDeadline)
				start := time.Now()
				_, err = d.core.EvaluateStrategy(ctx, q, root, s.strategy)
				took = append(took, time.Since(start))
				cancel()
			}
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				timeouts++
			case err != nil:
				return nil, fmt.Errorf("%s on %q: %w", s.strategy, mq.Text, err)
			default:
				sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
				total += took[1]
				done++
			}
		}
		if done > 0 {
			m[s.metric] = micros(total) / float64(done)
		}
	}
	m["eval.timeouts"] = float64(timeouts)

	var elements xmltree.NodeSet
	for id := 0; id < tree.Len(); id++ {
		if tree.Type(xmltree.NodeID(id)) == xmltree.Element {
			elements = append(elements, xmltree.NodeID(id))
		}
	}
	kernels := []axes.Axis{axes.Descendant, axes.Following, axes.Ancestor, axes.Child}
	perNode := func(eval func(a axes.Axis)) float64 {
		calls, elapsed := repeat(10*time.Millisecond, func() {
			for _, a := range kernels {
				eval(a)
			}
		})
		return float64(elapsed.Nanoseconds()) / float64(calls*len(kernels)*len(elements))
	}
	m["axes.eval_ns_per_node"] = perNode(func(a axes.Axis) { axes.Eval(tree, a, elements) })
	m["axes.eval_named_ns_per_node"] = perNode(func(a axes.Axis) { axes.EvalNamed(tree, a, elements, "bidder") })

	a, b := xmltree.NewBitset(tree.Len()), xmltree.NewBitset(tree.Len())
	a.AddSet(elements)
	b.Fill()
	words := (tree.Len() + 63) / 64
	calls, elapsed := repeat(5*time.Millisecond, func() {
		a.UnionWith(b)
		a.IntersectWith(b)
	})
	m["xmltree.bitset_ns_per_word"] = float64(elapsed.Nanoseconds()) / float64(calls*2*words)

	var parsed *xmltree.Document
	calls, elapsed = repeat(30*time.Millisecond, func() {
		parsed, err = xmltree.ParseString(d.xml)
	})
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", docName, err)
	}
	m["xmltree.parse_us_per_kb"] = micros(elapsed) / float64(calls) / (float64(len(d.xml)) / 1024)

	// The index is built once per document, so every repetition needs a
	// freshly parsed one; only the build is timed.
	var indexing time.Duration
	builds := 0
	for indexing < 10*time.Millisecond && builds < 200 {
		fresh, err := xmltree.ParseString(d.xml)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", docName, err)
		}
		start := time.Now()
		fresh.Index()
		indexing += time.Since(start)
		builds++
	}
	m["xmltree.index_us_per_knode"] = micros(indexing) / float64(builds) / (float64(parsed.Len()) / 1000)
	return m, nil
}

// repeat calls f until at least d has passed and returns how often it
// ran and how long that took.
func repeat(d time.Duration, f func()) (calls int, elapsed time.Duration) {
	start := time.Now()
	for elapsed < d {
		f()
		calls++
		elapsed = time.Since(start)
	}
	return calls, elapsed
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
