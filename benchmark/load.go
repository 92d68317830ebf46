package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the load generator: closed-loop clients that send one
// request at a time over one keep-alive connection each, verify every
// answer against the oracle and record a sample per operation.

// requestTimeout is the client's deadline for one operation; passing
// it counts as a failure.
const requestTimeout = 10 * time.Second

type opKind uint8

const (
	opQuery opKind = iota
	opBatch
	opRegister
)

// op is one operation of a client's stream.
type op struct {
	kind opKind
	ds   *docState
	// tmpl is the pool template of a query, or -1 for a cold union,
	// which carries its own text and oracle.
	tmpl   int
	text   string
	expect func(*doc) answer
	// A batch evaluates tmpls on ds and other.
	other *docState
	tmpls []int
}

// queryText is the text the layer probe replays for this operation.
func (o op) queryText() string {
	switch {
	case o.kind == opBatch:
		return pool[o.tmpls[0]].text
	case o.kind == opRegister:
		return pool[0].text
	case o.tmpl >= 0:
		return pool[o.tmpl].text
	}
	return o.text
}

// sample is one completed operation.
type sample struct {
	kind opKind
	end  time.Time
	lat  time.Duration
	ok   bool
}

// The wire format, as far as the benchmark reads and writes it. Answers
// are compared on the value fields only: strategy, planned, fallback,
// node and trace legitimately vary between runs.
type queryRequest struct {
	Doc   string `json:"doc"`
	Query string `json:"query"`
}

type documentRequest struct {
	Name string `json:"name"`
	XML  string `json:"xml"`
}

type batchRequest struct {
	Docs    []string `json:"docs"`
	Queries []string `json:"queries"`
}

type wireValue struct {
	Kind    string   `json:"kind"`
	String  string   `json:"string"`
	Number  *float64 `json:"number"`
	Boolean *bool    `json:"boolean"`
	Count   *int     `json:"count"`
	Nodes   []struct {
		Value string `json:"value"`
	} `json:"nodes"`
}

// wireResponse is a /query response, a /batch line or a /documents
// acknowledgement.
type wireResponse struct {
	Version uint64     `json:"version"`
	Value   *wireValue `json:"value"`
	Error   string     `json:"error"`
	Index   *int       `json:"index"`
	Doc     string     `json:"doc"`
}

// check compares a response value with the expected answer.
func (a answer) check(v *wireValue) error {
	if v == nil {
		return fmt.Errorf("no value in response")
	}
	if v.Kind != a.kind {
		return fmt.Errorf("kind %q, want %q", v.Kind, a.kind)
	}
	if v.String != a.str {
		return fmt.Errorf("string %q, want %q", v.String, a.str)
	}
	switch a.kind {
	case "number":
		if v.Number == nil || *v.Number != a.number {
			return fmt.Errorf("number %v, want %v", v.Number, a.number)
		}
	case "boolean":
		if v.Boolean == nil || *v.Boolean != a.boolean {
			return fmt.Errorf("boolean %v, want %v", v.Boolean, a.boolean)
		}
	default:
		if v.Count == nil || *v.Count != a.count {
			return fmt.Errorf("count %v, want %d", v.Count, a.count)
		}
		if len(v.Nodes) < len(a.values) {
			return fmt.Errorf("%d nodes rendered, want at least %d", len(v.Nodes), len(a.values))
		}
		for i, want := range a.values {
			if v.Nodes[i].Value != want {
				return fmt.Errorf("node %d value %q, want %q", i, v.Nodes[i].Value, want)
			}
		}
	}
	return nil
}

// client is one closed-loop client. Its fields are used by its own
// goroutine only; the harness reads samples after the goroutine ended.
type client struct {
	id       int
	w        workload
	seed     int64
	r        *rand.Rand
	zipfPool *rand.Zipf
	zipfDoc  *rand.Zipf
	docs     []*docState
	order    []int // the round-robin mix's shuffle of the pool
	n        int   // operations drawn so far
	entry    string
	hc       *http.Client
	buf      bytes.Buffer

	samples  []sample
	firstErr error
	// afterOp, when set, runs after every operation: the traced window
	// hooks the layer probe in here.
	afterOp func(o op)
}

// newHTTPClient returns a client that keeps exactly one connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body to the entry point and returns the status and the
// whole response body (valid until the next call) and the time from
// sending to the last body byte.
func (c *client) post(ctx context.Context, base, path string, body []byte) (int, []byte, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, 0, fmt.Errorf("read %s response: %w", path, err)
	}
	return resp.StatusCode, c.buf.Bytes(), time.Since(start), nil
}

// variantFor resolves the version a response reports to the content
// variant that version holds. (document name → version) is the key: an
// answer is correct iff it is the oracle's answer for the version the
// response itself reports, and a version older than one already
// acknowledged to this client is a stale read.
func (ds *docState) variantFor(version uint64) (int, error) {
	v, ok := ds.byVersion[version]
	if !ok {
		return 0, fmt.Errorf("document %s: response reports version %d, which no registration returned", ds.name, version)
	}
	if version < ds.acked {
		return 0, fmt.Errorf("document %s: stale read of version %d after version %d was acknowledged", ds.name, version, ds.acked)
	}
	return v, nil
}

// verify checks one response (or batch line) for template tmpl, or for
// expect when tmpl is -1.
func (ds *docState) verify(resp *wireResponse, tmpl int, expect func(*doc) answer) error {
	if resp.Error != "" {
		return fmt.Errorf("server error: %s", resp.Error)
	}
	v, err := ds.variantFor(resp.Version)
	if err != nil {
		return err
	}
	want := answer{}
	if tmpl >= 0 {
		want = ds.expected[v][tmpl]
	} else {
		want = expect(ds.variants[v])
	}
	return want.check(resp.Value)
}

// timedQuery posts body, a query on ds whose text is text, to base+path
// and verifies the answer against pool template tmpl, or against expect
// when tmpl is -1. It returns the time from sending to the last body
// byte.
func (c *client) timedQuery(ctx context.Context, base, path string, ds *docState, body []byte, text string, expect func(*doc) answer, tmpl int) (time.Duration, error) {
	status, raw, lat, err := c.post(ctx, base, path, body)
	if err != nil {
		return 0, fmt.Errorf("query %q on %s: %w", text, ds.name, err)
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("query %q on %s: status %d: %s", text, ds.name, status, bytes.TrimSpace(raw))
	}
	var resp wireResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return 0, fmt.Errorf("query %q on %s: decode: %w", text, ds.name, err)
	}
	if err := ds.verify(&resp, tmpl, expect); err != nil {
		return 0, fmt.Errorf("query %q on %s: %w", text, ds.name, err)
	}
	return lat, nil
}

// timedRegister posts a variant of ds under name. When name is the
// document's own, the returned version is recorded for verification.
func (c *client) timedRegister(ctx context.Context, base string, ds *docState, name string, variant int) (time.Duration, error) {
	body, err := json.Marshal(documentRequest{Name: name, XML: ds.variants[variant].xml})
	if err != nil {
		return 0, err
	}
	status, raw, lat, err := c.post(ctx, base, "/documents", body)
	if err != nil {
		return 0, fmt.Errorf("register %s: %w", name, err)
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("register %s: status %d: %s", name, status, bytes.TrimSpace(raw))
	}
	var resp wireResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return 0, fmt.Errorf("register %s: decode: %w", name, err)
	}
	if name != ds.name {
		return lat, nil
	}
	if resp.Version <= ds.acked {
		return 0, fmt.Errorf("register %s: version %d does not pass the acknowledged %d", name, resp.Version, ds.acked)
	}
	ds.byVersion[resp.Version] = variant
	ds.acked, ds.cur = resp.Version, variant
	return lat, nil
}

// batch sends tmpls × {a, b} through the router's scatter-gather
// /batch and verifies that exactly one correct line per job index
// arrives. Job indices are document-major.
func (c *client) batch(ctx context.Context, base string, a, b *docState, tmpls []int) (time.Duration, error) {
	req := batchRequest{Docs: []string{a.name, b.name}}
	for _, t := range tmpls {
		req.Queries = append(req.Queries, pool[t].text)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	status, raw, lat, err := c.post(ctx, base, "/batch", body)
	if err != nil {
		return 0, fmt.Errorf("batch on %s,%s: %w", a.name, b.name, err)
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("batch on %s,%s: status %d: %s", a.name, b.name, status, bytes.TrimSpace(raw))
	}
	jobs := 2 * len(tmpls)
	seen := make([]bool, jobs)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<24)
	lines := 0
	for sc.Scan() {
		var line wireResponse
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return 0, fmt.Errorf("batch on %s,%s: decode line: %w", a.name, b.name, err)
		}
		if line.Index == nil || *line.Index < 0 || *line.Index >= jobs || seen[*line.Index] {
			return 0, fmt.Errorf("batch on %s,%s: line with missing, unknown or repeated index: %s", a.name, b.name, sc.Bytes())
		}
		i := *line.Index
		seen[i] = true
		ds := a
		if i >= len(tmpls) {
			ds = b
		}
		if line.Doc != ds.name {
			return 0, fmt.Errorf("batch job %d: doc %q, want %q", i, line.Doc, ds.name)
		}
		if err := ds.verify(&line, tmpls[i%len(tmpls)], nil); err != nil {
			return 0, fmt.Errorf("batch job %d (%q on %s): %w", i, pool[tmpls[i%len(tmpls)]].text, ds.name, err)
		}
		lines++
	}
	if lines != jobs {
		return 0, fmt.Errorf("batch on %s,%s: %d lines for %d jobs", a.name, b.name, lines, jobs)
	}
	return lat, nil
}

// do executes one operation and records its sample.
func (c *client) do(ctx context.Context, o op) {
	var lat time.Duration
	var err error
	switch o.kind {
	case opBatch:
		lat, err = c.batch(ctx, c.entry, o.ds, o.other, o.tmpls)
	case opRegister:
		lat, err = c.timedRegister(ctx, c.entry, o.ds, o.ds.name, 1-o.ds.cur)
	default:
		body := []byte(nil)
		if o.tmpl >= 0 {
			body = o.ds.body[o.tmpl]
		} else {
			body, err = json.Marshal(queryRequest{Doc: o.ds.name, Query: o.text})
		}
		if err == nil {
			lat, err = c.timedQuery(ctx, c.entry, "/query", o.ds, body, o.queryText(), o.expect, o.tmpl)
		}
	}
	if err != nil && ctx.Err() != nil {
		return // the run was aborted under this request; not the server's failure
	}
	if err != nil && c.firstErr == nil {
		c.firstErr = err
	}
	c.samples = append(c.samples, sample{kind: o.kind, end: time.Now(), lat: lat, ok: err == nil})
}

// drive runs the clients in closed loop; every operation passes g, so
// tick can hold them. Once warm has passed it calls
// tick(0), and then tick(i) every time another window of length every
// has passed, until tick returns false; ticks mark the window
// boundaries. An operation in flight at the end completes but falls
// outside every window. If ctx is cancelled, drive stops early and
// returns the cause.
func drive(ctx context.Context, clients []*client, g *gate, warm, every time.Duration, tick func(i int) (more bool, err error)) error {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				g.enter()
				o := c.nextOp()
				c.do(ctx, o)
				g.leave()
				if c.afterOp != nil {
					c.afterOp(o)
				}
			}
		}(c)
	}
	start := time.Now()
	var err error
	for i, more := 0, true; more && err == nil; i++ {
		select {
		case <-ctx.Done():
			err = context.Cause(ctx)
		case <-time.After(time.Until(start.Add(warm + time.Duration(i)*every))):
			more, err = tick(i)
		}
	}
	stop.Store(true)
	wg.Wait()
	return err
}

// window summarises the samples whose operation ended in (from, to].
type window struct {
	seconds   float64
	attempted int
	failed    int
	queryMs   []float64 // latencies of the correct /query operations, unsorted
}

func (w window) correct() int { return w.attempted - w.failed }

func summarise(clients []*client, from, to time.Time) window {
	w := window{seconds: to.Sub(from).Seconds()}
	for _, c := range clients {
		for _, s := range c.samples {
			if !s.end.After(from) || s.end.After(to) {
				continue
			}
			w.attempted++
			if !s.ok {
				w.failed++
				continue
			}
			if s.kind == opQuery {
				w.queryMs = append(w.queryMs, float64(s.lat)/float64(time.Millisecond))
			}
		}
	}
	return w
}
