package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os/exec"
	"time"
)

// mixKind is the traffic mix a workload's clients generate.
type mixKind int

const (
	// mixZipf draws pool templates by Zipf(1.1) and documents uniformly.
	mixZipf mixKind = iota
	// mixRoundRobin visits the pool in a seeded shuffle, so every
	// template has a fixed share of the requests.
	mixRoundRobin
	// mixColdUnion sends a query text no server has seen, every time.
	mixColdUnion
	// mixCluster reads, batches and re-registers through the router.
	mixCluster
)

// workload is one named traffic mix against one topology. Why each one
// exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// rules pins the backends to -planner rules; without it they run
	// the shipped default.
	rules bool
	// cluster puts xpathrouter -replicas 1 over two backends; without
	// it the clients talk to one bare xpathserve.
	cluster bool
	docs    int
	items   int // per document; a document has about 20 nodes per item
	mix     mixKind
}

var workloads = []workload{
	{name: "serve_hot", rules: true, docs: 8, items: 30, mix: mixZipf},
	{name: "default_hot", rules: false, docs: 8, items: 30, mix: mixZipf},
	{name: "eval_heavy", rules: true, docs: 2, items: 1000, mix: mixRoundRobin},
	{name: "compile_cold", rules: true, docs: 8, items: 3, mix: mixColdUnion},
	{name: "cluster_mixed", rules: true, cluster: true, docs: 16, items: 30, mix: mixCluster},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// numClients is the number of closed-loop clients, one keep-alive
// connection each. Closed loop, because the generator shares the two
// cores with the servers, so an open loop here would measure the
// scheduler. Eight, because that keeps both cores busy: with one
// client per core the throughput is two over the latency of a chain of
// cross-process wake-ups, which on a shared host moved by 10 to 40 %
// between runs of the same code, while at saturation it is the cores
// over the CPU an operation takes, which repeats within a few percent.
const numClients = 8

// docState is one document as the clients see it: its content
// variants, the precomputed requests and expected answers, and, for a
// workload that re-registers, which variant each version holds.
type docState struct {
	name     string
	variants []*doc
	// body[t] is the POST /query body for pool template t; expected[v][t]
	// its answer on variant v.
	body     [][]byte
	expected [][]answer
	// byVersion maps a version a registration returned to the variant it
	// stored; acked is the highest of them. Only the client owning the
	// document writes either.
	byVersion map[uint64]int
	acked     uint64
	cur       int // variant registered last
}

// genDocs generates the workload's documents for a seed. Document i
// takes its own sub-seeds, so the documents of one run differ.
func genDocs(w workload, seed int64) []*docState {
	variants := 1
	if w.mix == mixCluster {
		variants = 2
	}
	out := make([]*docState, w.docs)
	for i := range out {
		ds := &docState{name: fmt.Sprintf("d%d", i), byVersion: map[uint64]int{}}
		for v := 0; v < variants; v++ {
			d := genDoc(ds.name, seed*1_000_003+int64(i*variants+v), w.items)
			ds.variants = append(ds.variants, d)
			exp := make([]answer, len(pool))
			for t := range pool {
				exp[t] = pool[t].expect(d)
			}
			ds.expected = append(ds.expected, exp)
		}
		for _, t := range pool {
			b, _ := json.Marshal(queryRequest{Doc: ds.name, Query: t.text}) // two strings always marshal
			ds.body = append(ds.body, b)
		}
		out[i] = ds
	}
	return out
}

// topology is the set of server processes of one workload.
type topology struct {
	entry    *server // where the clients send: the router, or the one backend
	router   *server // nil without a cluster
	backends []*server
}

func (t *topology) servers() []*server {
	if t.router == nil {
		return t.backends
	}
	return append([]*server{t.router}, t.backends...)
}

// startTopology launches a bare xpathserve, or two of them behind an
// xpathrouter -replicas 1.
func startTopology(ctx context.Context, ps *procs, p paths, rules, cluster bool) (*topology, error) {
	var flags []string
	if rules {
		flags = []string{"-planner", "rules"}
	}
	t := &topology{}
	n := 1
	if cluster {
		n = 2
	}
	for i := 0; i < n; i++ {
		s, err := ps.startServer(ctx, p, "xpathserve", flags...)
		if err != nil {
			t.stop(ps)
			return nil, err
		}
		t.backends = append(t.backends, s)
	}
	t.entry = t.backends[0]
	if cluster {
		r, err := ps.startServer(ctx, p, "xpathrouter",
			"-peers", t.backends[0].url+","+t.backends[1].url, "-replicas", "1")
		if err != nil {
			t.stop(ps)
			return nil, err
		}
		t.router, t.entry = r, r
	}
	return t, nil
}

func (t *topology) stop(ps *procs) {
	var cmds []*exec.Cmd
	for _, s := range t.servers() {
		cmds = append(cmds, s.cmd)
	}
	ps.stop(cmds...)
}

// setUp is what a user waits for before the first answer: launch the
// servers, register every document and have each answer one verified
// query. It returns the running topology and how long that took;
// go build is not part of it.
func setUp(ctx context.Context, ps *procs, p paths, w workload, docs []*docState) (*topology, time.Duration, error) {
	start := time.Now()
	t, err := startTopology(ctx, ps, p, w.rules, w.cluster)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(0, w, docs, t.entry.url, 0)
	for _, ds := range docs {
		ds.byVersion, ds.acked, ds.cur = map[uint64]int{}, 0, 0
		if _, err := c.timedRegister(ctx, c.entry, ds, ds.name, 0); err != nil {
			t.stop(ps)
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		if _, err := c.timedQuery(ctx, c.entry, "/query", ds, ds.body[0], pool[0].text, nil, 0); err != nil {
			t.stop(ps)
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	c.close()
	return t, time.Since(start), nil
}

// nextOp draws the client's next operation from its workload's mix.
func (c *client) nextOp() op {
	switch c.w.mix {
	case mixRoundRobin:
		// Every round of the pool shifts the documents by one, so each
		// template meets each document equally often.
		t := c.order[c.n%len(c.order)]
		ds := c.docs[(c.n+c.n/len(c.order))%len(c.docs)]
		c.n++
		return op{kind: opQuery, ds: ds, tmpl: t}
	case mixColdUnion:
		c.n++
		text, expect := coldUnion(c.r, fmt.Sprintf("u%d-%d-%d", c.seed, c.id, c.n))
		return op{kind: opQuery, ds: c.docs[c.r.Intn(len(c.docs))], tmpl: -1, text: text, expect: expect}
	case mixCluster:
		ds := c.docs[c.zipfDoc.Uint64()]
		switch roll := c.r.Intn(100); {
		case roll < 85:
			return op{kind: opQuery, ds: ds, tmpl: int(c.zipfPool.Uint64())}
		case roll < 95:
			other := c.docs[c.r.Intn(len(c.docs))]
			for other == ds {
				other = c.docs[c.r.Intn(len(c.docs))]
			}
			tmpls := make([]int, batchQueries)
			for i := range tmpls {
				tmpls[i] = int(c.zipfPool.Uint64())
			}
			return op{kind: opBatch, ds: ds, other: other, tmpls: tmpls}
		default:
			return op{kind: opRegister, ds: ds}
		}
	default: // mixZipf
		return op{kind: opQuery, ds: c.docs[c.r.Intn(len(c.docs))], tmpl: int(c.zipfPool.Uint64())}
	}
}

// batchQueries is the number of queries of a router batch; with two
// documents a batch is 8 jobs.
const batchQueries = 4

// newClient builds client id of numClients. In the cluster mix a client
// addresses only the documents it owns (an equal contiguous share), so
// no two clients ever re-register the same document.
func newClient(id int, w workload, docs []*docState, entry string, seed int64) *client {
	r := rand.New(rand.NewSource(seed*7919 + int64(id)))
	c := &client{id: id, w: w, seed: seed, r: r, docs: docs, entry: entry, hc: newHTTPClient()}
	if w.mix == mixCluster {
		share := len(docs) / numClients
		c.docs = docs[id*share : (id+1)*share]
		c.zipfDoc = rand.NewZipf(r, 1.1, 1, uint64(len(c.docs)-1))
	}
	c.zipfPool = rand.NewZipf(r, 1.1, 1, uint64(len(pool)-1))
	c.order = r.Perm(len(pool))
	// Clients start at different points of the round so they do not
	// send the same template at the same moment.
	c.n = id * len(pool) / numClients
	return c
}
