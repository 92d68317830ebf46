package repro

// Benchmarks of the evaluators and the serving stack. BenchmarkPaper
// regenerates the paper's tables and figures as testing.B targets, one
// sub-benchmark per point of the experiments in internal/bench
// (bench.Experiments), named experiment/engine/doc=N/k=M:
//
//	Figure 2 left   → BenchmarkPaper/exp1
//	Figure 2 right  → BenchmarkPaper/exp2
//	Figure 3 left   → BenchmarkPaper/exp3
//	Figure 3 right  → BenchmarkPaper/exp4
//	Figure 4        → BenchmarkPaper/exp5a, BenchmarkPaper/exp5b
//	Table V/Fig 12  → BenchmarkPaper/table5
//	Table VII       → BenchmarkPaper/table7
//	(ablations)     → BenchmarkPaper/ablate
//
// Its points are query sizes that finish in reasonable time; the
// cmd/xpathbench tool runs the full sweeps with per-point caps,
// reproducing the '-' entries of the paper's tables.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/axes"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/semantics"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xpatterns"
)

func rootCtx(d *xmltree.Document) semantics.Context {
	return semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
}

// BenchmarkPaper times each point of the Bench grids of
// bench.Experiments as experiment/engine/doc=N/k=M, one evaluation per
// iteration on a fresh evaluator (the data pool's memo must not carry
// over) and on a document built once per grid and size.
func BenchmarkPaper(b *testing.B) {
	for _, x := range bench.Experiments {
		for _, g := range x.Bench {
			for _, n := range g.Docs {
				var d *xmltree.Document // built by its first point that runs, so a filtered run builds only what it times
				for _, eng := range g.Engines {
					for _, k := range g.Ks {
						b.Run(fmt.Sprintf("%s/%s/doc=%d/k=%d", x.Name, eng, n, k), func(b *testing.B) {
							if d == nil {
								d = x.Doc(n)
							}
							mk, e := bench.Engines[eng], xpath.MustParse(x.Query(k))
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								if _, err := mk(d).Evaluate(e, rootCtx(d)); err != nil {
									b.Fatal(err)
								}
							}
						})
					}
				}
			}
		}
	}
}

// optMinContextShapes are the twelve templates of the serving
// benchmark's pool that auto sends to OptMinContext: six Extended-Wadler
// and six full-XPath ones.
var optMinContextShapes = []struct{ name, query string }{
	{"wadler/bidder-first", "//open_auction/bidder[1]/increase"},
	{"wadler/bidder-last", "//open_auction/bidder[last()]/increase"},
	{"wadler/current-gt", "//open_auction[current > 60]/itemref"},
	{"wadler/item-even", "//item[position() mod 2 = 0]/name"},
	{"wadler/boolean-quantity", "boolean(//item[quantity > 4])"},
	{"wadler/person-last", "//person[position() = last()]/name"},
	{"full/count-item", "count(//item)"},
	{"full/sum-current", "sum(//open_auction/current)"},
	{"full/count-count-bidder", "count(//open_auction[count(bidder) > 2])"},
	{"full/count-bidder-eq", "//open_auction[count(bidder) = 3]/current"},
	{"full/sum-plus-count", "sum(//item[shipping]/quantity) + count(//person[emailaddress])"},
	{"full/count-gt-count", "count(//person[emailaddress]) > count(//item[shipping])"},
}

// fragmentAlgebraShapes are the six Core XPath and six XPatterns
// templates of the pool.
var fragmentAlgebraShapes = []struct{ name, query string }{
	{"core/regions-item-name", "/site/regions/*/item/name"},
	{"core/item-shipping", "//item[shipping]/name"},
	{"core/auction-bidder", "//open_auction[bidder]/current"},
	{"core/person-not-email", "//person[not(emailaddress)]/name"},
	{"core/personref-ancestor", "//personref/ancestor::open_auction/itemref"},
	{"core/current-or-itemref", "//open_auction/current | //open_auction/itemref"},
	{"xpatterns/payment-cash", "//item[payment='cash']/name"},
	{"xpatterns/id-person1", "id('person1')/name"},
	{"xpatterns/id-personref", "id(//bidder/personref)/name"},
	{"xpatterns/location-or", "//item[location='Kenya' or location='Japan']/quantity"},
	{"xpatterns/itemref-eq", "//open_auction[itemref='item1']/current"},
	{"xpatterns/quantity-or-name", "//item[quantity=2]/name | //person[name='Person 3']/emailaddress"},
}

// BenchmarkServedMix runs the 24 templates of optMinContextShapes and
// fragmentAlgebraShapes under auto, one after another, over two
// 1 000-item auction documents taken in turn — the in-process twin of
// the eval_heavy workload. One query's working set is evicted by the
// next's, so a kernel bound by memory access pays here what it pays in
// the server, where the per-shape benchmarks, each looping on one
// query over one document, keep it in cache. ns/op and B/op are per
// query.
func BenchmarkServedMix(b *testing.B) {
	docs := []*xmltree.Document{workload.Auction(1, 1000), workload.Auction(2, 1000)}
	var engines []*core.Engine
	for _, d := range docs {
		engines = append(engines, core.NewEngine(d, core.Auto))
	}
	var queries []*core.Query
	for _, sh := range append(optMinContextShapes[:len(optMinContextShapes):len(optMinContextShapes)], fragmentAlgebraShapes...) {
		queries = append(queries, core.MustCompile(sh.query))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, q := i%len(docs), queries[i/len(docs)%len(queries)]
		if _, err := engines[j].EvaluateContext(ctx, q, rootCtx(docs[j])); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptMinContextShapes measures OptMinContext on the twelve
// query shapes it answers in the serving benchmark's pool — the six
// Extended-Wadler and the six full-XPath templates — over an xmlgen
// auction document of more than 20 000 nodes. These are the shapes
// whose inner absolute paths run as node sets, whose positional steps
// loop over X ∩ χ⁻¹(Y) only, and whose comparisons start from the last
// step's posting list; B/op is reported because the quadratic versions
// of these paths showed there first.
func BenchmarkOptMinContextShapes(b *testing.B) {
	d := workload.Auction(1, 1200)
	if d.Len() < 20000 {
		b.Fatalf("auction document has %d nodes, want at least 20000", d.Len())
	}
	d.Index()
	en := core.NewEngine(d, core.OptMinContext)
	ctx := context.Background()
	for _, sh := range optMinContextShapes {
		q := core.MustCompile(sh.query)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := en.EvaluateStrategy(ctx, q, rootCtx(d), core.OptMinContext); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// autoRowQueries are the seven queries of internal/core's auto table
// that auto once sent to TopDown — full XPath with predicates nested at
// least three deep, over a document of at most 1 024 nodes — followed
// by two probe queries of the same shape that TopDown won or lost by
// the widest margins seen on an 841-node auction document, and three
// queries with a bottom-up location path behind a first step that
// selects nothing on every document here, none of which holds p.
var autoRowQueries = []struct{ name, query string }{
	{"exp3-3", workload.Exp3Query(3)},
	{"exp3-4", workload.Exp3Query(4)},
	{"count-d", "//a[b[c[count(d) > 1]]]"},
	{"count-e", "//a[b[c[d[count(e) > 1]]]]"},
	{"count-d-position", "//a[b[c[count(d) = position()]]]"},
	{"increase-last", "//open_auction[count(bidder[increase[. > 1][position() = last()]]) > 1]/itemref"},
	{"count-abcd", "count(//a[b[c[d]]])"},
	{"probe/interest-2", "count(//person[profile[interest[2]]])"},
	{"probe/increase-strlen", "//open_auction[bidder[position() > 1][increase[. > string-length(name(..))]]]"},
	{"p-i", "//p[@i]"},
	{"p-not-i", "//p[not(@i)]"},
	{"p-i-eq", "//p[@i = '2']"},
}

// BenchmarkAutoRow runs autoRowQueries under TopDown and OptMinContext
// over the small documents the removed row covered: DOC(10/100/300) of
// Experiments 1–3 and two auction documents of 10 and 40 items (218
// and 841 nodes). It is the record behind auto picking by fragment
// alone: the row's queries now run on OptMinContext at every size.
func BenchmarkAutoRow(b *testing.B) {
	docs := []struct {
		name string
		d    *xmltree.Document
	}{
		{"doc10", workload.Doc(10)}, {"doc100", workload.Doc(100)}, {"doc300", workload.Doc(300)},
		{"auction10", workload.Auction(1, 10)}, {"auction40", workload.Auction(1, 40)},
	}
	ctx := context.Background()
	for _, doc := range docs {
		en := core.NewEngine(doc.d, core.Auto)
		for _, rq := range autoRowQueries {
			q := core.MustCompile(rq.query)
			for _, s := range []core.Strategy{core.TopDown, core.OptMinContext} {
				b.Run(doc.name+"/"+rq.name+"/"+s.String(), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := en.EvaluateStrategy(ctx, q, rootCtx(doc.d), s); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFragmentAlgebraShapes is the mirror of
// BenchmarkOptMinContextShapes for the §10 set algebra: the six Core
// XPath and six XPatterns templates of the serving benchmark's pool, each
// under the strategy auto picks, and four more under the XPatterns gate,
// over the same 25k-node auction document. B/op is reported: a
// materialized dom is |D| node ids and shows there first.
func BenchmarkFragmentAlgebraShapes(b *testing.B) {
	d := workload.Auction(1, 1200)
	d.Index()
	// The four predicate shapes that enumerated dom under the XPatterns
	// gate: a not(π = s), a true(), an absolute path, and the one pool
	// template with a not(), which the gate must answer at Core XPath's
	// price.
	domShapes := []struct{ name, query string }{
		{"dom/not-payment-cash", "//item[not(payment='cash')]/name"},
		{"dom/true-and-payment", "//item[true() and payment='cash']/name"},
		{"dom/absolute-pred", "//item[/site/people]/name"},
		{"dom/person-not-email", "//person[not(emailaddress)]/name"},
	}
	en := core.NewEngine(d, core.Auto)
	ctx := context.Background()
	run := func(name string, q *core.Query, s core.Strategy) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := en.EvaluateStrategy(ctx, q, rootCtx(d), s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, sh := range fragmentAlgebraShapes {
		q := core.MustCompile(sh.query)
		run(sh.name, q, en.StrategyFor(q))
	}
	for _, sh := range domShapes {
		run(sh.name, core.MustCompile(sh.query), core.XPatterns)
	}
}

// BenchmarkFragmentEngines times the twelve Core XPath and XPatterns
// templates of fragmentAlgebraShapes, and the full-XPath pair
// count(//person[not(address)]) and count(//person[address]), over two
// auction documents of 20 706 and 82 451 nodes, under auto, under each
// fragment gate that admits the query, and under optmincontext. All of
// them run on the one OptMinContext evaluation, so the rows of one query
// should agree; compared against a build whose gates ran an algebra of
// their own, it is the record that moving them onto the run made no
// shape slower.
func BenchmarkFragmentEngines(b *testing.B) {
	shapes := append(fragmentAlgebraShapes[:len(fragmentAlgebraShapes):len(fragmentAlgebraShapes)],
		struct{ name, query string }{"full/count-person-not-address", "count(//person[not(address)])"},
		struct{ name, query string }{"full/count-person-address", "count(//person[address])"})
	ctx := context.Background()
	for _, items := range []int{1000, 4000} {
		d := workload.Auction(1, items)
		en := core.NewEngine(d, core.Auto)
		for _, sh := range shapes {
			q := core.MustCompile(sh.query)
			for _, s := range []core.Strategy{core.Auto, core.CoreXPath, core.XPatterns, core.OptMinContext} {
				if s == core.CoreXPath && q.Fragment() > core.FragmentCoreXPath ||
					s == core.XPatterns && q.Fragment() > core.FragmentXPatterns {
					continue
				}
				b.Run(fmt.Sprintf("auction%d/%s/%s", items, sh.name, s), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := en.EvaluateStrategy(ctx, q, rootCtx(d), s); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkDescendantFusion measures what xpath.Optimize's step fusion
// is for: the ten templates of the serving benchmark's pool that the
// Core XPath and XPatterns algebras answer and that contain a //, plus
// the two whose //name[…] cannot be fused because the predicate reads
// position() or last() (MinContext and OptMinContext find their
// previous context nodes from the posting list instead). Each shape
// runs under every strategy that accepts it, over the same 25k-node
// auction document as BenchmarkOptMinContextShapes; B/op is reported
// because a materialized descendant-or-self::node() shows there first.
func BenchmarkDescendantFusion(b *testing.B) {
	d := workload.Auction(1, 1200)
	d.Index()
	shapes := []struct{ name, query string }{
		{"core/item-shipping", "//item[shipping]/name"},
		{"core/auction-bidder", "//open_auction[bidder]/current"},
		{"core/person-not-email", "//person[not(emailaddress)]/name"},
		{"core/personref-ancestor", "//personref/ancestor::open_auction/itemref"},
		{"core/current-or-itemref", "//open_auction/current | //open_auction/itemref"},
		{"xpatterns/payment-cash", "//item[payment='cash']/name"},
		{"xpatterns/id-personref", "id(//bidder/personref)/name"},
		{"xpatterns/location-or", "//item[location='Kenya' or location='Japan']/quantity"},
		{"xpatterns/itemref-eq", "//open_auction[itemref='item1']/current"},
		{"xpatterns/quantity-or-name", "//item[quantity=2]/name | //person[name='Person 3']/emailaddress"},
		{"positional/item-even", "//item[position() mod 2 = 0]/name"},
		{"positional/person-last", "//person[position() = last()]/name"},
	}
	strategies := []core.Strategy{core.CoreXPath, core.XPatterns, core.OptMinContext, core.MinContext, core.TopDown}
	ctx := context.Background()
	for _, sh := range shapes {
		q := core.MustCompile(sh.query)
		for _, s := range strategies {
			if s == core.CoreXPath && q.Fragment() > core.FragmentCoreXPath ||
				s == core.XPatterns && q.Fragment() > core.FragmentXPatterns {
				continue
			}
			en := core.NewEngine(d, s)
			b.Run(sh.name+"/"+s.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := en.EvaluateStrategy(ctx, q, rootCtx(d), s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAxes measures the axis evaluator through the Core XPath
// algebra (whole queries including parsing-independent evaluation).
func BenchmarkAxes(b *testing.B) {
	d := workload.Catalog(2000)
	for _, q := range []string{"//*", "//*/following::*", "//*/ancestor::*"} {
		b.Run(q, func(b *testing.B) {
			e, ev := xpath.MustParse(q), xpatterns.New(d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Evaluate(e, rootCtx(d)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAxesEval measures axis evaluation in isolation in its
// steady state: a caller-reused output buffer plus the per-document
// scratch pool mean zero heap allocations per evaluation.
func BenchmarkAxesEval(b *testing.B) {
	d := workload.Catalog(2000)
	ctxSet := d.Index().Named("product")
	cases := []struct {
		name string
		axis axes.Axis
	}{
		{"descendant", axes.Descendant},
		{"descendant-or-self", axes.DescendantOrSelf},
		{"ancestor", axes.Ancestor},
		{"following", axes.Following},
		{"preceding", axes.Preceding},
		{"child", axes.Child},
		{"following-sibling", axes.FollowingSibling},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			buf := axes.EvalInto(d, c.axis, ctxSet, nil) // warm the buffer and scratch pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = axes.EvalInto(d, c.axis, ctxSet, buf)
			}
		})
	}
}

// BenchmarkAxesEvalNamed measures the label-index fast path: the axis
// image restricted to one element name, served from the posting list.
func BenchmarkAxesEvalNamed(b *testing.B) {
	d := workload.Catalog(2000)
	root := xmltree.NodeSet{d.RootID()}
	b.Run("descendant::product", func(b *testing.B) {
		buf := axes.EvalNamedInto(d, axes.Descendant, root, "product", nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = axes.EvalNamedInto(d, axes.Descendant, root, "product", buf)
		}
	})
}

// BenchmarkBitset measures the packed set operations the Core XPath
// algebra is built on.
func BenchmarkBitset(b *testing.B) {
	const n = 1 << 16
	x, y := xmltree.NewBitset(n), xmltree.NewBitset(n)
	for i := 0; i < n; i += 3 {
		x.Add(xmltree.NodeID(i))
	}
	for i := 0; i < n; i += 7 {
		y.Add(xmltree.NodeID(i))
	}
	b.Run("union", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x.UnionWith(y)
		}
	})
	b.Run("count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if x.Count() == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// --- Serving layer: compiled-query cache and batch worker pool ---

// BenchmarkServingCachedVsCold measures what the internal/engine cache
// saves per request: "cold" compiles the query on every request (parse
// + normalize + classify + evaluate), "cached" hits the compiled-query
// LRU and only evaluates. On a selective Core XPath query — long
// query, small touched node set, the common shape of selective serving
// traffic, where compilation dominates — the cached path is well over
// 10× faster.
func BenchmarkServingCachedVsCold(b *testing.B) {
	d := workload.Doc(2)
	src := "//absent" + strings.Repeat("/child::a", 60)
	b.Run("cold", func(b *testing.B) {
		en := core.NewEngine(d, core.Auto)
		for i := 0; i < b.N; i++ {
			q, err := core.Compile(src)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := en.Evaluate(q, core.Context{Node: d.RootID(), Pos: 1, Size: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		s := engine.New(engine.Options{}).NewSession(d)
		if _, err := s.Query(src); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// nullResponseWriter is the cheapest http.ResponseWriter there is: it
// counts the body and drops it, so BenchmarkHandlerQuery charges the
// handler for what it does and not for a recorder's buffer.
type nullResponseWriter struct {
	h http.Header
	n int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) WriteHeader(int)             {}
func (w *nullResponseWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkHandlerQuery measures one POST /query through the server's
// own handler, in process: middleware, request decode, store lookup,
// session, evaluation on a warm compile cache, and the answer encoded
// and written — everything of a hot request but the socket. Per
// document size a node-set answer, a node-set answer cut at 100 nodes,
// and a scalar; SetBytes is the body length, so MB/s reads as response
// bytes produced per second. httptest.NewRequest is inside the loop.
func BenchmarkHandlerQuery(b *testing.B) {
	for _, items := range []int{30, 1200} {
		srv := serve.New(engine.New(engine.Options{}), store.Config{})
		srv.SetLogger(obs.NewLogger(io.Discard, slog.LevelError))
		if _, _, err := srv.AddDocument("auction", workload.Auction(1, items).XMLString()); err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		for _, q := range []struct{ name, query string }{
			{"nodeset", "//item/name"},
			{"truncated", "//*"},
			{"scalar", "count(//item)"},
		} {
			body := fmt.Sprintf(`{"doc":"auction","query":%q}`, q.query)
			b.Run(fmt.Sprintf("items=%d/%s", items, q.name), func(b *testing.B) {
				w := &nullResponseWriter{h: http.Header{}}
				serveOnce := func() {
					w.n = 0
					for k := range w.h {
						delete(w.h, k)
					}
					h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
				}
				serveOnce() // warm the compile cache and the index
				if w.n == 0 {
					b.Fatal("empty response body")
				}
				b.SetBytes(int64(w.n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					serveOnce()
				}
			})
		}
	}
}

// BenchmarkHandlerRegister measures one POST /documents through the
// server's own handler, in process: the body read, the envelope
// scanned, the document unescaped out of its JSON string, parsed,
// indexed and stored, the reply written. The body is what the
// benchmark driver and the router send (encoding/json's escaping: every
// < and > a \u escape); SetBytes is its length.
func BenchmarkHandlerRegister(b *testing.B) {
	for _, items := range []int{30, 1000} {
		srv := serve.New(engine.New(engine.Options{}), store.Config{})
		srv.SetLogger(obs.NewLogger(io.Discard, slog.LevelError))
		h := srv.Handler()
		body, err := json.Marshal(serve.DocumentRequest{Name: "auction", XML: workload.Auction(1, items).XMLString()})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			w := &nullResponseWriter{h: http.Header{}}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.n = 0
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/documents", bytes.NewReader(body)))
				if w.n == 0 {
					b.Fatal("empty reply")
				}
			}
		})
	}
}

// BenchmarkServingBatchWorkers measures batch throughput scaling with
// the worker pool on a realistic catalog workload. Evaluation is pure
// CPU, so wall-clock scaling tracks available cores: with GOMAXPROCS=1
// every worker count measures the same (plus small pool overhead); on
// an m-core machine throughput grows toward m× until workers exceed
// cores.
func BenchmarkServingBatchWorkers(b *testing.B) {
	d := workload.Catalog(400)
	batch := make([]string, 0, 96)
	for len(batch) < 96 {
		batch = append(batch,
			"count(//product)",
			"//product[child::discontinued]/child::name",
			"sum(//price)",
			"//product[child::price > 50]",
		)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := engine.New(engine.Options{Workers: workers}).NewSession(d)
			s.Batch(batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, res := range s.Batch(batch) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
		})
	}
}

// BenchmarkParser measures query compilation.
func BenchmarkParser(b *testing.B) {
	q := workload.Exp2Query(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xpath.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXMLParse measures document loading.
func BenchmarkXMLParse(b *testing.B) {
	src := workload.Catalog(1000).XMLString()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.ParseString(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse measures xmltree.ParseString on the documents the
// serving benchmarks register (workload.Auction at 30 and 1000 items,
// about 8 KB and 0.3 MB): MB/s of source text and allocations per
// parse, which must not grow with the document.
func BenchmarkParse(b *testing.B) {
	for _, items := range []int{30, 1000} {
		src := workload.Auction(1, items).XMLString()
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := xmltree.ParseString(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
