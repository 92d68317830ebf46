// Package repro reproduces Gottlob, Koch and Pichler, "Efficient
// Algorithms for Processing XPath Queries" (VLDB 2002): a complete
// XPath 1.0 engine with every evaluation algorithm the paper develops —
// from the exponential naive baseline to the polynomial context-value-
// table algorithms and the linear-time fragment evaluators — plus the
// benchmark harness regenerating the paper's experiments.
//
// The repository is layered:
//
//   - internal/xmltree, internal/xpath, internal/semantics — the data
//     model, parser and effective semantics shared by every engine.
//     xmltree doubles as the performance layer under the evaluation
//     core: packed []uint64 bitsets (64 nodes a machine word in the
//     set algebra) and a per-document structural index that the parse
//     lays out in the same pass (subtree intervals from the preorder
//     arena, a label→NodeSet name index with O(1) prefix content
//     counts, and a pooled evaluator-scratch allocator). internal/axes evaluates the
//     recursive axes as O(output) interval arithmetic over that index
//     — allocation-free in steady state — instead of the worklist
//     closures of Algorithm 3.2, which survive as the executable
//     specification in the axes property tests. One query runs on one
//     goroutine; what scales across cores is queries (README,
//     "Intra-query parallelism: measured, removed").
//   - internal/naive … internal/xpatterns — one package per algorithm
//     (topdown, mincontext, wadler = optmincontext — a MinContext run
//     that computes each bottom-up location path of the Wadler fragment,
//     and the Section 10 and/or/not of such paths, set-at-a-time when it
//     first needs the table —, xpatterns = the Core XPath and XPatterns
//     languages, admission gates over that run for the corexpath and
//     xpatterns strategies; naive, whose memo is the data pool of
//     Section 9, and bottomup are oracles and experiment baselines that
//     no server links; internal/corexpath is tests only), over one
//     operator core: F[[e]] of every non-path expression in
//     internal/semantics (Eval, called by all five interpreters), and
//     internal/evalutil's pair loops, step relation, relation
//     composition and its two walks over a location path, forward and
//     backward, each written once with one judge of a step's
//     predicates, the MinContext run.
//   - internal/core — the public engine API: compile a query once,
//     evaluate it with a selectable strategy; Auto runs OptMinContext
//     for every query (core.Explain, one row), and the strategies are
//     exactly Auto, OptMinContext, the CoreXPath and XPatterns gates
//     over it, TopDown and MinContext.
//     EvaluateContext carries a uniform cancellation contract: every
//     engine stops at a throttled checkpoint once the context is done.
//   - internal/engine — the concurrent serving layer: a thread-safe
//     LRU cache of compiled queries (compile once per distinct query
//     under sustained traffic), Sessions binding documents (each
//     tracking when it was last queried, the idle-eviction signal), a
//     bounded worker pool with streaming batch evaluation.
//   - internal/store — the storage layer: a byte-accounted document
//     store (one map under one lock, one byte budget, store-wide LRU
//     or reject eviction, a monotonic version per entry handed out
//     with its value) holding one Session per registered document.
//   - internal/serve — the wire format: the HTTP/JSON server binding
//     store + engine behind /query, streaming /batch, /documents,
//     /stats and /healthz; cmd/xpathserve is its flag-parsing shell.
//   - internal/cluster — the multi-process layer: a Node client for
//     each peer's document and query API, and a Router that
//     partitions documents across N backend nodes by FNV-1a over
//     the document name (cluster.KeyShard), forwards /query to the owning node (with
//     replica retry), and fans /batch out scatter-gather style into
//     one completion-order NDJSON stream tagged with index/doc/node;
//     cmd/xpathrouter is its binary.
//   - cmd/ — xpathserve and xpathrouter as above; the other tools
//     (xpathquery, xpathbench, xpathgrep, xpathexplain, xmlgen,
//     xpathlint, xpathreshard) are one-shot CLIs.
//
// The serving stack is layered store → engine → serve → cluster: one
// process holds a bounded corpus, and a fleet of processes behind the
// router holds more.
//
// See internal/core for the engine API, internal/engine for the
// serving layer, README.md for the strategy table, server examples and
// the cluster-mode quickstart, and bench_test.go for the benchmarks
// regenerating the paper's figures plus the serving-layer cache and
// worker-pool measurements.
package repro
