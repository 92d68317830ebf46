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
//     set algebra) and a lazily built, cached per-document structural
//     index (subtree intervals from the preorder arena, a
//     label→NodeSet name index with O(1) prefix content counts, and a
//     pooled evaluator-scratch allocator). internal/axes evaluates the
//     recursive axes as O(output) interval arithmetic over that index
//     — allocation-free in steady state — instead of the worklist
//     closures of Algorithm 3.2, which survive as the executable
//     specification in the axes property tests. One query runs on one
//     goroutine; what scales across cores is queries (README,
//     "Intra-query parallelism: measured, removed").
//   - internal/naive … internal/xpatterns — one package per algorithm
//     (naive, datapool, bottomup, topdown, mincontext, wadler =
//     optmincontext, xpatterns = the Section 10 set algebra behind the
//     corexpath and xpatterns strategies; internal/corexpath is tests
//     only), over internal/evalutil's pair loops and backward walk.
//   - internal/core — the public engine API: compile a query once,
//     evaluate it with a selectable strategy; Auto picks the best
//     algorithm per query from one static table over the fragment
//     classification (core.Explain). EvaluateContext
//     carries a uniform cancellation contract: every engine, from the
//     linear fragment evaluators to the exponential baseline, stops at
//     a throttled checkpoint once the context is done.
//   - internal/engine — the concurrent serving layer: a thread-safe
//     LRU cache of compiled queries (compile once per distinct query
//     under sustained traffic), Sessions binding documents (each
//     tracking when it was last queried, the idle-eviction signal), a
//     bounded worker pool with streaming batch evaluation, and
//     automatic fallback to MinContext when a bottom-up table limit
//     trips.
//   - internal/store — the storage layer: a sharded, byte-accounted
//     document store (FNV-1a routing via store.KeyShard, per-shard
//     locks, LRU or reject eviction) holding one Session per
//     registered document.
//   - internal/serve — the wire format: the HTTP/JSON server binding
//     store + engine behind /query, streaming /batch, /documents,
//     /stats and /healthz; cmd/xpathserve is its flag-parsing shell.
//   - internal/cluster — the multi-process layer: a Remote
//     implementation of store.Store over a peer's document API, and a
//     Router that partitions documents across N backend nodes with the
//     same KeyShard routing, forwards /query to the owning node (with
//     replica retry), and fans /batch out scatter-gather style into
//     one completion-order NDJSON stream tagged with index/doc/node;
//     cmd/xpathrouter is its binary.
//   - cmd/ — xpathserve and xpathrouter as above; the other tools
//     (xpathquery, xpathbench, xpathgrep, xpathexplain, xmlgen,
//     benchjson with its regression-gating diff subcommand) are
//     one-shot CLIs.
//
// The serving stack is layered store → engine → serve → cluster, so
// each level scales independently: shards within a process, processes
// within a fleet.
//
// See internal/core for the engine API, internal/engine for the
// serving layer, README.md for the strategy table, server examples and
// the cluster-mode quickstart, and bench_test.go for the benchmarks
// regenerating the paper's figures plus the serving-layer cache and
// worker-pool measurements.
package repro
