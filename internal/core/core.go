// Package core is the public face of the library: compile an XPath 1.0
// query once, evaluate it over documents with a selectable strategy.
//
// The Auto strategy implements the combined OptMinContext processor of
// the paper's introduction: Core XPath (Section 10.1) and its extension
// XPatterns (Section 10.2) run on the linear-time set algebra — one
// evaluator, internal/xpatterns, behind two admission gates (strategies
// CoreXPath and XPatterns, refusing with ErrNotInFragment) — queries in
// the Extended Wadler Fragment, and everything else but deeply nested
// predicates over a small document, on OptMinContext (Section 11.2),
// which itself degrades gracefully to MinContext bounds on full XPath.
// Explain is that table, and the only place that knows it. The
// remaining strategies expose every algorithm the paper discusses,
// including the deliberately exponential naive engine used as the
// experimental baseline.
//
// # Which tree runs
//
// A compiled Query holds two equivalent trees. The literal one is the
// paper's normal form exactly as xpath.Parse returns it (Section 5),
// with // spelled /descendant-or-self::node()/. The other is
// xpath.Optimize of it: steps fused so that //t is one descendant::t
// step served from t's posting list instead of a pass over every node
// of the document. Every strategy runs the optimized tree — it is what
// Expr, Fragment and PredDepth see — except Naive and DataPool, which
// run the literal one. Those two are the paper's experimental
// baselines, whose curves (Experiments 1–5) are about the normal form's
// cost and must not change shape with this repository's optimizer; and
// because internal/conformance checks every other engine against them,
// the rewrite is under the differential oracle on every query the suite
// knows.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/bottomup"
	"repro/internal/datapool"
	"repro/internal/mincontext"
	"repro/internal/naive"
	"repro/internal/semantics"
	"repro/internal/topdown"
	"repro/internal/wadler"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xpatterns"
)

// Document is an XML document in the paper's data model.
type Document = xmltree.Document

// Value is an XPath 1.0 result value (number, string, boolean or node
// set).
type Value = semantics.Value

// Context is an XPath evaluation context ⟨node, position, size⟩.
type Context = semantics.Context

// NodeSet is a document-ordered set of nodes.
type NodeSet = xmltree.NodeSet

// Parse reads an XML document.
func Parse(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// ParseString parses an XML document from a string.
func ParseString(s string) (*Document, error) { return xmltree.ParseString(s) }

// Strategy selects an evaluation algorithm.
type Strategy int

// The evaluation strategies, in roughly the order the paper develops
// them.
const (
	// Auto picks the best applicable algorithm per query; Explain is
	// the table.
	Auto Strategy = iota
	// Naive is the exponential-time recursive evaluator modeling
	// XALAN/XT/Saxon/IE6 (Section 2).
	Naive
	// DataPool is Naive plus the memoizing data pool of Section 9.
	DataPool
	// BottomUp is the context-value-table Algorithm 6.3.
	BottomUp
	// TopDown is the vectorized evaluator of Section 7.
	TopDown
	// MinContext is the Section 8 algorithm.
	MinContext
	// OptMinContext is the Section 11.2 algorithm (full XPath, with
	// bottom-up evaluation of Wadler-fragment subexpressions).
	OptMinContext
	// CoreXPath is the linear-time fragment algebra (Section 10.1);
	// it rejects queries outside the fragment.
	CoreXPath
	// XPatterns is the linear-time XPatterns evaluator (Section 10.2);
	// it rejects queries outside the fragment.
	XPatterns
)

// strategyNames are the flag names and, through Strategy.String, the
// Prometheus label values of the engine's per-strategy latency
// histograms (xpath_query_seconds{strategy=...}). Keep them lowercase
// snake_case: dashboards key on these exact strings.
var strategyNames = map[Strategy]string{
	Auto: "auto", Naive: "naive", DataPool: "datapool",
	BottomUp: "bottomup", TopDown: "topdown", MinContext: "mincontext",
	OptMinContext: "optmincontext", CoreXPath: "corexpath",
	XPatterns: "xpatterns",
}

// String returns the strategy's flag name.
func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// StrategyByName resolves a flag name to a Strategy.
func StrategyByName(name string) (Strategy, bool) {
	for s, n := range strategyNames {
		if n == name {
			return s, true
		}
	}
	return 0, false
}

// Fragment classifies a query into the lattice of Figure 1.
type Fragment int

// Fragments, smallest first.
const (
	FragmentCoreXPath Fragment = iota
	FragmentXPatterns
	FragmentWadler
	FragmentFullXPath
)

// String names the fragment as in the paper.
func (f Fragment) String() string {
	switch f {
	case FragmentCoreXPath:
		return "Core XPath"
	case FragmentXPatterns:
		return "XPatterns"
	case FragmentWadler:
		return "Extended Wadler Fragment"
	default:
		return "Full XPath"
	}
}

// Label is the fragment's snake_case name: the label value of
// xpath_query_seconds{fragment=...} and of trace span attributes, where
// the display strings ("Core XPath", "Extended Wadler Fragment") are
// not valid material.
func (f Fragment) Label() string {
	switch f {
	case FragmentCoreXPath:
		return "core_xpath"
	case FragmentXPatterns:
		return "xpatterns"
	case FragmentWadler:
		return "wadler"
	default:
		return "full_xpath"
	}
}

// Query is a compiled XPath query. A Query is immutable after
// compilation — it holds the normalized expression tree, its optimized
// form, the fragment classification and the predicate nesting depth,
// never evaluation state — so one compiled Query may be evaluated
// concurrently by any number of goroutines, over the same document or
// different ones (internal/engine's compiled-query cache relies on
// this; see TestConcurrentEvaluation and the engine race tests).
type Query struct {
	src     string
	literal xpath.Expr // the normal form of Section 5: what Naive and DataPool run
	expr    xpath.Expr // xpath.Optimize(literal): what every other strategy runs
	frag    Fragment
	depth   int // deepest predicate nesting in expr
}

// Compile parses and normalizes a query.
func Compile(src string) (*Query, error) {
	return CompileWithBindings(src, nil)
}

// CompileWithBindings parses a query, substitutes variable bindings
// (per Section 5, variables are replaced by constants before
// evaluation) and optimizes the result (see the package comment).
func CompileWithBindings(src string, bindings xpath.Bindings) (*Query, error) {
	e, err := xpath.Parse(src)
	if err != nil {
		return nil, err
	}
	if bindings != nil {
		e, err = xpath.Substitute(e, bindings)
		if err != nil {
			return nil, err
		}
	}
	if xpath.HasVariables(e) {
		return nil, fmt.Errorf("core: query has unbound variables; supply bindings")
	}
	opt := xpath.Optimize(e)
	return &Query{src: src, literal: e, expr: opt, frag: classify(opt), depth: predDepth(opt)}, nil
}

// MustCompile compiles a query known to be valid; it panics on error.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the original query text.
func (q *Query) String() string { return q.src }

// Expr exposes the expression tree the strategies evaluate: the
// normalized tree after xpath.Optimize.
func (q *Query) Expr() xpath.Expr { return q.expr }

// Literal exposes the normalized tree before optimization — the paper's
// normal form, which the Naive and DataPool baselines evaluate.
func (q *Query) Literal() xpath.Expr { return q.literal }

// Fragment reports the smallest fragment of Figure 1 containing the
// query.
func (q *Query) Fragment() Fragment { return q.frag }

func classify(e xpath.Expr) Fragment {
	switch xpatterns.Classify(e) {
	case xpatterns.CoreXPath:
		return FragmentCoreXPath
	case xpatterns.XPatterns:
		return FragmentXPatterns
	}
	if wadler.InFragment(e) {
		return FragmentWadler
	}
	return FragmentFullXPath
}

// PredDepth reports the deepest predicate nesting of the optimized tree
// ([..[..]..] is 2; a fused //t adds none) — with the fragment, all the
// Auto table reads of a query.
func (q *Query) PredDepth() int { return q.depth }

// predDepth is the number of predicates enclosing the most deeply
// nested subexpression of e.
func predDepth(e xpath.Expr) int {
	switch x := e.(type) {
	case *xpath.Negate:
		return predDepth(x.X)
	case *xpath.Binary:
		return max(predDepth(x.Left), predDepth(x.Right))
	case *xpath.Call:
		return deepest(x.Args, 0)
	case *xpath.FilterExpr:
		return max(predDepth(x.Primary), deepest(x.Preds, 1))
	case *xpath.Path:
		depth := predDepth(x.Filter)
		for _, st := range x.Steps {
			depth = max(depth, deepest(st.Preds, 1))
		}
		return depth
	}
	return 0
}

// deepest is the largest predDepth among es, each under `under` more
// predicates.
func deepest(es []xpath.Expr, under int) int {
	depth := 0
	for _, e := range es {
		depth = max(depth, under+predDepth(e))
	}
	return depth
}

// smallDocNodes is the document size up to which per-node overheads,
// not asymptotics, decide between TopDown and OptMinContext on full
// XPath.
const smallDocNodes = 1024

// Explain is the whole of Auto: the algorithm that runs q over a
// document of docNodes nodes (0: size unknown) and the reason, one row
// per fragment of Figure 1. The paper's ladder of algorithms is a
// dominance order, so the choice is static — no statistics, nothing
// learned; Naive, DataPool and BottomUp are dominated on every row and
// never picked.
func Explain(q *Query, docNodes int) (Strategy, string) {
	switch q.frag {
	case FragmentCoreXPath:
		return CoreXPath, "Core XPath fragment: the linear-time set algebra (Section 10.1) dominates the polynomial engines"
	case FragmentXPatterns:
		return XPatterns, "XPatterns fragment: the linear-time XPatterns algebra (Section 10.2) dominates the polynomial engines"
	case FragmentWadler:
		return OptMinContext, "Extended Wadler Fragment: OptMinContext evaluates it bottom-up in linear time per step (Section 11.2)"
	}
	if q.depth >= 3 && docNodes > 0 && docNodes <= smallDocNodes {
		return TopDown, "full XPath with deeply nested predicates over a small document: the vectorized top-down evaluator (Section 7) avoids the context-value-table blowup in nesting depth"
	}
	return OptMinContext, "full XPath: OptMinContext degrades gracefully to MinContext bounds (Section 11.2)"
}

// ExplainText renders how the library sees q over a document of
// docNodes nodes under strategy s: both trees, the two inputs of the
// Auto table, and the algorithm that runs with the reason. It is the
// one explain path — cmd/xpathexplain and xpathquery -explain print it
// verbatim, and its strategy line is what /query reports.
func ExplainText(q *Query, docNodes int, s Strategy) string {
	why := "fixed by the configured strategy"
	if s == Auto {
		s, why = Explain(q, docNodes)
	}
	return fmt.Sprintf("query:       %s\nnormalized:  %s\noptimized:   %s\nfragment:    %s\npred depth:  %d\n|D|:         %d\nstrategy:    %s\nrationale:   %s\n",
		q.src, q.literal, q.expr, q.frag, q.depth, docNodes, s, why)
}

// ErrNotInFragment is returned, wrapped with the strategy and the
// query's fragment, when a fragment algebra (CoreXPath, XPatterns) is
// named explicitly for a query outside its fragment. The algebras
// themselves notice only lazily and data-dependently — on some
// documents they would answer such a query with an empty set.
var ErrNotInFragment = errors.New("core: query is not in the strategy's fragment")

// Engine evaluates compiled queries over one document with a fixed
// strategy.
//
// An Engine is safe for concurrent use once configured: Evaluate
// constructs fresh per-call evaluator state, the Document is immutable
// after parsing (its lazily filled string-value memo is a slice of
// atomic pointers in xmltree), and Query is immutable after
// compilation. The exported knobs (NaiveBudget, MaxTableRows) are read
// on every call and must not be written concurrently with evaluation —
// set them before sharing the Engine.
type Engine struct {
	doc      *Document
	strategy Strategy

	// NaiveBudget bounds naive-strategy evaluations (0 = unlimited);
	// see naive.Evaluator.Budget.
	NaiveBudget int64

	// MaxTableRows bounds the context-value tables materialized by the
	// BottomUp strategy (0 = unlimited); see
	// bottomup.Evaluator.MaxTableRows. When the limit trips, Evaluate
	// returns an error wrapping bottomup.ErrTableLimit.
	MaxTableRows int
}

// NewEngine creates an engine over a document.
func NewEngine(d *Document, s Strategy) *Engine {
	return &Engine{doc: d, strategy: s}
}

// Warm precomputes the document's lazily built structural index
// (subtree intervals, the label→NodeSet name index and the evaluator
// scratch pool) so the first query does not pay the O(|dom|) build.
// Serving layers call it at document-registration time; it is safe,
// idempotent and cheap to call concurrently.
func (en *Engine) Warm() { en.doc.Index() }

// Strategy returns the engine's configured strategy.
func (en *Engine) Strategy() Strategy { return en.strategy }

// StrategyFor reports the concrete algorithm the engine runs q with:
// its configured strategy, or Explain's pick under Auto.
func (en *Engine) StrategyFor(q *Query) Strategy {
	if en.strategy != Auto {
		return en.strategy
	}
	s, _ := Explain(q, en.doc.Len())
	return s
}

// Evaluate computes the query's value for an explicit context.
func (en *Engine) Evaluate(q *Query, c Context) (Value, error) {
	return en.EvaluateContext(context.Background(), q, c)
}

// EvaluateContext computes the query's value for an explicit context,
// abandoning the evaluation with ctx's error once ctx is done. The
// cancellation contract is uniform across every strategy: all engines
// carry throttled checkpoints inside their evaluation loops — the
// polynomial engines (BottomUp, TopDown, MinContext, OptMinContext)
// inside their document-sized table loops, the linear fragment engines
// (CoreXPath, XPatterns) billed per O(|D|) set operation, and the
// exponential baselines (Naive, DataPool) on every elementary step —
// so an abandoned request stops burning CPU mid-query no matter which
// algorithm is running.
func (en *Engine) EvaluateContext(ctx context.Context, q *Query, c Context) (Value, error) {
	return en.EvaluateStrategy(ctx, q, c, en.StrategyFor(q))
}

// EvaluateStrategy evaluates with an explicitly named strategy,
// ignoring the engine's configured one (Auto still resolves through
// StrategyFor), so a serving layer can decide once, run exactly that
// algorithm and report exactly what ran. CoreXPath and XPatterns are
// refused with ErrNotInFragment for a query the classification places
// outside their fragment.
func (en *Engine) EvaluateStrategy(ctx context.Context, q *Query, c Context, s Strategy) (Value, error) {
	if err := ctx.Err(); err != nil {
		return Value{}, err
	}
	if s == Auto {
		s = en.StrategyFor(q)
	}
	if (s == CoreXPath && q.frag != FragmentCoreXPath) || (s == XPatterns && q.frag > FragmentXPatterns) {
		return Value{}, fmt.Errorf("%w: strategy %s, query in %s", ErrNotInFragment, s, q.frag)
	}
	switch s {
	case Naive:
		ev := naive.New(en.doc)
		ev.Budget = en.NaiveBudget
		return ev.EvaluateContext(ctx, q.literal, c)
	case DataPool:
		ev, _ := datapool.NewEvaluator(en.doc)
		ev.Budget = en.NaiveBudget
		return ev.EvaluateContext(ctx, q.literal, c)
	case BottomUp:
		ev := bottomup.New(en.doc)
		ev.MaxTableRows = en.MaxTableRows
		return ev.EvaluateContext(ctx, q.expr, c)
	case TopDown:
		return topdown.New(en.doc).EvaluateContext(ctx, q.expr, c)
	case MinContext:
		return mincontext.New(en.doc).EvaluateContext(ctx, q.expr, c)
	case OptMinContext:
		return wadler.New(en.doc).EvaluateContext(ctx, q.expr, c)
	case CoreXPath, XPatterns: // two gates, one set algebra
		return xpatterns.New(en.doc).EvaluateContext(ctx, q.expr, c)
	default:
		return Value{}, fmt.Errorf("core: unknown strategy %v", s)
	}
}

// Select evaluates a node-set query from the document root and returns
// the selected nodes in document order.
func (en *Engine) Select(q *Query) (NodeSet, error) {
	v, err := en.Evaluate(q, Context{Node: en.doc.RootID(), Pos: 1, Size: 1})
	if err != nil {
		return nil, err
	}
	if v.Kind != xpath.TypeNodeSet {
		return nil, fmt.Errorf("core: query %s returns %v, not a node set", q.src, v.Kind)
	}
	return v.Set, nil
}

// EvalString evaluates any query from the root and renders the result
// as a string (node sets via the string-value of the first node).
func (en *Engine) EvalString(q *Query) (string, error) {
	v, err := en.Evaluate(q, Context{Node: en.doc.RootID(), Pos: 1, Size: 1})
	if err != nil {
		return "", err
	}
	return semantics.ToString(en.doc, v), nil
}

// Select is a one-shot convenience: compile and evaluate a node-set
// query over a document with the Auto strategy.
func Select(d *Document, query string) (NodeSet, error) {
	q, err := Compile(query)
	if err != nil {
		return nil, err
	}
	return NewEngine(d, Auto).Select(q)
}
