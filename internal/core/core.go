// Package core is the public face of the library: compile an XPath 1.0
// query once, evaluate it over documents with a selectable strategy.
//
// The Auto strategy implements the combined OptMinContext processor of
// the paper's introduction: every query runs on OptMinContext (Section
// 11.2), whose run computes the Section 10 set algebra — E1 of and, or,
// not, existential paths, path = constant and the XSLT'98 predicates —
// a whole table at a time wherever it applies, meets the Core XPath and
// XPatterns bounds there (Corollaries 11.4 and 11.5) and degrades
// gracefully to MinContext bounds on full XPath. Explain says so, with
// the query's fragment, and is the only place that knows it. CoreXPath
// and XPatterns are admission gates over that same run, refusing a
// query outside their fragment with ErrNotInFragment. Strategy names
// those, plus two that only a fixed strategy runs: TopDown (Section 7)
// and MinContext, the Section 8 algorithm OptMinContext runs beneath
// its bottom-up subexpressions. The paper's other
// rungs — the exponential naive engine of Section 2 with its Section 9
// data pool, and the context-value tables of Section 6 — are dominated
// on every row; they live on as test oracles and experiment baselines
// (internal/naive, internal/bottomup), reached directly, never through
// an Engine.
//
// # Which tree runs
//
// A compiled Query holds two equivalent trees. The literal one is the
// paper's normal form exactly as xpath.Parse returns it (Section 5),
// with // spelled /descendant-or-self::node()/. The other is
// xpath.Optimize of it: steps fused so that //t is one descendant::t
// step served from t's posting list instead of a pass over every node
// of the document. Every strategy runs the optimized tree — it is what
// Expr and Fragment see. The literal tree is what the naive baseline
// runs, outside this package: the paper's experimental curves
// (Experiments 1–5) are about the normal form's cost and must not
// change shape with this repository's optimizer, and because
// internal/conformance checks every engine against naive on it, the
// rewrite is under the differential oracle on every query the suite
// knows.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/mincontext"
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
	Auto: "auto", TopDown: "topdown", MinContext: "mincontext",
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
// form and the fragment classification, never evaluation state — so
// one compiled Query may be evaluated concurrently by any number of
// goroutines, over the same document or different ones
// (internal/engine's compiled-query cache relies on this; see
// TestConcurrentEvaluation and the engine race tests).
type Query struct {
	src     string
	literal xpath.Expr // the normal form of Section 5: what the naive baseline runs
	expr    xpath.Expr // xpath.Optimize(literal): what every strategy runs
	frag    Fragment
}

// Compile parses a query into its variable-free normal form (Section 5;
// a $ is xpath.Parse's error) and optimizes it (see the package comment).
func Compile(src string) (*Query, error) {
	e, err := xpath.Parse(src)
	if err != nil {
		return nil, err
	}
	opt := xpath.Optimize(e)
	return &Query{src: src, literal: e, expr: opt, frag: classify(opt)}, nil
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
// normal form, which the naive baseline (internal/naive) evaluates.
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

// Explain is the whole of Auto: the algorithm that runs q and the
// reason. OptMinContext meets each fragment's bound of Figure 1 wherever
// the fragment applies, so there is one row: no document size, no
// statistics, nothing learned, and not even the fragment decides.
func Explain(q *Query) (Strategy, string) {
	return OptMinContext, "every fragment: OptMinContext computes the bottom-up subexpressions and their and/or/not set-at-a-time, within the Core XPath and XPatterns bounds where those fragments apply (Corollaries 11.4 and 11.5) and MinContext's elsewhere (Section 11.2)"
}

// ExplainText renders how the library sees q under strategy s: both
// trees, the fragment the Auto table reads, and the algorithm that runs
// with the reason. It is the one explain path — cmd/xpathexplain and
// xpathquery -explain print it verbatim, and its strategy line is what
// /query reports.
func ExplainText(q *Query, s Strategy) string {
	why := "fixed by the configured strategy"
	if s == Auto {
		s, why = Explain(q)
	}
	return fmt.Sprintf("query:       %s\nnormalized:  %s\noptimized:   %s\nfragment:    %s\nstrategy:    %s\nrationale:   %s\n",
		q.src, q.literal, q.expr, q.frag, s, why)
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
// An Engine is safe for concurrent use once configured: each Evaluate
// call has evaluator state of its own, in an arena no other call holds
// at the same time, the Document is immutable after parsing (its lazily
// filled string-value memo is a slice of atomic pointers in xmltree),
// and Query is immutable after compilation but for the rank tests of its
// predicates, stored once, atomically (xpath.Memo).
type Engine struct {
	doc      *Document
	strategy Strategy
}

// NewEngine creates an engine over a document.
func NewEngine(d *Document, s Strategy) *Engine {
	return &Engine{doc: d, strategy: s}
}

// Strategy returns the engine's configured strategy.
func (en *Engine) Strategy() Strategy { return en.strategy }

// StrategyFor reports the concrete algorithm the engine runs q with:
// its configured strategy, or Explain's pick under Auto.
func (en *Engine) StrategyFor(q *Query) Strategy {
	if en.strategy != Auto {
		return en.strategy
	}
	s, _ := Explain(q)
	return s
}

// Evaluate computes the query's value for an explicit context.
func (en *Engine) Evaluate(q *Query, c Context) (Value, error) {
	return en.EvaluateContext(context.Background(), q, c)
}

// EvaluateContext computes the query's value for an explicit context,
// abandoning the evaluation with ctx's error once ctx is done. The
// cancellation contract is uniform across every strategy: all engines
// carry throttled checkpoints inside their evaluation loops — inside
// the document-sized table loops, and billed per O(|D|) set operation
// where a table is computed whole — so an abandoned request stops
// burning CPU mid-query no matter which algorithm is running.
func (en *Engine) EvaluateContext(ctx context.Context, q *Query, c Context) (Value, error) {
	return en.EvaluateStrategy(ctx, q, c, en.StrategyFor(q))
}

// EvaluateStrategy evaluates with an explicitly named strategy,
// ignoring the engine's configured one (Auto still resolves through
// StrategyFor), so a serving layer can decide once, run exactly that
// algorithm and report exactly what ran. CoreXPath and XPatterns are
// refused with ErrNotInFragment for a query the classification places
// outside their fragment.
//
// Every strategy builds what it materializes in one arena of the
// document's (xmltree.Arena), which is back in its pool when
// EvaluateStrategy returns; a node-set answer is a copy of exactly its
// members, owned by the caller.
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
	case TopDown:
		return topdown.New(en.doc).EvaluateContext(ctx, q.expr, c)
	case MinContext:
		return mincontext.New(en.doc).EvaluateContext(ctx, q.expr, c)
	case OptMinContext, CoreXPath, XPatterns: // two gates over one run
		return wadler.New(en.doc).EvaluateContext(ctx, q.expr, c)
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
