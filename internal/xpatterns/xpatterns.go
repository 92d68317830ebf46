// Package xpatterns implements the set algebra of Section 10: Core XPath
// (Section 10.1, the "clean logical core" of XPath — location paths,
// existential path predicates, and/or/not) and XPatterns (Section 10.2,
// Core XPath plus the id axis, the "=s" predicates and the unary
// predicates of Table VI), both in O(|D|·|Q|) time (Theorems 10.5 and
// 10.8). XPatterns is Core XPath plus constructs, so there is one
// evaluator; the two languages are two admission checks over one
// classification pass (Classify, InCoreXPath, InFragment).
//
// The algebra, over ∩, ∪, −, axis application χ and its inverse:
//
//	S→[[χ::t[e]]](N0)  = χ(N0) ∩ T(t) ∩ E1[[e]]      (forward, along the path)
//	S→[[id(π)/π']](N0) = S→[[π']](id(S→[[π]](N0)))   (Lemma 10.6; id('c') is deref_ids(c))
//	E1[[e1 and e2]]    = E1[[e1]] ∩ E1[[e2]]
//	E1[[e1 or e2]]     = E1[[e1]] ∪ E1[[e2]]
//	E1[[not(e)]]       = dom − E1[[e]]
//	E1[[π]]            = S←[[π]] = {x | S→[[π]]({x}) ≠ ∅}            (Theorem 10.4)
//	E1[[π = s]]        = {x | S→[[π]]({x}) ∩ {y | strval(y) = s} ≠ ∅}
//	E1[[first-of-any()]] … one scan of the sibling lists (Theorem 10.8)
//
// S← is not written here: evalutil.Backward walks a path backwards from
// a node set for this package and for OptMinContext alike, id heads
// included (by Lemma 10.6 an id head is one more step to invert), and
// states the contract at the top of its file: the kernel never writes to
// the set it is given, the posting lists it starts from are the index's
// own — shared, read-only — and a path that does not start at the
// context node answers with one flag. This package brings the judge of a
// step's predicates — intersect with their E1 — and the "=s" string
// search, which reads the string-values of T(t) of the path's last step
// only, never an interior element's.
//
// E1 is a sorted slice — what the backward walk returns, and what and/or
// of two such slices merge into — until a not() or a true() makes it
// dense by nature; from there on it is a packed xmltree.Bitset: not is
// Complement, true() is Fill, and a connective with a packed operand
// runs word-parallel. Which form an extension has follows from the
// predicate alone; nothing selects it. dom is never enumerated for a
// predicate: a path that holds at every node or at none (absolute, or
// headed by a constant id) arrives from the kernel as a flag.
//
// As a slight extension over Definition 10.2 (tag and * node tests) the
// kind tests node(), text(), comment() and processing-instruction() are
// accepted; they are unary predicates in the sense of Table VI.
package xpatterns

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/axes"
	"repro/internal/evalutil"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Class is the smallest language of Section 10 a query lies in.
type Class uint8

const (
	CoreXPath Class = iota // Definition 10.2
	XPatterns              // Section 10.2
	Neither
)

// InCoreXPath reports whether a normalized query is a Core XPath query.
func InCoreXPath(e xpath.Expr) bool { return Classify(e) == CoreXPath }

// InFragment reports whether a normalized query is an XPatterns query;
// every Core XPath query is.
func InFragment(e xpath.Expr) bool { return Classify(e) <= XPatterns }

// Classify places a normalized query: a location path whose predicates
// are boolean combinations of existential paths (Core XPath), with id
// heads, path = constant comparisons and the XSLT'98 unary predicates
// besides (XPatterns), or a union of such paths.
func Classify(e xpath.Expr) Class {
	switch x := e.(type) {
	case *xpath.Path:
		c := CoreXPath
		if x.Filter != nil {
			c = idHead(x.Filter)
		}
		for _, s := range x.Steps {
			if s.Axis == axes.IDAxis {
				c = max(c, XPatterns)
			}
			for _, p := range s.Preds {
				c = max(c, classifyPred(p))
			}
		}
		return c
	case *xpath.Binary:
		if x.Op == xpath.OpUnion {
			return max(Classify(x.Left), Classify(x.Right))
		}
	case *xpath.Call:
		return idHead(x) // a bare id('c') or id(π) query
	}
	return Neither
}

// idHead recognizes id(c), id(π) and id(id(…)) heads.
func idHead(e xpath.Expr) Class {
	c, ok := e.(*xpath.Call)
	if !ok || c.Name != "id" || len(c.Args) != 1 {
		return Neither
	}
	if _, ok := c.Args[0].(*xpath.Literal); ok {
		return XPatterns
	}
	return max(XPatterns, Classify(c.Args[0]))
}

// classifyPred is the pred grammar of Definition 10.2 on the normalized
// AST, where a bare path predicate appears as boolean(π).
func classifyPred(e xpath.Expr) Class {
	switch x := e.(type) {
	case *xpath.Binary:
		switch x.Op {
		case xpath.OpAnd, xpath.OpOr:
			return max(classifyPred(x.Left), classifyPred(x.Right))
		case xpath.OpEq:
			if p, _ := eqS(x); p != nil {
				return max(XPatterns, Classify(p))
			}
			return Neither
		}
	case *xpath.Call:
		switch x.Name {
		case "not", "boolean":
			return classifyPred(x.Args[0])
		case "true", "false":
			return CoreXPath
		case "first-of-any", "last-of-any", "first-of-type", "last-of-type":
			return XPatterns
		}
	}
	return Classify(e)
}

// eqS splits the "=s" predicate π = constant (either side). The string
// search runs over the nodes one path can end in: a union or a bare
// id(…) on the path side is left to the general engines.
func eqS(b *xpath.Binary) (p *xpath.Path, c xpath.Expr) {
	for _, side := range [2][2]xpath.Expr{{b.Left, b.Right}, {b.Right, b.Left}} {
		switch side[1].(type) {
		case *xpath.Literal, *xpath.Number:
			if p, ok := side[0].(*xpath.Path); ok {
				return p, side[1]
			}
		}
	}
	return nil, nil
}

// Evaluator evaluates Core XPath and XPatterns queries over one
// document. It holds nothing else: any number of goroutines may share
// one.
type Evaluator struct{ doc *xmltree.Document }

// New returns an evaluator for the document.
func New(d *xmltree.Document) *Evaluator { return &Evaluator{doc: d} }

// eval is one evaluation: the document and the throttled cancellation
// checkpoint every O(|D|) operation bills (nil never fires). Two words,
// passed by value: a query without predicates allocates nothing for it.
type eval struct {
	doc    *xmltree.Document
	cancel *evalutil.Canceller
}

func (ev *Evaluator) begin(ctx context.Context) eval {
	return eval{doc: ev.doc, cancel: evalutil.NewCanceller(ctx)}
}

// back is the backward kernel judging steps by this evaluation's E1.
func (ev eval) back() evalutil.Backward {
	return evalutil.Backward{Doc: ev.doc, Cancel: ev.cancel, Judge: ev}
}

// Evaluate computes the query for a single context node. The query must
// be in the fragment.
func (ev *Evaluator) Evaluate(e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	return ev.EvaluateContext(context.Background(), e, c)
}

// EvaluateContext is Evaluate with cancellation: every O(|D|) set
// operation and document scan bills a throttled checkpoint, so even a
// maliciously long query over a large document is abandoned with ctx's
// error promptly once ctx is done.
func (ev *Evaluator) EvaluateContext(ctx context.Context, e xpath.Expr, c semantics.Context) (semantics.Value, error) {
	s, err := ev.begin(ctx).forward(e, xmltree.NodeSet{c.Node})
	return semantics.NodeSet(s), err
}

// EvaluateSet computes S→[[π]](N0) for a set of context nodes.
func (ev *Evaluator) EvaluateSet(e xpath.Expr, n0 xmltree.NodeSet) (xmltree.NodeSet, error) {
	return ev.begin(context.Background()).forward(e, n0)
}

// MatchSet computes the nodes matching a pattern in the XSLT-template
// sense — the original home of the XSLT Patterns language: n matches π
// iff some context node selects n via π (for an absolute pattern, the
// root does). One forward pass over all of dom, O(|D|·|Q|).
func (ev *Evaluator) MatchSet(e xpath.Expr) (xmltree.NodeSet, error) {
	return ev.MatchSetContext(context.Background(), e)
}

// MatchSetContext is MatchSet with cancellation.
func (ev *Evaluator) MatchSetContext(ctx context.Context, e xpath.Expr) (xmltree.NodeSet, error) {
	if !InFragment(e) {
		return nil, fmt.Errorf("xpatterns: pattern %s not in the XPatterns fragment", e)
	}
	x := ev.begin(ctx)
	dom, err := x.back().Targets(&xpath.Path{}) // a path without steps ends anywhere
	if err != nil {
		return nil, err
	}
	return x.forward(e, dom)
}

// Matches reports whether one node matches the pattern. For repeated
// tests against the same pattern, compute MatchSet once and use
// Contains.
func (ev *Evaluator) Matches(e xpath.Expr, n xmltree.NodeID) (bool, error) {
	s, err := ev.MatchSet(e)
	return s.Contains(n), err
}

// forward computes S→[[e]](n0).
func (ev eval) forward(e xpath.Expr, n0 xmltree.NodeSet) (xmltree.NodeSet, error) {
	switch x := e.(type) {
	case *xpath.Binary:
		if x.Op != xpath.OpUnion {
			break
		}
		l, err := ev.forward(x.Left, n0)
		if err != nil {
			return nil, err
		}
		r, err := ev.forward(x.Right, n0)
		return l.Union(r), err
	case *xpath.Call:
		return ev.idHead(x, n0)
	case *xpath.Path:
		cur := n0
		if x.Filter != nil {
			head, ok := x.Filter.(*xpath.Call)
			if !ok {
				break
			}
			var err error
			if cur, err = ev.idHead(head, n0); err != nil {
				return nil, err
			}
		} else if x.Absolute {
			cur = xmltree.NodeSet{ev.doc.RootID()}
		}
		for _, step := range x.Steps {
			if len(cur) == 0 {
				break
			}
			if err := ev.cancel.CheckN(ev.doc.Len()); err != nil {
				return nil, err
			}
			// The candidates are a fresh set: the judge filters it in place.
			var err error
			if cur, _, err = ev.JudgeStep(step, evalutil.StepCandidatesSet(ev.doc, step.Axis, step.Test, cur)); err != nil {
				return nil, err
			}
		}
		return cur, nil
	}
	return nil, fmt.Errorf("xpatterns: not an XPatterns query: %s", e)
}

// idHead evaluates an id(…) head forwards: id('c') is the constant's
// referents, id(π) and id(id(…)) apply the id axis to the argument's
// result.
func (ev eval) idHead(c *xpath.Call, n0 xmltree.NodeSet) (xmltree.NodeSet, error) {
	if c.Name != "id" || len(c.Args) != 1 {
		return nil, fmt.Errorf("xpatterns: unsupported path head %s", c)
	}
	if lit, ok := c.Args[0].(*xpath.Literal); ok {
		return ev.doc.DerefIDs(lit.Val), nil
	}
	inner, err := ev.forward(c.Args[0], n0)
	if err != nil {
		return nil, err
	}
	if err := ev.cancel.CheckN(len(inner)); err != nil {
		return nil, err
	}
	return axes.EvalID(ev.doc, inner), nil
}

// ConstantIDs evaluates a context-independent id(…) head for the
// backward kernel: forwards, from no context node at all.
func (ev eval) ConstantIDs(head *xpath.Call) (xmltree.NodeSet, error) {
	return ev.idHead(head, nil)
}

// JudgeStep keeps the members of yt at which every predicate of the step
// holds: yt ∩ E1[[e1]] ∩ … ∩ E1[[em]], in place. The forward pass and
// the backward kernel both judge a step this way.
func (ev eval) JudgeStep(step *xpath.Step, yt xmltree.NodeSet) (xmltree.NodeSet, bool, error) {
	for _, p := range step.Preds {
		x, err := ev.e1(p)
		if err != nil {
			return nil, false, err
		}
		if x.bits != nil {
			yt = x.bits.IntersectSet(yt, yt[:0])
			continue
		}
		keep, j := yt[:0], 0
		for _, y := range yt {
			for j < len(x.set) && x.set[j] < y {
				j++
			}
			if j == len(x.set) {
				break
			}
			if x.set[j] == y {
				keep = append(keep, y)
			}
		}
		yt = keep
	}
	return yt, false, nil
}

// ext is E1[[e]], the nodes at which a predicate holds: sparse (set, a
// sorted slice) while bits is nil, packed otherwise.
type ext struct {
	set  xmltree.NodeSet
	bits *xmltree.Bitset
}

// packed returns the extension as a bitset it may overwrite.
func (ev eval) packed(x ext) *xmltree.Bitset {
	if x.bits == nil {
		x.bits = xmltree.NewBitset(ev.doc.Len())
		x.bits.AddSet(x.set)
	}
	return x.bits
}

// reached wraps what the backward kernel returned.
func (ev eval) reached(reach xmltree.NodeSet, everywhere bool, err error) (ext, error) {
	if everywhere {
		b := xmltree.NewBitset(ev.doc.Len())
		b.Fill()
		return ext{bits: b}, err
	}
	return ext{set: reach}, err
}

// e1 computes E1[[e]].
func (ev eval) e1(e xpath.Expr) (ext, error) {
	if err := ev.cancel.CheckN(ev.doc.Len()); err != nil {
		return ext{}, err
	}
	switch x := e.(type) {
	case *xpath.Binary:
		switch x.Op {
		case xpath.OpAnd, xpath.OpOr:
			l, err := ev.e1(x.Left)
			if err != nil {
				return ext{}, err
			}
			r, err := ev.e1(x.Right)
			if err != nil {
				return ext{}, err
			}
			and := x.Op == xpath.OpAnd
			switch {
			case l.bits != nil || r.bits != nil:
				lb, rb := ev.packed(l), ev.packed(r)
				if and {
					lb.IntersectWith(rb)
				} else {
					lb.UnionWith(rb)
				}
				return ext{bits: lb}, nil
			case and:
				return ext{set: l.set.Intersect(r.set)}, nil
			}
			return ext{set: l.set.Union(r.set)}, nil
		case xpath.OpEq:
			if p, c := eqS(x); p != nil {
				return ev.eqS(p, c)
			}
			return ext{}, fmt.Errorf("xpatterns: comparison %s not in fragment", e)
		}
	case *xpath.Call:
		switch x.Name {
		case "not":
			inner, err := ev.e1(x.Args[0])
			if err != nil {
				return ext{}, err
			}
			b := ev.packed(inner)
			b.Complement()
			return ext{bits: b}, nil
		case "boolean":
			return ev.e1(x.Args[0])
		case "true":
			return ev.reached(nil, true, nil)
		case "false":
			return ext{}, nil
		case "first-of-any", "last-of-any", "first-of-type", "last-of-type":
			s, err := ev.siblingBoundary(strings.HasPrefix(x.Name, "first"), strings.HasSuffix(x.Name, "type"))
			return ext{set: s}, err
		}
	}
	// Anything else is a path, a union of paths (boolean(π1 | π2)) or an
	// id(…) chain, or the kernel refuses it: E1[[π]] = S←[[π]].
	return ev.reached(ev.back().Exists(e))
}

// eqS computes E1[[π = c]]: the nodes from which π reaches a node whose
// string value equals the constant — the "=s" unary predicate of Table
// VI, "computed using string search in the document", searched for
// among the nodes π can end in rather than all of dom. No node carrying
// the constant makes the start set empty and the extension with it; it
// does not make the comparison vanish.
func (ev eval) eqS(p *xpath.Path, c xpath.Expr) (ext, error) {
	back := ev.back()
	targets, err := back.Targets(p)
	if err == nil {
		err = ev.cancel.CheckN(len(targets))
	}
	if err != nil {
		return ext{}, err
	}
	lit, isString := c.(*xpath.Literal)
	var hits xmltree.NodeSet
	for _, y := range targets {
		if s := ev.doc.StringValue(y); isString && s == lit.Val ||
			!isString && semantics.StringToNumber(s) == c.(*xpath.Number).Val {
			hits = append(hits, y)
		}
	}
	return ev.reached(back.Reach(p, hits))
}

// ------------------------------------------------------------------
// XSLT'98 unary predicates (Table VI / Theorem 10.8)
// ------------------------------------------------------------------

// FirstOfAny returns {y ∈ dom | y has no preceding sibling}: the
// first-of-any unary predicate. Attribute and namespace nodes are not
// part of the sibling order here.
func (ev *Evaluator) FirstOfAny() (xmltree.NodeSet, error) {
	return ev.begin(context.Background()).siblingBoundary(true, false)
}

// LastOfAny returns {x ∈ dom | x has no following sibling}.
func (ev *Evaluator) LastOfAny() (xmltree.NodeSet, error) {
	return ev.begin(context.Background()).siblingBoundary(false, false)
}

// FirstOfType returns the first-of-type() predicate of Theorem 10.8:
// elements with no preceding sibling of the same name. Computable in
// O(|D|·|Σ|); this implementation is O(|D|) by scanning sibling lists.
func (ev *Evaluator) FirstOfType() (xmltree.NodeSet, error) {
	return ev.begin(context.Background()).siblingBoundary(true, true)
}

// LastOfType returns elements with no following sibling of the same
// name.
func (ev *Evaluator) LastOfType() (xmltree.NodeSet, error) {
	return ev.begin(context.Background()).siblingBoundary(false, true)
}

// siblingBoundary scans every sibling list once from its first (or
// last) member, considering element children only (the '98 draft's
// patterns address elements), and marks the first element met — per tag
// name with byType. O(|D|) in total, the Theorem 10.8 precomputation,
// billed as one whole-document operation.
func (ev eval) siblingBoundary(first, byType bool) (xmltree.NodeSet, error) {
	if err := ev.cancel.CheckN(ev.doc.Len()); err != nil {
		return nil, err
	}
	var out []xmltree.NodeID
	seen := map[string]bool{}
	for i := 0; i < ev.doc.Len(); i++ {
		kids := ev.doc.Children(xmltree.NodeID(i))
		clear(seen)
		for j := range kids {
			k := kids[j]
			if !first {
				k = kids[len(kids)-1-j]
			}
			if ev.doc.Type(k) != xmltree.Element || seen[ev.doc.Name(k)] {
				continue
			}
			out = append(out, k)
			if !byType {
				break
			}
			seen[ev.doc.Name(k)] = true
		}
	}
	return xmltree.NewNodeSet(out...), nil
}
