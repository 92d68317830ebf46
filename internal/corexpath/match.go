package corexpath

import (
	"context"
	"fmt"

	"repro/internal/evalutil"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// MatchSet computes the set of nodes that *match* a Core XPath pattern
// in the XSLT sense: node n matches π iff n is selected by π from some
// context node (for absolute patterns, from the root). This is the
// match semantics of XSLT templates — the original home of the XSLT
// Patterns language of Section 10.2 — and it runs in O(|D|·|Q|) by one
// forward pass of the set algebra over all of dom.
func (ev *Evaluator) MatchSet(e xpath.Expr) (xmltree.NodeSet, error) {
	return ev.MatchSetContext(context.Background(), e)
}

// MatchSetContext is MatchSet with cancellation: the dom construction
// and every set-algebra operation bill the throttled checkpoint, so a
// match over a large document abandons promptly with ctx's error once
// ctx is done.
func (ev *Evaluator) MatchSetContext(ctx context.Context, e xpath.Expr) (xmltree.NodeSet, error) {
	if !InFragment(e) {
		return nil, fmt.Errorf("corexpath: pattern %s not in the Core XPath fragment", e)
	}
	ev.cancel = evalutil.NewCanceller(ctx)
	if err := ev.checkpoint(); err != nil {
		return nil, err
	}
	dom := make(xmltree.NodeSet, ev.doc.Len())
	for i := range dom {
		dom[i] = xmltree.NodeID(i)
	}
	return ev.EvaluateSet(e, dom)
}

// Matches reports whether one node matches the pattern. For repeated
// tests against the same pattern, compute MatchSet once and use
// Contains.
func (ev *Evaluator) Matches(e xpath.Expr, n xmltree.NodeID) (bool, error) {
	s, err := ev.MatchSet(e)
	if err != nil {
		return false, err
	}
	return s.Contains(n), nil
}

// MatchesContext is Matches with cancellation.
func (ev *Evaluator) MatchesContext(ctx context.Context, e xpath.Expr, n xmltree.NodeID) (bool, error) {
	s, err := ev.MatchSetContext(ctx, e)
	if err != nil {
		return false, err
	}
	return s.Contains(n), nil
}
