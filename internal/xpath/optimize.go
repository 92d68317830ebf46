package xpath

import "repro/internal/axes"

// Optimize rewrites a normalized, variable-free expression into an
// equivalent one that is cheaper for every set-at-a-time engine, from
// the query's structure alone. Parse keeps returning the paper's literal
// normal form (Section 5); this pass runs after it, once per compiled
// query, and never needs a document.
//
// The normal form spells // as /descendant-or-self::node()/, so //t
// first materializes every node of the document and then asks each for
// its t children. Two rules, applied to every location path of the
// expression — the outermost one, predicates, filter-expression heads
// and function arguments alike:
//
// Step fusion. A step descendant-or-self::node() without predicates,
// followed by a step on the child, descendant or descendant-or-self
// axis, composes with it into a single step (descendant-or-self ∘ child
// = descendant, ∘ descendant = descendant, ∘ descendant-or-self =
// descendant-or-self):
//
//	descendant-or-self::node()/child::t[p…]              ⇒ descendant::t[p…]
//	descendant-or-self::node()/descendant::t[p…]         ⇒ descendant::t[p…]
//	descendant-or-self::node()/descendant-or-self::t[p…] ⇒ descendant-or-self::t[p…]
//
// Side condition: no p reads the context position or size, Relev(p) ∩
// {cp, cs} = ∅ (RelevantContext). A predicate of the second step ranks
// its candidates among the children of one node; after fusion it would
// rank them among all descendants. That is the counter-example of the
// W3C recommendation, §2.5: //para[1] selects every para that is the
// first para child of its parent, /descendant::para[1] only the first
// para of the document. A positional predicate nested inside p — the
// [1] of //a[b[1]] — is evaluated in contexts p itself creates and does
// not block; a positional p blocks the fusion of its step, all its
// predicates included (//a[b][2]). The first step must be bare: in
// descendant-or-self::node()[p]/child::t the predicate filters the
// intermediate nodes, which a fused step no longer has. The attribute
// and namespace axes have no descendant counterpart, so //@a stays.
//
// Attribute and namespace context nodes are no exception: they are
// their own descendant-or-self and have neither children nor
// descendants, so both sides select nothing below them.
//
// Self elimination. self::node() without predicates is the identity on
// node sets — attribute and namespace nodes included — and drops out,
// so .//t fuses like //t and a/./b is a/b. A path keeps one such step
// when it has nothing else to say (".", a relative path needs a step);
// a filter-expression head left without steps is the head itself.
//
// Optimize is idempotent, shares every subtree it does not change with
// its argument and allocates nothing when no rule applies. The result
// keeps the argument's numbering (number.go): a node built here takes
// over the slot and Relev of the one it rewrites.
func Optimize(e Expr) Expr {
	switch x := e.(type) {
	case *Negate:
		if inner := Optimize(x.X); inner != x.X {
			return &Negate{slotInfo: x.slotInfo, X: inner}
		}
	case *Binary:
		l, r := Optimize(x.Left), Optimize(x.Right)
		if l != x.Left || r != x.Right {
			return &Binary{slotInfo: x.slotInfo, Op: x.Op, Left: l, Right: r}
		}
	case *Call:
		if args, changed := optimizeAll(x.Args); changed {
			return &Call{slotInfo: x.slotInfo, Name: x.Name, Args: args}
		}
	case *FilterExpr:
		prim := Optimize(x.Primary)
		preds, changed := optimizeAll(x.Preds)
		if changed || prim != x.Primary {
			return &FilterExpr{slotInfo: x.slotInfo, Primary: prim, Preds: preds}
		}
	case *Path:
		return optimizePath(x)
	}
	return e
}

// optimizeAll optimizes a list of expressions, returning the list
// itself when nothing changed.
func optimizeAll(es []Expr) ([]Expr, bool) {
	var out []Expr
	for i, e := range es {
		o := Optimize(e)
		if o != e && out == nil {
			out = append(make([]Expr, 0, len(es)), es[:i]...)
		}
		if out != nil {
			out = append(out, o)
		}
	}
	if out == nil {
		return es, false
	}
	return out, true
}

func optimizePath(p *Path) Expr {
	if len(p.Steps) == 1 && p.Filter == nil && !p.Absolute && p.Steps[0].IsBare(axes.Self) {
		return p // "." has nothing to drop
	}
	filter := p.Filter
	if filter != nil {
		filter = Optimize(filter)
	}
	// steps stays nil while the rewritten list equals p.Steps[:i].
	var steps []*Step
	rewriteFrom := func(i int) {
		if steps == nil {
			steps = append(make([]*Step, 0, len(p.Steps)), p.Steps[:i]...)
		}
	}
	for i, s := range p.Steps {
		if preds, changed := optimizeAll(s.Preds); changed {
			rewriteFrom(i)
			s = &Step{Axis: s.Axis, Test: s.Test, Preds: preds}
		}
		if s.IsBare(axes.Self) {
			rewriteFrom(i)
			continue
		}
		prev := steps
		if prev == nil {
			prev = p.Steps[:i]
		}
		if n := len(prev); n > 0 && prev[n-1].IsBare(axes.DescendantOrSelf) {
			if fused := fuseAfterDescendantOrSelf(s); fused != nil {
				rewriteFrom(i)
				steps[n-1] = fused
				continue
			}
		}
		if steps != nil {
			steps = append(steps, s)
		}
	}
	if steps == nil {
		if filter == p.Filter {
			return p
		}
		steps = p.Steps
	}
	if len(steps) == 0 {
		switch {
		case filter != nil:
			return filter
		case !p.Absolute:
			// Only self::node() steps: a relative path needs one.
			steps = append(steps, &Step{Axis: axes.Self, Test: NodeTest{Kind: TestNode}})
		}
	}
	return &Path{slotInfo: p.slotInfo, Absolute: p.Absolute, Filter: filter, Steps: steps}
}

// Positional reports whether a predicate of the step reads the context
// position or size, so that the step's candidates have to be ranked per
// previous context node instead of filtered as one set.
func (s *Step) Positional() bool {
	for _, p := range s.Preds {
		if RelevantContext(p)&(RelevPos|RelevSize) != 0 {
			return true
		}
	}
	return false
}

// IsBare reports whether the step is a::node() without predicates: a
// plain axis application, which is what the // and . abbreviations
// expand to on the descendant-or-self and self axes.
func (s *Step) IsBare(a axes.Axis) bool {
	return s.Axis == a && s.Test.Kind == TestNode && len(s.Preds) == 0
}

// fuseAfterDescendantOrSelf returns the single step equivalent to
// descendant-or-self::node()/s, or nil when the two do not compose: s
// is on another axis, or one of its predicates reads cp or cs.
func fuseAfterDescendantOrSelf(s *Step) *Step {
	axis := axes.Descendant
	switch s.Axis {
	case axes.Child, axes.Descendant:
	case axes.DescendantOrSelf:
		axis = axes.DescendantOrSelf
	default:
		return nil
	}
	if s.Positional() {
		return nil
	}
	if axis == s.Axis {
		return s
	}
	return &Step{Axis: axis, Test: s.Test, Preds: s.Preds}
}
