package xpath

import "fmt"

// Bindings supplies constant values for variables. Values must be
// *Number, *Literal, or a caller-constructed constant Expr of the right
// type.
type Bindings map[string]Expr

// Substitute replaces every VarRef in e by its binding, per the paper's
// assumption that "each variable is replaced by the (constant) value of
// the input variable binding" (Section 5). The copy it makes is in
// normal form, built as the parser builds it: a predicate whose type was
// unknown while it held a variable (e.g. [$w] with a numeric binding)
// gets its positional or boolean form now. It errors on unbound
// variables.
func Substitute(e Expr, b Bindings) (Expr, error) {
	sub, err := substitute(e, b)
	if err != nil {
		return nil, err
	}
	return number(sub), nil
}

// substitute shares no node with e or the bindings — the result is
// numbered in place, and they may be numbered already or bound again.
func substitute(e Expr, b Bindings) (Expr, error) {
	switch x := e.(type) {
	case *Number:
		return &Number{Val: x.Val}, nil
	case *Literal:
		return &Literal{Val: x.Val}, nil
	case *VarRef:
		v, ok := b[x.Name]
		if !ok {
			return nil, fmt.Errorf("xpath: unbound variable $%s", x.Name)
		}
		return substitute(v, nil)
	case *Negate:
		sub, err := substitute(x.X, b)
		if err != nil {
			return nil, err
		}
		return &Negate{X: sub}, nil
	case *Binary:
		l, err := substitute(x.Left, b)
		if err != nil {
			return nil, err
		}
		r, err := substitute(x.Right, b)
		if err != nil {
			return nil, err
		}
		if x.Op == OpAnd || x.Op == OpOr {
			l, r = ensureBoolean(l), ensureBoolean(r)
		}
		return &Binary{Op: x.Op, Left: l, Right: r}, nil
	case *Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			sub, err := substitute(a, b)
			if err != nil {
				return nil, err
			}
			args[i] = sub
		}
		if x.Name == "not" && len(args) == 1 {
			args[0] = ensureBoolean(args[0])
		}
		return &Call{Name: x.Name, Args: args}, nil
	case *FilterExpr:
		prim, err := substitute(x.Primary, b)
		if err != nil {
			return nil, err
		}
		preds, err := substitutePreds(x.Preds, b)
		if err != nil {
			return nil, err
		}
		return &FilterExpr{Primary: prim, Preds: preds}, nil
	case *Path:
		out := &Path{Absolute: x.Absolute}
		if x.Filter != nil {
			f, err := substitute(x.Filter, b)
			if err != nil {
				return nil, err
			}
			out.Filter = f
		}
		out.Steps = make([]*Step, len(x.Steps))
		for i, s := range x.Steps {
			preds, err := substitutePreds(s.Preds, b)
			if err != nil {
				return nil, err
			}
			out.Steps[i] = &Step{Axis: s.Axis, Test: s.Test, Preds: preds}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("xpath: substitute: unknown node %T", e)
	}
}

func substitutePreds(preds []Expr, b Bindings) ([]Expr, error) {
	out := make([]Expr, len(preds))
	for i, p := range preds {
		sub, err := substitute(p, b)
		if err != nil {
			return nil, err
		}
		out[i] = predicate(sub)
	}
	return out, nil
}

// HasVariables reports whether the expression still contains a VarRef:
// on a numbered tree a field read (number records it), on any other a
// walk.
func HasVariables(e Expr) bool {
	if in := e.info(); in.nb != nil {
		return in.vars
	}
	found := false
	Walk(e, func(x Expr) {
		if _, ok := x.(*VarRef); ok {
			found = true
		}
	})
	return found
}

// Walk applies f to e and every subexpression of e in pre-order,
// including step predicates.
func Walk(e Expr, f func(Expr)) { walk(e, f, func(Expr) {}) }

// walk applies pre to e, walks its subexpressions, then applies post.
func walk(e Expr, pre, post func(Expr)) {
	if e == nil {
		return
	}
	pre(e)
	var few [4]Expr
	for _, o := range Operands(e, few[:0]) {
		walk(o, pre, post)
	}
	switch x := e.(type) {
	case *FilterExpr:
		walk(x.Primary, pre, post)
		for _, p := range x.Preds {
			walk(p, pre, post)
		}
	case *Path:
		walk(x.Filter, pre, post)
		for _, s := range x.Steps {
			for _, p := range s.Preds {
				walk(p, pre, post)
			}
		}
	}
	post(e)
}
