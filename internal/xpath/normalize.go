package xpath

import "fmt"

// normalize rewrites a freshly parsed tree into the unabbreviated normal
// form the paper's semantics assumes (Section 5):
//
//   - a predicate [e] whose static type is number becomes
//     [position() = e];
//   - a predicate of type node set or string is wrapped in boolean(·), so
//     every predicate has boolean type;
//   - the rewriting recurses into all subexpressions.
//
// Abbreviation expansion (//, @, ., ..) already happened in the parser.
func normalize(e Expr) Expr {
	switch x := e.(type) {
	case *Number, *Literal, *VarRef:
		return e
	case *Negate:
		return &Negate{X: normalize(x.X)}
	case *Binary:
		l, r := normalize(x.Left), normalize(x.Right)
		if x.Op == OpAnd || x.Op == OpOr {
			// Make the boolean conversion of and/or operands explicit,
			// per Section 5 ("all type conversions have to be made
			// explicit").
			l, r = ensureBoolean(l), ensureBoolean(r)
		}
		return &Binary{Op: x.Op, Left: l, Right: r}
	case *Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = normalize(a)
		}
		if x.Name == "not" {
			args[0] = ensureBoolean(args[0])
		}
		return &Call{Name: x.Name, Args: args}
	case *FilterExpr:
		return &FilterExpr{
			Primary: normalize(x.Primary),
			Preds:   normalizePreds(x.Preds),
		}
	case *Path:
		out := &Path{Absolute: x.Absolute}
		if x.Filter != nil {
			out.Filter = normalize(x.Filter)
		}
		out.Steps = make([]*Step, len(x.Steps))
		for i, s := range x.Steps {
			out.Steps[i] = &Step{Axis: s.Axis, Test: s.Test, Preds: normalizePreds(s.Preds)}
		}
		return out
	default:
		panic(fmt.Sprintf("xpath: normalize: unknown node %T", e))
	}
}

// ensureBoolean wraps a non-boolean expression in boolean(·).
func ensureBoolean(e Expr) Expr {
	if e.Type() == TypeBoolean {
		return e
	}
	return &Call{Name: "boolean", Args: []Expr{e}}
}

func normalizePreds(preds []Expr) []Expr {
	out := make([]Expr, len(preds))
	for i, p := range preds {
		p = normalize(p)
		if HasVariables(p) {
			// The predicate's type is unknown until the variables are
			// substituted; Substitute re-normalizes afterwards.
			out[i] = p
			continue
		}
		switch p.Type() {
		case TypeNumber:
			// [e] ⇒ [position() = e]
			p = &Binary{Op: OpEq, Left: &Call{Name: "position"}, Right: p}
		case TypeNodeSet, TypeString:
			// [e] ⇒ [boolean(e)]
			p = &Call{Name: "boolean", Args: []Expr{p}}
		}
		out[i] = p
	}
	return out
}

// Bindings supplies constant values for variables. Values must be
// *Number, *Literal, or a caller-constructed constant Expr of the right
// type.
type Bindings map[string]Expr

// Substitute replaces every VarRef in e by its binding, per the paper's
// assumption that "each variable is replaced by the (constant) value of
// the input variable binding" (Section 5), and then re-normalizes: a
// predicate whose type was unknown while it contained variables (e.g.
// [$w] with a numeric binding) gets its positional/boolean rewriting
// now. It errors on unbound variables.
func Substitute(e Expr, b Bindings) (Expr, error) {
	sub, err := substitute(e, b)
	if err != nil {
		return nil, err
	}
	return number(normalize(sub)), nil
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
		out[i] = sub
	}
	return out, nil
}

// HasVariables reports whether the expression still contains a VarRef.
func HasVariables(e Expr) bool {
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
	switch x := e.(type) {
	case *Negate:
		walk(x.X, pre, post)
	case *Binary:
		walk(x.Left, pre, post)
		walk(x.Right, pre, post)
	case *Call:
		for _, a := range x.Args {
			walk(a, pre, post)
		}
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
