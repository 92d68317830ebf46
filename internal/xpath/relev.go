package xpath

// Relev is the "relevant context" of an expression node (Section 8.2): a
// subset of {cn, cp, cs} saying which of context node, context position
// and context size can influence the expression's value.
type Relev uint8

// Relevant-context components.
const (
	RelevNode Relev = 1 << iota // 'cn'
	RelevPos                    // 'cp'
	RelevSize                   // 'cs'
)

// Has reports whether all components of m are present.
func (r Relev) Has(m Relev) bool { return r&m == m }

// String renders the set like the paper, e.g. "{cn,cp}".
func (r Relev) String() string {
	s := "{"
	if r.Has(RelevNode) {
		s += "cn"
	}
	if r.Has(RelevPos) {
		if len(s) > 1 {
			s += ","
		}
		s += "cp"
	}
	if r.Has(RelevSize) {
		if len(s) > 1 {
			s += ","
		}
		s += "cs"
	}
	return s + "}"
}

// RelevantContext computes Relev(N) by the bottom-up rules of Section
// 8.2:
//
//   - constants and true()/false(): ∅;
//   - position(): {cp}; last(): {cs};
//   - location steps, and parameterless core functions that refer to the
//     context node (string(), number(), …): {cn};
//   - location paths: {cn} if relative, ∅ if absolute (an absolute path
//     ignores its context entirely); a filter-expression head contributes
//     its own relevant context;
//   - all other compound expressions: the union over their children.
//
// Note that predicates inside a location step do NOT propagate upward:
// the step evaluates them in fresh contexts, so a step's relevant
// context is always {cn} (or ∅ under an absolute path).
//
// The computation is O(|Q|) and depends only on the query (Section
// 8.2), so the numbering pass (number.go) runs it once and records the
// result in the node: for a node of a numbered tree this is a field
// read.
func RelevantContext(e Expr) Relev {
	if in := e.info(); in.nb != nil {
		return in.relev
	}
	switch x := e.(type) {
	case *Number, *Literal:
		return 0
	case *Negate:
		return RelevantContext(x.X)
	case *Binary:
		return RelevantContext(x.Left) | RelevantContext(x.Right)
	case *Call:
		switch x.Name {
		case "position":
			return RelevPos
		case "last":
			return RelevSize
		case "true", "false":
			return 0
		case "string", "number", "string-length", "normalize-space",
			"local-name", "namespace-uri", "name":
			if len(x.Args) == 0 {
				return RelevNode // defaults to the context node
			}
		case "first-of-type", "last-of-type", "first-of-any", "last-of-any":
			// XSLT'98 unary predicates inspect the context node's
			// siblings.
			return RelevNode
		case "lang":
			// lang() inspects the context node's ancestors in addition
			// to its argument.
			r := RelevNode
			for _, a := range x.Args {
				r |= RelevantContext(a)
			}
			return r
		}
		var r Relev
		for _, a := range x.Args {
			r |= RelevantContext(a)
		}
		return r
	case *FilterExpr:
		return RelevantContext(x.Primary)
	case *Path:
		if x.Filter != nil {
			return RelevantContext(x.Filter)
		}
		if x.Absolute {
			return 0
		}
		return RelevNode
	default:
		return RelevNode | RelevPos | RelevSize // conservative
	}
}
