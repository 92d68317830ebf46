package xpath

import (
	"fmt"
	"strings"
)

// TreeString renders the expression's parse tree, one node per line with
// indentation, annotated with each node's static type and relevant
// context — the kind of display the paper uses in Figures 10 and 13 and
// Example 8.2. Location steps are shown as children of their path.
func TreeString(e Expr) string {
	var b strings.Builder
	writeTree(&b, e, 0)
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func writeTree(b *strings.Builder, e Expr, depth int) {
	indent(b, depth)
	switch x := e.(type) {
	case *Number:
		fmt.Fprintf(b, "number %s", x)
	case *Literal:
		fmt.Fprintf(b, "literal %s", x)
	case *Negate:
		fmt.Fprintf(b, "negate")
	case *Binary:
		fmt.Fprintf(b, "op %q", x.Op.String())
	case *Call:
		fmt.Fprintf(b, "call %s()", x.Name)
	case *FilterExpr:
		fmt.Fprintf(b, "filter")
	case *Path:
		if x.Absolute {
			fmt.Fprintf(b, "path (absolute)")
		} else {
			fmt.Fprintf(b, "path")
		}
	default:
		fmt.Fprintf(b, "%T", e)
	}
	fmt.Fprintf(b, "   : %s  Relev=%s\n", e.Type(), RelevantContext(e))
	for _, o := range Operands(e, nil) {
		writeTree(b, o, depth+1)
	}
	switch x := e.(type) {
	case *FilterExpr:
		writeTree(b, x.Primary, depth+1)
		for _, p := range x.Preds {
			indent(b, depth+1)
			b.WriteString("predicate\n")
			writeTree(b, p, depth+2)
		}
	case *Path:
		if x.Filter != nil {
			indent(b, depth+1)
			b.WriteString("head\n")
			writeTree(b, x.Filter, depth+2)
		}
		for _, s := range x.Steps {
			indent(b, depth+1)
			fmt.Fprintf(b, "step %s::%s  Relev={cn}\n", s.Axis, s.Test)
			for _, p := range s.Preds {
				indent(b, depth+2)
				b.WriteString("predicate\n")
				writeTree(b, p, depth+3)
			}
		}
	}
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
