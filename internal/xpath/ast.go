// Package xpath provides the XPath 1.0 abstract syntax: a lexer, a
// recursive-descent parser, static expression typing, and the
// normalization into the paper's "unabbreviated form" (Section 5):
// abbreviations (//, @, ., .., bare name tests) are expanded, numeric
// predicates [e] become [position() = e], predicates of non-boolean type
// are wrapped in boolean(·), and variables are substituted by constants
// from the supplied binding.
//
// All evaluation engines in this repository share this AST. The trees
// Parse and Substitute return are numbered — every expression node has a
// slot and records its relevant context (number.go has the contract) —
// and Optimize (optimize.go) keeps that numbering.
package xpath

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/axes"
	"repro/internal/xmltree"
)

// Type is a static XPath 1.0 expression type (Definition 5.1): number,
// node set, string, or boolean.
type Type uint8

// The four XPath expression types.
const (
	TypeNodeSet Type = iota
	TypeNumber
	TypeString
	TypeBoolean
)

// String names the type as in the paper (nset, num, str, bool).
func (t Type) String() string {
	switch t {
	case TypeNodeSet:
		return "nset"
	case TypeNumber:
		return "num"
	case TypeString:
		return "str"
	case TypeBoolean:
		return "bool"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Expr is an XPath expression tree node.
type Expr interface {
	// Type returns the statically known result type. In XPath 1.0 every
	// expression's type is determined by its operator.
	Type() Type
	// String renders the expression in (unabbreviated) XPath syntax.
	String() string
	// info is the node's numbering record (number.go). It also closes
	// the interface: the node types of this package are all there are.
	info() *slotInfo
}

// Number is a numeric literal.
type Number struct {
	slotInfo
	Val float64
}

// Literal is a string literal.
type Literal struct {
	slotInfo
	Val string
}

// VarRef is a variable reference $Name. The paper assumes variables are
// replaced by constants before evaluation (Section 5); Substitute does
// this, and engines reject any VarRef that survives.
type VarRef struct {
	slotInfo
	Name string
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators. Comparison operators are the paper's RelOp; EqOp is
// {=, !=}, GtOp is {<=, <, >=, >}.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpUnion
)

var binOpNames = [...]string{
	OpOr: "or", OpAnd: "and", OpEq: "=", OpNeq: "!=", OpLt: "<",
	OpLe: "<=", OpGt: ">", OpGe: ">=", OpAdd: "+", OpSub: "-",
	OpMul: "*", OpDiv: "div", OpMod: "mod", OpUnion: "|",
}

// String returns the operator's surface syntax.
func (op BinOp) String() string { return binOpNames[op] }

// IsRelOp reports whether the operator is a comparison (RelOp).
func (op BinOp) IsRelOp() bool { return op >= OpEq && op <= OpGe }

// IsArith reports whether the operator is arithmetic (ArithOp).
func (op BinOp) IsArith() bool { return op >= OpAdd && op <= OpMod }

// Binary is a binary operator application.
type Binary struct {
	slotInfo
	Op          BinOp
	Left, Right Expr
}

// Negate is unary minus; per XPath 1.0, -e equals the number negation of
// number(e).
type Negate struct {
	slotInfo
	X Expr
}

// Call is a core-library function call.
type Call struct {
	slotInfo
	Name string
	Args []Expr
}

// NodeTestKind discriminates node tests.
type NodeTestKind uint8

// Node test kinds: a name test (possibly a wildcard), or one of the kind
// tests node(), text(), comment(), processing-instruction([literal]).
const (
	TestName NodeTestKind = iota
	TestNode
	TestText
	TestComment
	TestPI
)

// NodeTest is the t in a location step χ::t (Section 4's τ(n) form).
type NodeTest struct {
	Kind NodeTestKind
	// Name is the tested name for TestName ("*" is the wildcard,
	// "prefix:*" a namespace wildcard) and the optional target for
	// TestPI.
	Name string
}

// Matches implements the node-test function T (Section 4) for a single
// node, given the principal node type of the step's axis.
func (nt NodeTest) Matches(d *xmltree.Document, principal xmltree.NodeType, id xmltree.NodeID) bool {
	ty := d.Type(id)
	switch nt.Kind {
	case TestNode:
		return true
	case TestText:
		return ty == xmltree.Text
	case TestComment:
		return ty == xmltree.Comment
	case TestPI:
		return ty == xmltree.ProcInst && (nt.Name == "" || d.Name(id) == nt.Name)
	case TestName:
		if ty != principal {
			return false
		}
		if nt.Name == "*" {
			return true
		}
		if strings.HasSuffix(nt.Name, ":*") {
			return strings.HasPrefix(d.Name(id), nt.Name[:len(nt.Name)-1])
		}
		return d.Name(id) == nt.Name
	default:
		return false
	}
}

// String renders the node test.
func (nt NodeTest) String() string {
	switch nt.Kind {
	case TestNode:
		return "node()"
	case TestText:
		return "text()"
	case TestComment:
		return "comment()"
	case TestPI:
		if nt.Name != "" {
			return fmt.Sprintf("processing-instruction(%q)", nt.Name)
		}
		return "processing-instruction()"
	default:
		return nt.Name
	}
}

// Step is one location step χ::t[e1]…[em].
type Step struct {
	Axis  axes.Axis
	Test  NodeTest
	Preds []Expr
}

// String renders the step in unabbreviated syntax.
func (s *Step) String() string {
	var b strings.Builder
	b.WriteString(s.Axis.String())
	b.WriteString("::")
	b.WriteString(s.Test.String())
	for _, p := range s.Preds {
		b.WriteString("[")
		b.WriteString(p.String())
		b.WriteString("]")
	}
	return b.String()
}

// Path is a location path. If Absolute, evaluation starts at the root.
// If Filter is non-nil the path is a filtered-expression path such as
// id('x')/child::a or (π)[1]/child::b, whose leading expression must be
// of type nset.
type Path struct {
	slotInfo
	Absolute bool
	Filter   Expr // optional filter-expression head
	Steps    []*Step
}

// FilterExpr is a primary expression with predicates, e.g. (π)[1] or
// id('x')[2]. It only arises with a non-empty predicate list; a bare
// primary parses to itself.
type FilterExpr struct {
	slotInfo
	Primary Expr
	Preds   []Expr
}

// Type implementations (static XPath 1.0 typing).

func (*Number) Type() Type     { return TypeNumber }
func (*Literal) Type() Type    { return TypeString }
func (*Path) Type() Type       { return TypeNodeSet }
func (*FilterExpr) Type() Type { return TypeNodeSet }
func (*Negate) Type() Type     { return TypeNumber }

// Type of a variable is unknown until substitution; parsing rejects
// evaluation of VarRef, but for typing purposes treat it as nset (the
// most permissive choice for normalization).
func (*VarRef) Type() Type { return TypeNodeSet }

// Type returns the operator's result type: or/and and comparisons yield
// booleans, arithmetic yields numbers, union yields node sets.
func (b *Binary) Type() Type {
	switch {
	case b.Op == OpOr || b.Op == OpAnd || b.Op.IsRelOp():
		return TypeBoolean
	case b.Op.IsArith():
		return TypeNumber
	default:
		return TypeNodeSet
	}
}

// Type looks up the function's declared return type.
func (c *Call) Type() Type {
	if sig, ok := coreFunctions[c.Name]; ok {
		return sig.Result
	}
	return TypeString
}

// String renderings.

func (n *Number) String() string {
	return strconv.FormatFloat(n.Val, 'f', -1, 64)
}

func (l *Literal) String() string {
	if strings.Contains(l.Val, "'") {
		return `"` + l.Val + `"`
	}
	return "'" + l.Val + "'"
}

func (v *VarRef) String() string { return "$" + v.Name }

func (n *Negate) String() string { return "-" + n.X.String() }

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Left, b.Op, b.Right)
}

func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return c.Name + "(" + strings.Join(args, ", ") + ")"
}

func (p *Path) String() string {
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		parts[i] = s.String()
	}
	body := strings.Join(parts, "/")
	switch {
	case p.Filter != nil && body != "":
		return p.Filter.String() + "/" + body
	case p.Filter != nil:
		return p.Filter.String()
	case p.Absolute:
		return "/" + body
	default:
		return body
	}
}

func (f *FilterExpr) String() string {
	var b strings.Builder
	b.WriteString("(")
	b.WriteString(f.Primary.String())
	b.WriteString(")")
	for _, p := range f.Preds {
		b.WriteString("[")
		b.WriteString(p.String())
		b.WriteString("]")
	}
	return b.String()
}
