// Package semantics implements the effective semantics functions F[[Op]]
// of Table II: the XPath 1.0 value domain (number, string, boolean, node
// set), the type-conversion functions string/number/boolean, the
// comparison operators with their type-directed dispatch, arithmetic, and
// the complete core function library. Eval is F[[e]] of every non-path
// expression, given its operands' values, and all five interpreters
// (naive, bottomup and its pair evaluator, topdown, mincontext) call it
// for everything but location paths and filter expressions, so the
// engines differ only in *how often* and *in which order* they evaluate
// subexpressions — which is exactly the paper's subject.
package semantics

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Value is an XPath 1.0 value: exactly one of the four types is active,
// indicated by Kind.
type Value struct {
	Kind xpath.Type
	Num  float64
	Str  string
	Bool bool
	Set  xmltree.NodeSet
}

// Number wraps a float64.
func Number(v float64) Value { return Value{Kind: xpath.TypeNumber, Num: v} }

// String wraps a string.
func String(s string) Value { return Value{Kind: xpath.TypeString, Str: s} }

// Boolean wraps a bool.
func Boolean(b bool) Value { return Value{Kind: xpath.TypeBoolean, Bool: b} }

// NodeSet wraps a node set.
func NodeSet(s xmltree.NodeSet) Value { return Value{Kind: xpath.TypeNodeSet, Set: s} }

// Equal reports deep value equality (not the XPath = operator; see
// Compare). Useful in tests and memo tables.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case xpath.TypeNumber:
		return v.Num == w.Num || math.IsNaN(v.Num) && math.IsNaN(w.Num)
	case xpath.TypeString:
		return v.Str == w.Str
	case xpath.TypeBoolean:
		return v.Bool == w.Bool
	default:
		return v.Set.Equal(w.Set)
	}
}

// NumberToString converts a number to its XPath string form
// (to_string of Section 4): integers print without a decimal point,
// NaN prints "NaN", infinities print "Infinity"/"-Infinity".
func NumberToString(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "Infinity"
	case math.IsInf(v, -1):
		return "-Infinity"
	case v == 0:
		return "0" // covers -0
	default:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
}

// StringToNumber converts a string to a number (to_number of Section 4
// and XPath 1.0 §4.4): xmltree.ParseNumber, the one number rule of the
// codebase — the label index's value columns parse with it too.
func StringToNumber(s string) float64 { return xmltree.ParseNumber(s) }

// ToString implements F[[string]] for all four argument types. The
// document is needed for node sets (string value of the first node in
// document order).
func ToString(d *xmltree.Document, v Value) string {
	switch v.Kind {
	case xpath.TypeString:
		return v.Str
	case xpath.TypeNumber:
		return NumberToString(v.Num)
	case xpath.TypeBoolean:
		if v.Bool {
			return "true"
		}
		return "false"
	default:
		if v.Set.IsEmpty() {
			return ""
		}
		return d.StringValue(v.Set.First())
	}
}

// ToNumber implements F[[number]] for all four argument types.
func ToNumber(d *xmltree.Document, v Value) float64 {
	switch v.Kind {
	case xpath.TypeNumber:
		return v.Num
	case xpath.TypeString:
		return StringToNumber(v.Str)
	case xpath.TypeBoolean:
		if v.Bool {
			return 1
		}
		return 0
	default:
		return StringToNumber(ToString(d, v))
	}
}

// ToBoolean implements F[[boolean]] for all four argument types.
func ToBoolean(v Value) bool {
	switch v.Kind {
	case xpath.TypeBoolean:
		return v.Bool
	case xpath.TypeNumber:
		return v.Num != 0 && !math.IsNaN(v.Num)
	case xpath.TypeString:
		return v.Str != ""
	default:
		return !v.Set.IsEmpty()
	}
}

// Arith implements F[[ArithOp]]: +, -, *, div, mod on numbers. Operands
// are converted with ToNumber by the caller. div is IEEE division; mod
// takes the sign of the dividend (math.Mod), matching XPath 1.0.
func Arith(op xpath.BinOp, a, b float64) float64 {
	switch op {
	case xpath.OpAdd:
		return a + b
	case xpath.OpSub:
		return a - b
	case xpath.OpMul:
		return a * b
	case xpath.OpDiv:
		return a / b
	case xpath.OpMod:
		return mod(a, b)
	default:
		panic("semantics: not an arithmetic operator: " + op.String())
	}
}

// mod is math.Mod(a, b) bit for bit; integers below 2⁵³, as in [position()
// mod 2 = 0], skip its frexp loop for the machine remainder, which has the
// dividend's sign too, a zero remainder of a negative dividend made −0.
func mod(a, b float64) float64 {
	const exact = 1 << 53
	if math.Abs(a) < exact && math.Abs(b) < exact {
		ia, ib := int64(a), int64(b)
		if float64(ia) == a && float64(ib) == b && ib != 0 {
			if r := ia % ib; r != 0 || !math.Signbit(a) {
				return float64(r)
			}
			return math.Copysign(0, -1)
		}
	}
	return math.Mod(a, b)
}

// CompareNumbers is F[[RelOp: num×num]], where Compare ends up.
func CompareNumbers(op xpath.BinOp, a, b float64) bool {
	switch op {
	case xpath.OpEq:
		return a == b
	case xpath.OpNeq:
		return a != b
	case xpath.OpLt:
		return a < b
	case xpath.OpLe:
		return a <= b
	case xpath.OpGt:
		return a > b
	case xpath.OpGe:
		return a >= b
	default:
		panic("semantics: not a RelOp: " + op.String())
	}
}

func cmpStr(op xpath.BinOp, a, b string) bool {
	switch op {
	case xpath.OpEq:
		return a == b
	case xpath.OpNeq:
		return a != b
	default:
		// GtOp on strings compares their numeric values (XPath 1.0
		// §3.4; Table II routes GtOp through F[[number]]).
		return CompareNumbers(op, StringToNumber(a), StringToNumber(b))
	}
}

// Flip mirrors a comparison operator so that Compare can normalize
// "scalar RelOp nset" to "nset flipped(RelOp) scalar".
func Flip(op xpath.BinOp) xpath.BinOp {
	switch op {
	case xpath.OpLt:
		return xpath.OpGt
	case xpath.OpLe:
		return xpath.OpGe
	case xpath.OpGt:
		return xpath.OpLt
	case xpath.OpGe:
		return xpath.OpLe
	default:
		return op // = and != are symmetric
	}
}

// Compare implements the RelOp rows of Table II, covering every pairing
// of the four types with the existential semantics on node sets:
//
//	F[[RelOp: nset×nset]](S1,S2) = ∃n1∈S1, n2∈S2: strval(n1) RelOp strval(n2)
//	F[[RelOp: nset×num ]](S,v)   = ∃n∈S: to_number(strval(n)) RelOp v
//	F[[RelOp: nset×str ]](S,s)   = ∃n∈S: strval(n) RelOp s
//	F[[RelOp: nset×bool]](S,b)   = boolean(S) RelOp b
//	F[[EqOp:  bool×any ]](b,x)   = b EqOp boolean(x)
//	F[[EqOp:  num×(str∪num)]](v,x) = v EqOp number(x)
//	F[[EqOp:  str×str  ]](s1,s2) = s1 EqOp s2
//	F[[GtOp:  scalar×scalar]](x1,x2) = number(x1) GtOp number(x2)
func Compare(d *xmltree.Document, op xpath.BinOp, v1, v2 Value) bool {
	if !op.IsRelOp() {
		panic("semantics: Compare on non-RelOp " + op.String())
	}
	n1, n2 := v1.Kind == xpath.TypeNodeSet, v2.Kind == xpath.TypeNodeSet
	switch {
	case n1 && v2.Kind == xpath.TypeBoolean:
		return cmpBool(op, ToBoolean(v1), v2.Bool)
	case n1:
		// Existential over the set on string values; nset × nset is the
		// most costly operator of Theorem 6.6.
		for _, a := range v1.Set {
			if CompareStrval(d, op, d.StringValue(a), v2) {
				return true
			}
		}
		return false
	case n2:
		return Compare(d, Flip(op), v2, v1)
	}
	// Scalar × scalar.
	if op == xpath.OpEq || op == xpath.OpNeq {
		switch {
		case v1.Kind == xpath.TypeBoolean || v2.Kind == xpath.TypeBoolean:
			return cmpBool(op, ToBoolean(v1), ToBoolean(v2))
		case v1.Kind == xpath.TypeNumber || v2.Kind == xpath.TypeNumber:
			return CompareNumbers(op, ToNumber(d, v1), ToNumber(d, v2))
		default:
			return cmpStr(op, v1.Str, v2.Str)
		}
	}
	return CompareNumbers(op, ToNumber(d, v1), ToNumber(d, v2))
}

// CompareStrval is F[[RelOp]]({n}, v) for a node n whose string-value is
// s: Compare of a one-node set, with no set built. GtOp on two strings
// compares their numbers (cmpStr). §10.2's "=s" is decided here, small
// enough to be inlined into a loop over candidates; the rest costs a
// call.
func CompareStrval(d *xmltree.Document, op xpath.BinOp, s string, v Value) bool {
	if v.Kind == xpath.TypeString && op == xpath.OpEq {
		return s == v.Str
	}
	return compareStrval(d, op, s, v)
}

func compareStrval(d *xmltree.Document, op xpath.BinOp, s string, v Value) bool {
	switch v.Kind {
	case xpath.TypeNumber:
		return CompareNumbers(op, StringToNumber(s), v.Num)
	case xpath.TypeString:
		return cmpStr(op, s, v.Str)
	case xpath.TypeBoolean:
		return cmpBool(op, true, v.Bool)
	}
	for _, b := range v.Set {
		if cmpStr(op, s, d.StringValue(b)) {
			return true
		}
	}
	return false
}

// apply is F[[Op]] of Table II for a binary operator — and, or, RelOp,
// ArithOp and | — on its operands' values. A union is built in the
// engine's arena ar (nil: the heap). and/or take both values; an engine
// that short-circuits decides before it evaluates the right operand.
func apply(d *xmltree.Document, ar *xmltree.Arena, op xpath.BinOp, l, r Value) (Value, error) {
	switch {
	case op == xpath.OpAnd:
		return Boolean(ToBoolean(l) && ToBoolean(r)), nil
	case op == xpath.OpOr:
		return Boolean(ToBoolean(l) || ToBoolean(r)), nil
	case op == xpath.OpUnion:
		if l.Kind != xpath.TypeNodeSet || r.Kind != xpath.TypeNodeSet {
			return Value{}, fmt.Errorf("semantics: | on non-node-sets")
		}
		return NodeSet(ar.Union(l.Set, r.Set)), nil
	case op.IsRelOp():
		return Boolean(Compare(d, op, l, r)), nil
	case op.IsArith():
		return Number(Arith(op, ToNumber(d, l), ToNumber(d, r))), nil
	}
	return Value{}, fmt.Errorf("semantics: unknown operator %v", op)
}

// Eval is F[[e]] at context c for every expression that is not a
// location path or filter expression — a constant, a negation, a
// binary operator (apply) or a function call (callFunction)
// — given args, the values of xpath.Operands(e) in order. This is
// Definition 5.1's E[[Op(e1,…,em)]](c) = F[[Op]](E[[e1]](c), …,
// E[[em]](c)) written once: the engines differ only in how they compute
// the operand values, and in which contexts. A union is built in ar
// (nil: the heap); args is not retained.
func Eval(d *xmltree.Document, ar *xmltree.Arena, e xpath.Expr, c Context, args []Value) (Value, error) {
	switch x := e.(type) {
	case *xpath.Number:
		return Number(x.Val), nil
	case *xpath.Literal:
		return String(x.Val), nil
	case *xpath.Negate:
		return Number(-ToNumber(d, args[0])), nil
	case *xpath.Binary:
		return apply(d, ar, x.Op, args[0], args[1])
	case *xpath.Call:
		return callFunction(d, x.Name, c, args)
	}
	return Value{}, fmt.Errorf("semantics: %T has no operator", e)
}

func cmpBool(op xpath.BinOp, a, b bool) bool {
	n := func(x bool) float64 {
		if x {
			return 1
		}
		return 0
	}
	return CompareNumbers(op, n(a), n(b))
}
