// Package semantics implements the effective semantics functions F[[Op]]
// of Table II: the XPath 1.0 value domain (number, string, boolean, node
// set), the type-conversion functions string/number/boolean, the
// comparison operators with their type-directed dispatch, arithmetic, and
// the complete core function library. Every evaluation engine in this
// repository delegates its per-operator work to this package, so the
// engines differ only in *how often* and *in which order* they evaluate
// subexpressions — which is exactly the paper's subject.
package semantics

import (
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
// and XPath 1.0 §4.4): optional XML whitespace, an optional minus sign,
// then Number ::= Digits ('.' Digits?)? | '.' Digits, then optional
// whitespace; anything else is NaN. The grammar is validated by a hand
// scanner before any conversion, so exponents, "inf", a leading plus
// and hexadecimal floats — all of which strconv.ParseFloat accepts —
// are NaN, and a non-numeric string-value (the common case when a
// comparison meets text) costs one pass and no allocation.
func StringToNumber(s string) float64 {
	i, j := 0, len(s)
	for i < j && isXMLSpace(s[i]) {
		i++
	}
	for j > i && isXMLSpace(s[j-1]) {
		j--
	}
	s = s[i:j]
	k := 0
	if k < len(s) && s[k] == '-' {
		k++
	}
	intStart := k
	for k < len(s) && '0' <= s[k] && s[k] <= '9' {
		k++
	}
	digits := k - intStart
	if k == len(s) {
		if digits == 0 {
			return math.NaN()
		}
		if digits <= 15 {
			// At most 15 decimal digits are exact in a float64.
			var v float64
			for _, c := range []byte(s[intStart:]) {
				v = v*10 + float64(c-'0')
			}
			if intStart == 1 {
				v = -v
			}
			return v
		}
	} else {
		if s[k] != '.' {
			return math.NaN()
		}
		k++
		fracStart := k
		for k < len(s) && '0' <= s[k] && s[k] <= '9' {
			k++
		}
		if k != len(s) || digits+k-fracStart == 0 {
			return math.NaN()
		}
	}
	// The text is a valid Number, which ParseFloat converts with correct
	// rounding; the only error left is ErrRange, whose ±Inf is the value.
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// isXMLSpace reports the S production of XML: space, tab, CR, LF.
func isXMLSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

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
	case n1 && n2:
		// The most costly operator of Theorem 6.6. Existential over
		// both sets on string values; GtOp compares numerically via
		// cmpStr's number route.
		for _, a := range v1.Set {
			sa := d.StringValue(a)
			for _, b := range v2.Set {
				if cmpStr(op, sa, d.StringValue(b)) {
					return true
				}
			}
		}
		return false
	case n1:
		switch v2.Kind {
		case xpath.TypeNumber:
			for _, a := range v1.Set {
				if CompareNumbers(op, StringToNumber(d.StringValue(a)), v2.Num) {
					return true
				}
			}
			return false
		case xpath.TypeString:
			for _, a := range v1.Set {
				if cmpStr(op, d.StringValue(a), v2.Str) {
					return true
				}
			}
			return false
		default: // boolean
			return cmpBool(op, ToBoolean(v1), v2.Bool)
		}
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

func cmpBool(op xpath.BinOp, a, b bool) bool {
	n := func(x bool) float64 {
		if x {
			return 1
		}
		return 0
	}
	return CompareNumbers(op, n(a), n(b))
}
