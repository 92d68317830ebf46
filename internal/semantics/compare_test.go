package semantics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// byTheTable is XPath 1.0 §3.4 (https://www.w3.org/TR/xpath-10/#booleans)
// read off the Recommendation's prose, one clause per paragraph, with
// Go's own operators for the comparisons — nothing of Compare, Flip,
// CompareNumbers or cmpStr. Conversions are the §4 functions: boolean()
// of a node-set is its non-emptiness, number() of a boolean is 1 or 0,
// and number() of a string is StringToNumber, which FuzzStringFunctions
// holds to §4.4's grammar.
func byTheTable(d *xmltree.Document, op xpath.BinOp, a, b Value) bool {
	set := func(v Value) bool { return v.Kind == xpath.TypeNodeSet }
	strval := func(n xmltree.NodeID) Value { return String(d.StringValue(n)) }
	// "If both objects to be compared are node-sets, then the comparison
	// will be true if and only if there is a node in the first node-set
	// and a node in the second node-set such that the result of
	// performing the comparison on the string-values of the two nodes is
	// true."
	if set(a) && set(b) {
		for _, n1 := range a.Set {
			for _, n2 := range b.Set {
				if byTheTable(d, op, strval(n1), strval(n2)) {
					return true
				}
			}
		}
		return false
	}
	// "If one object to be compared is a node-set and the other is a
	// number / string, then the comparison will be true if and only if
	// there is a node in the node-set such that the result of performing
	// the comparison on the number / string and on the result of
	// converting the string-value of that node to a number using the
	// number function / on the string-value is true. If one object is a
	// node-set and the other a boolean, the comparison is true iff
	// performing it on the boolean and on the result of converting the
	// node-set to a boolean using the boolean function is true." The
	// node-set keeps its side of the operator.
	if set(a) || set(b) {
		s, other := a, b
		if set(b) {
			s, other = b, a
		}
		side := func(n Value) bool {
			if set(a) {
				return byTheTable(d, op, n, other)
			}
			return byTheTable(d, op, other, n)
		}
		if other.Kind == xpath.TypeBoolean {
			return side(Boolean(len(s.Set) > 0))
		}
		for _, n := range s.Set {
			v := strval(n)
			if other.Kind == xpath.TypeNumber {
				v = Number(StringToNumber(v.Str))
			}
			if side(v) {
				return true
			}
		}
		return false
	}
	boolean := func(v Value) bool {
		switch v.Kind {
		case xpath.TypeBoolean:
			return v.Bool
		case xpath.TypeNumber:
			return v.Num != 0 && !math.IsNaN(v.Num)
		}
		return v.Str != ""
	}
	number := func(v Value) float64 {
		switch v.Kind {
		case xpath.TypeNumber:
			return v.Num
		case xpath.TypeBoolean:
			if v.Bool {
				return 1
			}
			return 0
		}
		return StringToNumber(v.Str)
	}
	// "When neither object to be compared is a node-set and the operator
	// is = or !=, then the objects are compared by converting them to a
	// common type: if at least one object is a boolean, each is
	// converted to a boolean as if by the boolean function; otherwise,
	// if at least one is a number, each is converted to a number as if
	// by the number function; otherwise both are compared as strings."
	if op == xpath.OpEq || op == xpath.OpNeq {
		eq := op == xpath.OpEq
		switch {
		case a.Kind == xpath.TypeBoolean || b.Kind == xpath.TypeBoolean:
			return (boolean(a) == boolean(b)) == eq
		case a.Kind == xpath.TypeNumber || b.Kind == xpath.TypeNumber:
			// IEEE 754: NaN is unequal to everything, itself included.
			if eq {
				return number(a) == number(b)
			}
			return number(a) != number(b)
		}
		return (a.Str == b.Str) == eq
	}
	// "When neither object to be compared is a node-set and the operator
	// is <=, <, >= or >, then the objects are compared by converting both
	// objects to numbers and comparing the numbers according to IEEE
	// 754."
	x, y := number(a), number(b)
	switch op {
	case xpath.OpLt:
		return x < y
	case xpath.OpLe:
		return x <= y
	case xpath.OpGt:
		return x > y
	default:
		return x >= y
	}
}

// TestCompareByTheTable: Compare agrees with byTheTable on every §3.4
// row — node-set, empty node-set, number, string and boolean on either
// side of =, !=, <, <=, > and >= — over operands drawn from the
// document's own string-values (so equal pairs occur and < parts from
// <=) and from outside it (NaN, infinities, padded numerals, strings no
// node holds).
func TestCompareByTheTable(t *testing.T) {
	d := xmltree.MustParseString(`<r><n>1</n><n>2</n><n>2</n><s>hello</s><x>2.5</x><e/><w> 2 </w><z>-0</z></r>`)
	elems := map[string][]xmltree.NodeID{}
	for i := 0; i < d.Len(); i++ {
		if n := xmltree.NodeID(i); d.Type(n) == xmltree.Element {
			elems[d.Name(n)] = append(elems[d.Name(n)], n)
		}
	}
	set := func(ns ...xmltree.NodeID) Value { return NodeSet(xmltree.NewNodeSet(ns...)) }
	n, s, x, e, w, z := elems["n"], elems["s"][0], elems["x"][0], elems["e"][0], elems["w"][0], elems["z"][0]
	operands := map[string][]Value{
		"node-set": {
			set(n[0]), set(n[1], n[2]), set(n...), set(s), set(x, e), set(w, z),
			set(elems["r"][0]), set(n[0], s, x),
		},
		"empty node-set": {set()},
		"number": {
			Number(1), Number(2), Number(2.5), Number(0), Number(math.Copysign(0, -1)),
			Number(-1), Number(3), Number(1.5), Number(math.NaN()), Number(math.Inf(1)), Number(math.Inf(-1)),
		},
		"string": {
			String("1"), String("2"), String("2.5"), String("hello"), String(""), String(" 2 "), String("-0"),
			String("3"), String("abc"), String("02"), String("NaN"), String("Infinity"), String("1e1"),
		},
		"boolean": {Boolean(true), Boolean(false)},
	}
	ops := []xpath.BinOp{xpath.OpEq, xpath.OpNeq, xpath.OpLt, xpath.OpLe, xpath.OpGt, xpath.OpGe}
	// A §3.4 row whose operands all give one answer would not tell a
	// swapped operator from the right one; the empty node-set belongs to
	// the node-set rows.
	row := func(k string) string { return strings.TrimPrefix(k, "empty ") }
	outcomes := map[string]map[bool]bool{}
	for lk, ls := range operands {
		for rk, rs := range operands {
			for _, op := range ops {
				key := row(lk) + " " + op.String() + " " + row(rk)
				if outcomes[key] == nil {
					outcomes[key] = map[bool]bool{}
				}
				for _, l := range ls {
					for _, r := range rs {
						want := byTheTable(d, op, l, r)
						if got := Compare(d, op, l, r); got != want {
							t.Errorf("%s %v %s: Compare(%+v, %+v) = %v, §3.4 says %v", lk, op, rk, l, r, got, want)
						}
						outcomes[key][want] = true
					}
				}
			}
		}
	}
	if len(outcomes) != 4*4*len(ops) {
		t.Fatalf("%d rows covered, want %d", len(outcomes), 4*4*len(ops))
	}
	for key, seen := range outcomes {
		if len(seen) != 2 {
			t.Errorf("%s: every operand pair answers %v", key, seen)
		}
	}
}
