package semantics

import (
	"math"
	"math/big"
	"regexp"
	"strings"
	"testing"

	"repro/internal/xpath"
)

// FuzzStringFunctions checks two string functions every engine reaches
// through semantics against definitions written from the XPath 1.0
// recommendation, sharing no code with them:
//
//   - substring(s, a) and substring(s, a, b) (§4.2): the characters of s
//     at the 1-based rune positions p with round(a) ≤ p, and with
//     p < round(a) + round(b) when b is given, compared in big.Float, so
//     a NaN bound or a NaN sum (+∞ + −∞) selects nothing and ±∞ bounds
//     compare as the infinities they are; round is §4.4's, in big.Rat
//     (integerFunction);
//   - StringToNumber(s) (§4.4, number of a string): NaN unless s is
//     S* '-'? (Digits ('.' Digits?)? | '.' Digits) S*, S being XML's
//     white space and nothing else (so a plus sign, an exponent, a
//     vertical tab or U+00A0 make NaN); otherwise the double nearest the
//     decimal between the white space, read exactly as a big.Rat and
//     rounded once (big.Rat.Float64 rounds to nearest even, subnormals
//     included — a big.Float parse at 53 bits would round twice there),
//     negated when the minus sign is present, so "-0" is −0.
func FuzzStringFunctions(f *testing.F) {
	nums := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		0.5, -0.5, 1 << 53, 1.5, 2.6,
	}
	texts := []string{
		"12345", "", "héllo wörld", "+1", "1e3", ".", "-", "\v1", " 1",
		" -.5 ", "5.", "-0", "\t\r\n42\n", "007.250", "1.", "--1",
		"0.1000000000000000055511151231257827021181583404541015625",
	}
	for _, s := range texts {
		for _, a := range nums {
			for _, b := range nums {
				f.Add(s, a, b)
			}
		}
	}
	f.Fuzz(func(t *testing.T, s string, a, b float64) {
		for _, args := range [][]float64{{a}, {a, b}} {
			vals := []Value{String(s)}
			for _, x := range args {
				vals = append(vals, Number(x))
			}
			got, err := Eval(doc, nil, &xpath.Call{Name: "substring"}, Context{}, vals)
			if err != nil {
				t.Fatalf("substring(%q, %v): %v", s, args, err)
			}
			if want := substringByDefinition(s, args); got.Str != want {
				t.Errorf("substring(%q, %v) = %q, want %q", s, args, got.Str, want)
			}
		}
		if got, want := StringToNumber(s), numberByDefinition(s); !sameFloat(got, want) {
			t.Errorf("StringToNumber(%q) = %v (bits %#x), want %v (bits %#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// substringByDefinition is §4.2's substring: the runes of s at positions
// p with round(args[0]) ≤ p < round(args[0]) + round(args[1]), the upper
// bound absent with one argument.
func substringByDefinition(s string, args []float64) string {
	const prec = 2200 // the sum of two doubles, exactly
	start := integerFunction("round", args[0])
	if math.IsNaN(start) {
		return ""
	}
	lo := new(big.Float).SetPrec(prec).SetFloat64(start)
	var hi *big.Float
	if len(args) == 2 {
		length := integerFunction("round", args[1])
		if math.IsNaN(length) || math.IsInf(start, 0) && math.IsInf(length, 0) && (start > 0) != (length > 0) {
			return "" // the bound is NaN: no position is below it
		}
		hi = new(big.Float).SetPrec(prec).Add(lo, new(big.Float).SetFloat64(length))
	}
	var out []rune
	for i, r := range []rune(s) {
		p := big.NewFloat(float64(i + 1))
		if p.Cmp(lo) >= 0 && (hi == nil || p.Cmp(hi) < 0) {
			out = append(out, r)
		}
	}
	return string(out)
}

// numberText is §4.4's number of a string: S* '-'? Number S*, with
// Number ::= Digits ('.' Digits?)? | '.' Digits (§3.7).
var numberText = regexp.MustCompile(`^[\x20\t\r\n]*-?([0-9]+(\.[0-9]*)?|\.[0-9]+)[\x20\t\r\n]*$`)

// numberByDefinition converts s by numberText and exact rational
// arithmetic.
func numberByDefinition(s string) float64 {
	if !numberText.MatchString(s) {
		return math.NaN()
	}
	t := strings.Trim(s, "\x20\t\r\n")
	digits := strings.TrimPrefix(t, "-")
	r, ok := new(big.Rat).SetString(strings.TrimSuffix(digits, "."))
	if !ok {
		panic("big.Rat cannot read " + digits)
	}
	v, _ := r.Float64()
	if len(digits) < len(t) {
		v = -v
	}
	return v
}
