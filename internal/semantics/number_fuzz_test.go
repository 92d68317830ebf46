package semantics

import (
	"math"
	"math/big"
	"regexp"
	"strings"
	"testing"

	"repro/internal/xpath"
)

// FuzzNumberFunctions checks the number functions every engine reaches
// through Eval against definitions written from the XPath 1.0
// recommendation in exact arithmetic, bit for bit, the sign of zero
// included:
//
//   - floor, ceiling (§4.4): the greatest (least) integer not greater
//     (not less) than the argument, computed in big.Rat; a zero result
//     keeps the argument's sign (ceiling(-0.5) is −0, floor(-0) is −0);
//   - round (§4.4): the integer closest to the argument, of two the one
//     closer to +∞, i.e. ⌊v + 1/2⌋ in big.Rat; every v in [−0.5, −0]
//     rounds to −0; NaN and ±∞ come back unchanged;
//   - mod (§3.5): the remainder of a truncating division, a − trunc(a/b)·b
//     in big.Rat, a zero result taking the dividend's sign; NaN when a is
//     NaN or infinite or b is NaN or zero, a when b is infinite;
//   - number → string (§4.2): "NaN", "Infinity", "-Infinity"; otherwise
//     a §3.7 Number, minus sign first when negative, an integer with no
//     decimal point and no leading zeros, anything else with at least
//     one digit on each side of the point, and only as many fraction
//     digits as tell the number apart from every other double — it reads
//     back through StringToNumber as the same number, and the string one
//     fraction digit shorter, rounded either way, does not.
func FuzzNumberFunctions(f *testing.F) {
	seeds := []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 0.49999999999999994,
		1<<52 + 1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64 * 3,
	}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b float64) {
		for _, v := range []float64{a, b} {
			for _, fn := range []string{"floor", "ceiling", "round"} {
				got, err := Eval(doc, nil, &xpath.Call{Name: fn}, Context{}, []Value{Number(v)})
				if err != nil {
					t.Fatalf("%s(%v): %v", fn, v, err)
				}
				if want := integerFunction(fn, v); !sameFloat(got.Num, want) {
					t.Errorf("%s(%v) = %v (bits %#x), want %v (bits %#x)", fn, v, got.Num, math.Float64bits(got.Num), want, math.Float64bits(want))
				}
			}
			checkNumberString(t, v)
		}
		if got, want := Arith(xpath.OpMod, a, b), truncatedRemainder(a, b); !sameFloat(got, want) {
			t.Errorf("%v mod %v = %v (bits %#x), want %v (bits %#x)", a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// sameFloat is bit equality, any NaN equal to any other.
func sameFloat(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// integerFunction is floor, ceiling or round of v by the definitions of
// §4.4 in exact rational arithmetic.
func integerFunction(fn string, v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	r := new(big.Rat).SetFloat64(v)
	var q *big.Int
	switch fn {
	case "floor":
		q = floorRat(r)
	case "ceiling":
		q = new(big.Int).Neg(floorRat(new(big.Rat).Neg(r)))
	default: // round: ⌊v + 1/2⌋ picks the nearer integer, +∞'s of two
		q = floorRat(new(big.Rat).Add(r, big.NewRat(1, 2)))
	}
	return signedZero(ratFloat(new(big.Rat).SetInt(q)), v)
}

// floorRat is ⌊r⌋: the denominator is positive, and Euclidean division
// by a positive divisor rounds towards −∞.
func floorRat(r *big.Rat) *big.Int {
	return new(big.Int).Div(r.Num(), r.Denom())
}

// truncatedRemainder is a mod b by §3.5's truncating division.
func truncatedRemainder(a, b float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || b == 0:
		return math.NaN()
	case math.IsInf(b, 0):
		return a
	}
	ra, rb := new(big.Rat).SetFloat64(a), new(big.Rat).SetFloat64(b)
	q := new(big.Rat).Quo(ra, rb)
	trunc := new(big.Int).Quo(q.Num(), q.Denom()) // Quo rounds towards zero
	r := new(big.Rat).Sub(ra, new(big.Rat).Mul(new(big.Rat).SetInt(trunc), rb))
	return signedZero(ratFloat(r), a)
}

// ratFloat converts r, which must be a double exactly.
func ratFloat(r *big.Rat) float64 {
	f, exact := r.Float64()
	if !exact {
		panic("not a double: " + r.String())
	}
	return f
}

// signedZero is f, or a zero with like's sign when f is zero.
func signedZero(f, like float64) float64 {
	if f == 0 {
		return math.Copysign(0, like)
	}
	return f
}

// numberGrammar is §3.7's Number as §4.2 wants it printed: an optional
// minus sign, an integer part with no leading zeros, and a fraction
// part, if any, that does not end in zero.
var numberGrammar = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]*[1-9])?$`)

func checkNumberString(t *testing.T, v float64) {
	got, err := Eval(doc, nil, &xpath.Call{Name: "string"}, Context{}, []Value{Number(v)})
	if err != nil {
		t.Fatalf("string(%v): %v", v, err)
	}
	s := got.Str
	if math.IsNaN(v) || math.IsInf(v, 0) {
		want := "NaN"
		if math.IsInf(v, 1) {
			want = "Infinity"
		} else if math.IsInf(v, -1) {
			want = "-Infinity"
		}
		if s != want {
			t.Errorf("string(%v) = %q, want %q", v, s, want)
		}
		return
	}
	if !numberGrammar.MatchString(s) {
		t.Fatalf("string(%v) = %q is not a Number", v, s)
	}
	if (s[0] == '-') != (v < 0) {
		t.Errorf("string(%v) = %q: minus sign wrong", v, s)
	}
	point := strings.IndexByte(s, '.')
	if (point < 0) != (v == math.Trunc(v)) {
		t.Errorf("string(%v) = %q: a decimal point iff the number is not an integer", v, s)
	}
	if back := StringToNumber(s); back != v {
		t.Errorf("string(%v) = %q reads back as %v", v, s, back)
	}
	if point < 0 {
		return
	}
	// One fraction digit fewer, truncated and rounded away from zero:
	// if either were v, s would have digits v does not need.
	shorter := s[:len(s)-1]
	if shorter[len(shorter)-1] == '.' {
		shorter = shorter[:len(shorter)-1]
	}
	lo, ok := new(big.Rat).SetString(shorter)
	if !ok {
		t.Fatalf("big.Rat cannot read %q", shorter)
	}
	step := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(len(s)-point-2)), nil))
	if v < 0 {
		step.Neg(step)
	}
	hi := new(big.Rat).Add(lo, step)
	for _, r := range []*big.Rat{lo, hi} {
		if f, _ := r.Float64(); f == v {
			t.Errorf("string(%v) = %q has a fraction digit too many: %s is the same number", v, s, r.RatString())
		}
	}
}
