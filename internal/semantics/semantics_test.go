package semantics

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

var doc = xmltree.MustParseString(`<a><b>1</b><b>2</b><c>hello</c><d>2.5</d></a>`)

func setOf(names ...string) xmltree.NodeSet {
	var out []xmltree.NodeID
	for i := 0; i < doc.Len(); i++ {
		for _, n := range names {
			if doc.Name(xmltree.NodeID(i)) == n && doc.Type(xmltree.NodeID(i)) == xmltree.Element {
				out = append(out, xmltree.NodeID(i))
			}
		}
	}
	return xmltree.NewNodeSet(out...)
}

func TestNumberToString(t *testing.T) {
	cases := map[float64]string{
		0: "0", 1: "1", -1: "-1", 1.5: "1.5", 100: "100",
		0.5: "0.5", -2.25: "-2.25",
	}
	for v, want := range cases {
		if got := NumberToString(v); got != want {
			t.Errorf("NumberToString(%v) = %q, want %q", v, got, want)
		}
	}
	if got := NumberToString(math.NaN()); got != "NaN" {
		t.Errorf("NaN = %q", got)
	}
	if got := NumberToString(math.Inf(1)); got != "Infinity" {
		t.Errorf("+Inf = %q", got)
	}
	if got := NumberToString(math.Inf(-1)); got != "-Infinity" {
		t.Errorf("-Inf = %q", got)
	}
	if got := NumberToString(math.Copysign(0, -1)); got != "0" {
		t.Errorf("-0 = %q", got)
	}
}

// TestStringToNumber pins the XPath 1.0 Number grammar (§3.7, §4.4):
// optional whitespace, optional '-', Digits ('.' Digits?)? | '.' Digits.
// Everything strconv.ParseFloat accepts beyond that is NaN.
func TestStringToNumber(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		in   string
		want float64
	}{
		{"1", 1}, {" 2.5 ", 2.5}, {"-3", -3}, {"0", 0}, {"007", 7},
		{"5.", 5}, {".5", 0.5}, {"-.5", -0.5}, {"-0.25", -0.25},
		{"\t\r\n 42 \n", 42},
		{"123456789012345", 123456789012345},         // 15 digits: exact fast path
		{"1234567890123456789", 1234567890123456789}, // beyond it: ParseFloat
		{"0.1", 0.1}, {"3.14159", 3.14159},
		{"", nan}, {" ", nan}, {"abc", nan}, {"1.2.3", nan}, {"--1", nan},
		{"-", nan}, {".", nan}, {"-.", nan}, {"- 5", nan}, {"1 2", nan},
		// Accepted by ParseFloat, not by XPath:
		{"1e3", nan}, {"1E3", nan}, {"inf", nan}, {"Inf", nan},
		{"-Infinity", nan}, {"NaN", nan}, {"+5", nan}, {"0x1p4", nan},
		{"0x10", nan}, {"1_000", nan}, {"5.e1", nan},
		// Whitespace is the XML S production only.
		{"\u00a01", nan}, {"\v1", nan},
	}
	for _, c := range cases {
		got := StringToNumber(c.in)
		if math.IsNaN(c.want) {
			if !math.IsNaN(got) {
				t.Errorf("StringToNumber(%q) = %v, want NaN", c.in, got)
			}
		} else if got != c.want {
			t.Errorf("StringToNumber(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := StringToNumber("-0"); got != 0 || !math.Signbit(got) {
		t.Errorf(`StringToNumber("-0") = %v, want negative zero`, got)
	}
	if got := StringToNumber("1" + strings.Repeat("0", 400)); !math.IsInf(got, 1) {
		t.Errorf("400-digit number = %v, want +Inf", got)
	}
	// A miss must not allocate (strconv's *NumError did).
	if n := testing.AllocsPerRun(100, func() { StringToNumber("Item 17 lot 300") }); n != 0 {
		t.Errorf("non-numeric StringToNumber allocates %v per call, want 0", n)
	}
}

func TestConversions(t *testing.T) {
	if got := ToString(doc, NodeSet(setOf("b"))); got != "1" {
		t.Errorf("string(nset) = %q, want first node's value", got)
	}
	if got := ToString(doc, NodeSet(nil)); got != "" {
		t.Errorf("string(empty nset) = %q", got)
	}
	if got := ToString(doc, Boolean(true)); got != "true" {
		t.Errorf("string(true) = %q", got)
	}
	if got := ToNumber(doc, String("2.5")); got != 2.5 {
		t.Errorf("number('2.5') = %v", got)
	}
	if got := ToNumber(doc, Boolean(true)); got != 1 {
		t.Errorf("number(true) = %v", got)
	}
	if got := ToNumber(doc, NodeSet(setOf("d"))); got != 2.5 {
		t.Errorf("number(nset d) = %v", got)
	}
	if !ToBoolean(Number(5)) || ToBoolean(Number(0)) || ToBoolean(Number(math.NaN())) {
		t.Error("boolean(num) wrong")
	}
	if !ToBoolean(String("x")) || ToBoolean(String("")) {
		t.Error("boolean(str) wrong")
	}
	if !ToBoolean(NodeSet(setOf("b"))) || ToBoolean(NodeSet(nil)) {
		t.Error("boolean(nset) wrong")
	}
}

func TestArith(t *testing.T) {
	if Arith(xpath.OpAdd, 2, 3) != 5 || Arith(xpath.OpSub, 2, 3) != -1 ||
		Arith(xpath.OpMul, 2, 3) != 6 || Arith(xpath.OpDiv, 3, 2) != 1.5 {
		t.Error("basic arithmetic wrong")
	}
	if Arith(xpath.OpMod, 5, 2) != 1 || Arith(xpath.OpMod, -5, 2) != -1 ||
		Arith(xpath.OpMod, 5, -2) != 1 {
		t.Error("mod sign behaviour wrong (must follow dividend)")
	}
	if !math.IsInf(Arith(xpath.OpDiv, 1, 0), 1) {
		t.Error("1 div 0 should be +Infinity")
	}
	if !math.IsNaN(Arith(xpath.OpDiv, 0, 0)) {
		t.Error("0 div 0 should be NaN")
	}
}

// TestModMatchesMathMod: mod's integer path gives math.Mod's result bit
// for bit — sign of the dividend, −0 included — and everything else is
// math.Mod's own: ±0, NaN, ±Inf, fractions, and both sides of 2⁵³.
func TestModMatchesMathMod(t *testing.T) {
	const p53 = 1 << 53
	vals := []float64{0, math.Copysign(0, -1), 1, 2, 3, 7, 10, 40, 1e15, p53 - 2, p53 - 1, p53, p53 + 2, 1e300,
		0.5, 1.5, 2.25, 1e-300, math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN(), math.Inf(1)}
	for _, v := range append([]float64(nil), vals...) {
		vals = append(vals, -v)
	}
	check := func(a, b float64) bool {
		got, want := Arith(xpath.OpMod, a, b), math.Mod(a, b)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("%v mod %v = %v (bits %x), math.Mod gives %v (bits %x)", a, b, got, math.Float64bits(got), want, math.Float64bits(want))
			return false
		}
		return true
	}
	for _, a := range vals {
		for _, b := range vals {
			check(a, b)
		}
	}
	for a := -50.0; a <= 50; a++ {
		for b := -12.0; b <= 12; b++ {
			check(a, b)
		}
	}
	if err := quick.Check(func(a, b int64, fa, fb float64) bool {
		return check(float64(a>>(a&63)), float64(b>>(b&31))) && check(fa, fb) && check(float64(a>>10), fb)
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestCompareScalars(t *testing.T) {
	type tc struct {
		op     xpath.BinOp
		v1, v2 Value
		want   bool
	}
	cases := []tc{
		{xpath.OpEq, Number(1), Number(1), true},
		{xpath.OpNeq, Number(1), Number(2), true},
		{xpath.OpEq, String("a"), String("a"), true},
		{xpath.OpEq, String("a"), String("b"), false},
		{xpath.OpEq, Number(1), String("1"), true},     // num×str via number
		{xpath.OpEq, Boolean(true), String("x"), true}, // bool×str via boolean
		{xpath.OpEq, Boolean(false), String(""), true}, // "" is false
		{xpath.OpLt, String("1"), String("2"), true},   // GtOp via numbers
		{xpath.OpGe, Number(2), Number(2), true},
		{xpath.OpGt, Boolean(true), Boolean(false), true}, // 1 > 0
		{xpath.OpLt, String("abc"), Number(1), false},     // NaN comparisons false
	}
	for _, c := range cases {
		if got := Compare(doc, c.op, c.v1, c.v2); got != c.want {
			t.Errorf("Compare(%v, %+v, %+v) = %v, want %v", c.op, c.v1, c.v2, got, c.want)
		}
	}
}

func TestCompareNodeSets(t *testing.T) {
	bs := NodeSet(setOf("b")) // values "1", "2"
	cs := NodeSet(setOf("c")) // "hello"
	ds := NodeSet(setOf("d")) // "2.5"
	empty := NodeSet(nil)

	// nset × str: existential string comparison.
	if !Compare(doc, xpath.OpEq, bs, String("2")) {
		t.Error("bs = '2' should hold")
	}
	if Compare(doc, xpath.OpEq, bs, String("3")) {
		t.Error("bs = '3' should not hold")
	}
	// nset × num: existential numeric.
	if !Compare(doc, xpath.OpGt, bs, Number(1.5)) {
		t.Error("bs > 1.5 should hold (node '2')")
	}
	if Compare(doc, xpath.OpGt, cs, Number(0)) {
		t.Error("'hello' > 0 is NaN comparison, false")
	}
	// nset × nset: existential pairs.
	if !Compare(doc, xpath.OpLt, bs, ds) {
		t.Error("∃ b < d: 1 < 2.5")
	}
	if Compare(doc, xpath.OpEq, bs, cs) {
		t.Error("no b equals 'hello'")
	}
	// The classic XPath oddity: S = S and S != S can both be true.
	if !Compare(doc, xpath.OpEq, bs, bs) || !Compare(doc, xpath.OpNeq, bs, bs) {
		t.Error("existential semantics: bs = bs and bs != bs both hold")
	}
	// Empty sets compare false against everything except boolean.
	if Compare(doc, xpath.OpEq, empty, String("")) {
		t.Error("empty nset = '' is false (no witness)")
	}
	if !Compare(doc, xpath.OpEq, empty, Boolean(false)) {
		t.Error("empty nset = false() holds via boolean conversion")
	}
	// Flipped operand order.
	if !Compare(doc, xpath.OpLt, Number(1.5), bs) {
		t.Error("1.5 < bs should hold (node '2')")
	}
}

func ctx() Context { return Context{Node: doc.RootID(), Pos: 1, Size: 1} }

func call(t *testing.T, name string, args ...Value) Value {
	t.Helper()
	v, err := callFunction(doc, name, ctx(), args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func TestPositionLastCountSum(t *testing.T) {
	v, _ := callFunction(doc, "position", Context{Node: 1, Pos: 3, Size: 7}, nil)
	if v.Num != 3 {
		t.Errorf("position = %v", v.Num)
	}
	v, _ = callFunction(doc, "last", Context{Node: 1, Pos: 3, Size: 7}, nil)
	if v.Num != 7 {
		t.Errorf("last = %v", v.Num)
	}
	if got := call(t, "count", NodeSet(setOf("b"))); got.Num != 2 {
		t.Errorf("count = %v", got.Num)
	}
	if got := call(t, "sum", NodeSet(setOf("b"))); got.Num != 3 {
		t.Errorf("sum = %v", got.Num)
	}
	if got := call(t, "sum", NodeSet(setOf("b", "d"))); got.Num != 5.5 {
		t.Errorf("sum with d = %v", got.Num)
	}
}

func TestStringFunctions(t *testing.T) {
	if got := call(t, "concat", String("a"), String("b"), Number(1)); got.Str != "ab1" {
		t.Errorf("concat = %q", got.Str)
	}
	if got := call(t, "starts-with", String("hello"), String("he")); !got.Bool {
		t.Error("starts-with")
	}
	if got := call(t, "contains", String("hello"), String("ell")); !got.Bool {
		t.Error("contains")
	}
	if got := call(t, "substring-before", String("1999/04/01"), String("/")); got.Str != "1999" {
		t.Errorf("substring-before = %q", got.Str)
	}
	if got := call(t, "substring-after", String("1999/04/01"), String("/")); got.Str != "04/01" {
		t.Errorf("substring-after = %q", got.Str)
	}
	if got := call(t, "substring-before", String("abc"), String("x")); got.Str != "" {
		t.Errorf("substring-before miss = %q", got.Str)
	}
	// The W3C substring examples.
	if got := call(t, "substring", String("12345"), Number(1.5), Number(2.6)); got.Str != "234" {
		t.Errorf("substring(12345,1.5,2.6) = %q", got.Str)
	}
	if got := call(t, "substring", String("12345"), Number(0), Number(3)); got.Str != "12" {
		t.Errorf("substring(12345,0,3) = %q", got.Str)
	}
	if got := call(t, "substring", String("12345"), Number(math.NaN()), Number(3)); got.Str != "" {
		t.Errorf("substring NaN start = %q", got.Str)
	}
	if got := call(t, "substring", String("12345"), Number(2)); got.Str != "2345" {
		t.Errorf("substring(12345,2) = %q", got.Str)
	}
	if got := call(t, "string-length", String("héllo")); got.Num != 5 {
		t.Errorf("string-length = %v (must count runes)", got.Num)
	}
	if got := call(t, "normalize-space", String("  a  b \n c ")); got.Str != "a b c" {
		t.Errorf("normalize-space = %q", got.Str)
	}
	if got := call(t, "translate", String("bar"), String("abc"), String("ABC")); got.Str != "BAr" {
		t.Errorf("translate = %q", got.Str)
	}
	if got := call(t, "translate", String("--aaa--"), String("abc-"), String("ABC")); got.Str != "AAA" {
		t.Errorf("translate remove = %q", got.Str)
	}
}

func TestNumberFunctions(t *testing.T) {
	if got := call(t, "floor", Number(2.7)); got.Num != 2 {
		t.Errorf("floor = %v", got.Num)
	}
	if got := call(t, "ceiling", Number(2.1)); got.Num != 3 {
		t.Errorf("ceiling = %v", got.Num)
	}
	if got := call(t, "round", Number(2.5)); got.Num != 3 {
		t.Errorf("round(2.5) = %v", got.Num)
	}
	if got := call(t, "round", Number(-2.5)); got.Num != -2 {
		t.Errorf("round(-2.5) = %v (round half toward +inf)", got.Num)
	}
	if got := call(t, "round", Number(math.NaN())); !math.IsNaN(got.Num) {
		t.Errorf("round(NaN) = %v", got.Num)
	}
}

func TestBooleanFunctions(t *testing.T) {
	if got := call(t, "not", Boolean(false)); !got.Bool {
		t.Error("not(false)")
	}
	if got := call(t, "true"); !got.Bool {
		t.Error("true()")
	}
	if got := call(t, "false"); got.Bool {
		t.Error("false()")
	}
	if got := call(t, "boolean", NodeSet(setOf("b"))); !got.Bool {
		t.Error("boolean(nset)")
	}
}

func TestIDFunction(t *testing.T) {
	d := xmltree.MustParseString(`<r><x id="one">two</x><y id="two"/></r>`)
	// id(string)
	v, err := callFunction(d, "id", Context{Node: d.RootID(), Pos: 1, Size: 1},
		[]Value{String("one two")})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Set) != 2 {
		t.Errorf("id('one two') = %v", v.Set)
	}
	// id(nodeset): dereference each node's string value.
	x := d.IDOf("one") // strval "two"
	v, err = callFunction(d, "id", Context{Node: d.RootID(), Pos: 1, Size: 1},
		[]Value{NodeSet(xmltree.NodeSet{x})})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Set) != 1 || v.Set[0] != d.IDOf("two") {
		t.Errorf("id(nset) = %v", v.Set)
	}
}

func TestNameFunctions(t *testing.T) {
	d := xmltree.MustParseString(`<p:a xmlns:p="urn:x"><b/></p:a>`)
	a := d.DocumentElement()
	v, _ := callFunction(d, "name", Context{Node: a, Pos: 1, Size: 1}, nil)
	if v.Str != "p:a" {
		t.Errorf("name() = %q", v.Str)
	}
	v, _ = callFunction(d, "local-name", Context{Node: a, Pos: 1, Size: 1}, nil)
	if v.Str != "a" {
		t.Errorf("local-name() = %q", v.Str)
	}
	v, _ = callFunction(d, "namespace-uri", Context{Node: a, Pos: 1, Size: 1}, nil)
	if v.Str != "urn:x" {
		t.Errorf("namespace-uri() = %q", v.Str)
	}
	v, _ = callFunction(d, "local-name", Context{Node: a, Pos: 1, Size: 1},
		[]Value{NodeSet(nil)})
	if v.Str != "" {
		t.Errorf("local-name(empty) = %q", v.Str)
	}
}

func TestLangFunction(t *testing.T) {
	d := xmltree.MustParseString(`<a xml:lang="en-US"><b/></a>`)
	b := d.Children(d.DocumentElement())[0]
	v, _ := callFunction(d, "lang", Context{Node: b, Pos: 1, Size: 1}, []Value{String("en")})
	if !v.Bool {
		t.Error("lang('en') under en-US should be true")
	}
	v, _ = callFunction(d, "lang", Context{Node: b, Pos: 1, Size: 1}, []Value{String("de")})
	if v.Bool {
		t.Error("lang('de') should be false")
	}
}

func TestUnknownFunction(t *testing.T) {
	if _, err := callFunction(doc, "nonesuch", ctx(), nil); err == nil {
		t.Error("unknown function should error")
	}
	if _, err := callFunction(doc, "count", ctx(), []Value{String("x")}); err == nil {
		t.Error("count(string) should error")
	}
}

func TestConversionProperties(t *testing.T) {
	// boolean(number(boolean(x))) == boolean(x) for numbers.
	if err := quick.Check(func(f float64) bool {
		b := ToBoolean(Number(f))
		n := ToNumber(doc, Boolean(b))
		return ToBoolean(Number(n)) == b
	}, nil); err != nil {
		t.Error(err)
	}
	// string(number(v)) round-trips finite numbers through to_number.
	if err := quick.Check(func(f float64) bool {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
		s := NumberToString(f)
		return StringToNumber(s) == f || f == 0
	}, nil); err != nil {
		t.Error(err)
	}
	// Compare is consistent under operand flip for all scalar kinds.
	if err := quick.Check(func(a, b float64) bool {
		lt := Compare(doc, xpath.OpLt, Number(a), Number(b))
		gt := Compare(doc, xpath.OpGt, Number(b), Number(a))
		return lt == gt
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestValueEqual(t *testing.T) {
	if !Number(math.NaN()).Equal(Number(math.NaN())) {
		t.Error("NaN values should be Equal for memo purposes")
	}
	if Number(1).Equal(String("1")) {
		t.Error("different kinds are not Equal")
	}
	if !NodeSet(setOf("b")).Equal(NodeSet(setOf("b"))) {
		t.Error("equal node sets")
	}
}

// TestIDOfNodeSetAllocations: id() of a node set gathers every member's
// referents into one buffer and sorts it once, so its allocations grow
// with the logarithm of the answer, not with the number of members (a
// merge per member allocated once each).
func TestIDOfNodeSetAllocations(t *testing.T) {
	const n = 10000
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<e id="i%d">i%d</e>`, n-1-i, i) // each names another's ID
	}
	b.WriteString("</r>")
	d := xmltree.MustParseString(b.String())
	args := []Value{NodeSet(d.Index().Named("e"))}
	v, err := callFunction(d, "id", Context{}, args)
	if err != nil || len(v.Set) != n {
		t.Fatalf("id(//e) = %d nodes, %v; want %d", len(v.Set), err, n)
	}
	if allocs := testing.AllocsPerRun(5, func() { callFunction(d, "id", Context{}, args) }); allocs > 40 {
		t.Errorf("id() of %d members: %.0f allocations, want at most 40", n, allocs)
	}
}
