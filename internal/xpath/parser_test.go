package xpath

import (
	"strings"
	"testing"

	"repro/internal/axes"
)

func parse(t *testing.T, q string) Expr {
	t.Helper()
	e, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return e
}

func asPath(t *testing.T, e Expr) *Path {
	t.Helper()
	p, ok := e.(*Path)
	if !ok {
		t.Fatalf("expected *Path, got %T (%s)", e, e)
	}
	return p
}

func TestParseSimplePaths(t *testing.T) {
	p := asPath(t, parse(t, "/descendant::a/child::b"))
	if !p.Absolute || len(p.Steps) != 2 {
		t.Fatalf("bad path: %+v", p)
	}
	if p.Steps[0].Axis != axes.Descendant || p.Steps[0].Test.Name != "a" {
		t.Errorf("step 0 = %s", p.Steps[0])
	}
	if p.Steps[1].Axis != axes.Child || p.Steps[1].Test.Name != "b" {
		t.Errorf("step 1 = %s", p.Steps[1])
	}
}

func TestAbbreviationExpansion(t *testing.T) {
	// //a/b expands to /descendant-or-self::node()/child::a/child::b.
	p := asPath(t, parse(t, "//a/b"))
	if len(p.Steps) != 3 {
		t.Fatalf("steps = %d, want 3 (%s)", len(p.Steps), p)
	}
	if p.Steps[0].Axis != axes.DescendantOrSelf || p.Steps[0].Test.Kind != TestNode {
		t.Errorf("// expansion: %s", p.Steps[0])
	}
	if p.Steps[1].Axis != axes.Child || p.Steps[2].Axis != axes.Child {
		t.Errorf("child steps: %s", p)
	}

	// @href → attribute::href
	p = asPath(t, parse(t, "a/@href"))
	if p.Steps[1].Axis != axes.AttributeAxis || p.Steps[1].Test.Name != "href" {
		t.Errorf("@ expansion: %s", p.Steps[1])
	}

	// . and ..
	p = asPath(t, parse(t, "./.."))
	if p.Steps[0].Axis != axes.Self || p.Steps[0].Test.Kind != TestNode {
		t.Errorf(". expansion: %s", p.Steps[0])
	}
	if p.Steps[1].Axis != axes.Parent || p.Steps[1].Test.Kind != TestNode {
		t.Errorf(".. expansion: %s", p.Steps[1])
	}

	// a//b has a descendant-or-self step in the middle.
	p = asPath(t, parse(t, "a//b"))
	if len(p.Steps) != 3 || p.Steps[1].Axis != axes.DescendantOrSelf {
		t.Errorf("a//b = %s", p)
	}
}

func TestNumericPredicateNormalization(t *testing.T) {
	// //a[5] means /descendant-or-self::node()/child::a[position() = 5]
	// (Section 5).
	p := asPath(t, parse(t, "//a[5]"))
	pred := p.Steps[1].Preds[0]
	b, ok := pred.(*Binary)
	if !ok || b.Op != OpEq {
		t.Fatalf("pred = %s, want position() = 5", pred)
	}
	if c, ok := b.Left.(*Call); !ok || c.Name != "position" {
		t.Errorf("pred lhs = %s", b.Left)
	}
	if n, ok := b.Right.(*Number); !ok || n.Val != 5 {
		t.Errorf("pred rhs = %s", b.Right)
	}
	// Arithmetic predicates normalize too: [last()-1].
	p = asPath(t, parse(t, "a[last()-1]"))
	if b, ok := p.Steps[0].Preds[0].(*Binary); !ok || b.Op != OpEq {
		t.Errorf("arith pred = %s", p.Steps[0].Preds[0])
	}
}

func TestBooleanPredicateNormalization(t *testing.T) {
	// /descendant::a[child::b] wraps the node-set predicate in boolean().
	p := asPath(t, parse(t, "/descendant::a[child::b]"))
	pred := p.Steps[0].Preds[0]
	c, ok := pred.(*Call)
	if !ok || c.Name != "boolean" {
		t.Fatalf("pred = %s, want boolean(child::b)", pred)
	}
	if _, ok := c.Args[0].(*Path); !ok {
		t.Errorf("boolean arg = %T", c.Args[0])
	}
	// String predicates are wrapped as well.
	p = asPath(t, parse(t, "a[string()]"))
	if c, ok := p.Steps[0].Preds[0].(*Call); !ok || c.Name != "boolean" {
		t.Errorf("string pred = %s", p.Steps[0].Preds[0])
	}
	// Already-boolean predicates stay as they are.
	p = asPath(t, parse(t, "a[true()]"))
	if c, ok := p.Steps[0].Preds[0].(*Call); !ok || c.Name != "true" {
		t.Errorf("bool pred = %s", p.Steps[0].Preds[0])
	}
}

func TestParsePaperQueries(t *testing.T) {
	// Queries appearing in the paper must all parse.
	queries := []string{
		"//a/b",
		"//a/b/parent::a/b",
		"//a/b/parent::a/b/parent::a/b",
		"//*[parent::a/child::* = 'c']",
		"//*[parent::a/child::*[parent::a/child::* = 'c'] = 'c']",
		"//a/b[count(parent::a/b) > 1]",
		"//a/b[count(parent::a/b[count(parent::a/b) > 1]) > 1]",
		"//a//b[ancestor::a//b[ancestor::a//b]/ancestor::a//b]/ancestor::a//b",
		"count(//b/following::b/following::b)",
		"count(//b//b//b)",
		"descendant::b/following-sibling::*[position() != last()]",
		"/descendant::a[count(descendant::b/child::c) + position() < last()]/child::d",
		"/descendant::*/descendant::*[position() > last()*0.5 or self::* = 100]",
		"/child::a/descendant::*[boolean(following::d[(position() != last()) and (preceding-sibling::*/preceding::* = 100)]/following::d)]",
		"/descendant::a/child::b[child::c/child::d or not(following::*)]",
		"/descendant::a[position() = 5]",
		"/descendant::a[boolean(child::b)]",
		"id('10')/child::b",
		"//*[@id = '11']",
	}
	for _, q := range queries {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
}

func TestParseExperimentQueryFamilies(t *testing.T) {
	// Experiment 1: //a/b(/parent::a/b)^k
	q := "//a/b"
	for i := 0; i < 5; i++ {
		q += "/parent::a/b"
	}
	parse(t, q)

	// Experiment 2 family.
	q2 := "//*[parent::a/child::* = 'c']"
	for i := 0; i < 4; i++ {
		q2 = "//*[parent::a/child::*[" + strings.TrimPrefix(q2, "//*[") + " = 'c']"
	}
	parse(t, q2)

	// Experiment 4: nested ancestor/descendant brackets.
	q4 := "//b"
	for i := 0; i < 5; i++ {
		q4 = "//b[ancestor::a" + q4 + "]/ancestor::a"
	}
	parse(t, "//a"+q4+"//b")
}

func TestOperatorPrecedence(t *testing.T) {
	e := parse(t, "1 + 2 * 3")
	b := e.(*Binary)
	if b.Op != OpAdd {
		t.Fatalf("top op = %v", b.Op)
	}
	if r := b.Right.(*Binary); r.Op != OpMul {
		t.Errorf("right op = %v", r.Op)
	}

	e = parse(t, "true() or false() and false()")
	b = e.(*Binary)
	if b.Op != OpOr {
		t.Fatalf("top = %v, want or", b.Op)
	}

	e = parse(t, "1 < 2 = true()")
	b = e.(*Binary)
	if b.Op != OpEq {
		t.Fatalf("top = %v, want =", b.Op)
	}

	// Union binds tighter than comparison.
	e = parse(t, "a | b = c")
	b = e.(*Binary)
	if b.Op != OpEq {
		t.Fatalf("top = %v, want =", b.Op)
	}
	if l := b.Left.(*Binary); l.Op != OpUnion {
		t.Errorf("left = %v, want |", l.Op)
	}
}

func TestStarDisambiguation(t *testing.T) {
	// * after an operand is multiplication; in operand position it is
	// the wildcard.
	e := parse(t, "2 * 3")
	if b := e.(*Binary); b.Op != OpMul {
		t.Fatalf("2 * 3 top = %v", b.Op)
	}
	p := asPath(t, parse(t, "child::*"))
	if p.Steps[0].Test.Name != "*" {
		t.Fatalf("child::* test = %s", p.Steps[0].Test)
	}
	// position() > last()*0.5 — * is multiply after last().
	e = parse(t, "position() > last()*0.5")
	if b := e.(*Binary); b.Op != OpGt {
		t.Fatalf("top = %v", b.Op)
	}
	// div/mod/and/or as element names in operand position.
	p = asPath(t, parse(t, "div/mod"))
	if p.Steps[0].Test.Name != "div" || p.Steps[1].Test.Name != "mod" {
		t.Errorf("div/mod as names: %s", p)
	}
}

func TestFilterExprs(t *testing.T) {
	// (//a)[1]
	e := parse(t, "(//a)[1]")
	fe, ok := e.(*FilterExpr)
	if !ok {
		t.Fatalf("got %T", e)
	}
	if _, ok := fe.Primary.(*Path); !ok {
		t.Errorf("primary = %T", fe.Primary)
	}
	// Numeric filter predicate also normalizes to position()=1.
	if b, ok := fe.Preds[0].(*Binary); !ok || b.Op != OpEq {
		t.Errorf("filter pred = %s", fe.Preds[0])
	}
	// id('x')/b — function head path.
	p := asPath(t, parse(t, "id('x')/b"))
	if p.Filter == nil || len(p.Steps) != 1 {
		t.Fatalf("id head path: %s", p)
	}
	if c, ok := p.Filter.(*Call); !ok || c.Name != "id" {
		t.Errorf("filter head = %s", p.Filter)
	}
}

func TestNodeTests(t *testing.T) {
	p := asPath(t, parse(t, "child::text()"))
	if p.Steps[0].Test.Kind != TestText {
		t.Errorf("text() test: %v", p.Steps[0].Test)
	}
	p = asPath(t, parse(t, "child::comment()"))
	if p.Steps[0].Test.Kind != TestComment {
		t.Errorf("comment() test: %v", p.Steps[0].Test)
	}
	p = asPath(t, parse(t, "child::processing-instruction('tgt')"))
	if p.Steps[0].Test.Kind != TestPI || p.Steps[0].Test.Name != "tgt" {
		t.Errorf("pi test: %v", p.Steps[0].Test)
	}
	p = asPath(t, parse(t, "child::node()"))
	if p.Steps[0].Test.Kind != TestNode {
		t.Errorf("node() test: %v", p.Steps[0].Test)
	}
	p = asPath(t, parse(t, "child::ns:*"))
	if p.Steps[0].Test.Name != "ns:*" {
		t.Errorf("prefix wildcard: %v", p.Steps[0].Test)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"//",
		"child::",
		"a[",
		"a]",
		"f(#)",
		"child::a[",
		"unknownaxis::a",
		"frobnicate()",
		"count()",
		"count(a, b)",
		"not()",
		"'unterminated",
		"1 +",
		"(a",
		"a b",
		"$",
		"../..[",
		"2 | a", // union requires node sets
		// Nothing converts to a node set: a type error whatever the data.
		"count(0)",
		"sum('1')",
		"name(1 = 1)",
		"a[count(b)][count(0) * 0]",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q): expected error", q)
		}
	}
}

func TestVariables(t *testing.T) {
	e := parse(t, "a[@x = $v]")
	if !HasVariables(e) {
		t.Fatal("variable not detected")
	}
	sub, err := Substitute(e, Bindings{"v": &Literal{Val: "hello"}})
	if err != nil {
		t.Fatal(err)
	}
	if HasVariables(sub) {
		t.Error("substitution left variables behind")
	}
	if _, err := Substitute(e, Bindings{}); err == nil {
		t.Error("unbound variable should error")
	}
}

func TestStringRoundTrip(t *testing.T) {
	// String() output must re-parse to an equal-printing tree.
	queries := []string{
		"/descendant::a/child::b",
		"//a/b[count(parent::a/b) > 1]",
		"descendant::b/following-sibling::*[position() != last()]",
		"id('10')/child::d",
		"(//a)[2]",
		"child::a | child::b",
		"-1 + 2",
		"concat('a', 'b', 'c')",
		"/descendant::*[position() > last()*0.5 or self::* = 100]",
	}
	for _, q := range queries {
		e1 := parse(t, q)
		e2 := parse(t, e1.String())
		if e1.String() != e2.String() {
			t.Errorf("round trip %q:\n  first:  %s\n  second: %s", q, e1, e2)
		}
	}
}

func TestStaticTypes(t *testing.T) {
	cases := map[string]Type{
		"1":            TypeNumber,
		"'s'":          TypeString,
		"a":            TypeNodeSet,
		"a | b":        TypeNodeSet,
		"1 + 2":        TypeNumber,
		"1 = 2":        TypeBoolean,
		"true()":       TypeBoolean,
		"count(a)":     TypeNumber,
		"concat(a, b)": TypeString,
		"not(a)":       TypeBoolean,
		"-a":           TypeNumber,
		"(a)[1]":       TypeNodeSet,
	}
	for q, want := range cases {
		if got := parse(t, q).Type(); got != want {
			t.Errorf("type of %q = %v, want %v", q, got, want)
		}
	}
}

func TestNodeTestString(t *testing.T) {
	cases := map[string]string{
		"node()":    "node()",
		"text()":    "text()",
		"comment()": "comment()",
		"a":         "a",
		"*":         "*",
	}
	for in, want := range cases {
		p := asPath(t, parse(t, "child::"+in))
		if got := p.Steps[0].Test.String(); got != want {
			t.Errorf("test %q renders %q, want %q", in, got, want)
		}
	}
}
