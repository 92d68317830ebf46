package xpath

import "testing"

func TestRelevBaseCases(t *testing.T) {
	cases := map[string]Relev{
		"1":                 0,
		"'s'":               0,
		"true()":            0,
		"false()":           0,
		"position()":        RelevPos,
		"last()":            RelevSize,
		"string()":          RelevNode,
		"number()":          RelevNode,
		"string-length()":   RelevNode,
		"normalize-space()": RelevNode,
		"name()":            RelevNode,
		"local-name()":      RelevNode,
		"child::a":          RelevNode,
		".":                 RelevNode,
		"..":                RelevNode,
		"@x":                RelevNode,
		"/child::a":         0, // absolute paths ignore the context
		"//a":               0,
	}
	for q, want := range cases {
		if got := RelevantContext(MustParse(q)); got != want {
			t.Errorf("Relev(%s) = %v, want %v", q, got, want)
		}
	}
}

func TestRelevCompound(t *testing.T) {
	cases := map[string]Relev{
		"position() + last()":   RelevPos | RelevSize,
		"position() = 1":        RelevPos,
		"count(child::a)":       RelevNode,
		"count(/descendant::a)": 0,
		"not(position() = 1)":   RelevPos,
		"child::a | child::b":   RelevNode,
		"-position()":           RelevPos,
		"concat('a', 'b')":      0,
		"string(position())":    RelevPos,
		"lang('en')":            RelevNode,
		"boolean(child::a)":     RelevNode,
		"child::a = position()": RelevNode | RelevPos,
	}
	for q, want := range cases {
		if got := RelevantContext(MustParse(q)); got != want {
			t.Errorf("Relev(%s) = %v, want %v", q, got, want)
		}
	}
}

func TestRelevPredicatesDoNotPropagate(t *testing.T) {
	// A location step's predicates get fresh contexts; the step itself
	// depends only on the context node (Section 8.2, "compound
	// expressions" rule for location steps).
	q := MustParse("child::a[position() = last()]")
	if got := RelevantContext(q); got != RelevNode {
		t.Errorf("Relev = %v, want {cn}", got)
	}
	q = MustParse("/descendant::a[position() = last()]")
	if got := RelevantContext(q); got != 0 {
		t.Errorf("Relev(absolute) = %v, want ∅", got)
	}
}

func TestRelevString(t *testing.T) {
	cases := map[Relev]string{
		0:                                "{}",
		RelevNode:                        "{cn}",
		RelevPos:                         "{cp}",
		RelevSize:                        "{cs}",
		RelevNode | RelevPos:             "{cn,cp}",
		RelevNode | RelevPos | RelevSize: "{cn,cp,cs}",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", r, got, want)
		}
	}
	if !(RelevNode | RelevPos).Has(RelevNode) {
		t.Error("Has failed")
	}
	if (RelevNode).Has(RelevPos) {
		t.Error("Has false positive")
	}
}

func TestWalkVisitsEverything(t *testing.T) {
	q := MustParse("/a[b = 1]/c[position() != last()] | id('x')[2]/d")
	count := 0
	kinds := map[string]bool{}
	Walk(q, func(e Expr) {
		count++
		switch e.(type) {
		case *Path:
			kinds["path"] = true
		case *Binary:
			kinds["binary"] = true
		case *Call:
			kinds["call"] = true
		case *Number:
			kinds["number"] = true
		case *FilterExpr:
			kinds["filter"] = true
		}
	})
	if count < 10 {
		t.Errorf("Walk visited only %d nodes", count)
	}
	for _, k := range []string{"path", "binary", "call", "number"} {
		if !kinds[k] {
			t.Errorf("Walk missed %s nodes", k)
		}
	}
	// Walk(nil) must be safe.
	Walk(nil, func(Expr) { t.Error("callback on nil") })
}

func TestLexerEdgeCases(t *testing.T) {
	// Numbers in all forms.
	for _, q := range []string{"0.5", ".5", "5.", "5"} {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
	// Name characters: dash, dot, underscore, digits.
	p := MustParse("child::a-b.c_d1").(*Path)
	if p.Steps[0].Test.Name != "a-b.c_d1" {
		t.Errorf("name = %q", p.Steps[0].Test.Name)
	}
	// Literals in both quote styles, including embedded quotes.
	l := MustParse(`"it's"`).(*Literal)
	if l.Val != "it's" {
		t.Errorf("literal = %q", l.Val)
	}
	l = MustParse(`'say "hi"'`).(*Literal)
	if l.Val != `say "hi"` {
		t.Errorf("literal = %q", l.Val)
	}
	// Whitespace never matters between tokens.
	a := MustParse("//a[ position( ) = 1 ]").String()
	b := MustParse("//a[position()=1]").String()
	if a != b {
		t.Errorf("whitespace sensitivity: %q vs %q", a, b)
	}
}

func TestQNameLexing(t *testing.T) {
	p := MustParse("child::ns:elem").(*Path)
	if p.Steps[0].Test.Name != "ns:elem" {
		t.Errorf("QName = %q", p.Steps[0].Test.Name)
	}
	// ns:* wildcard.
	p = MustParse("ns:*").(*Path)
	if p.Steps[0].Test.Name != "ns:*" {
		t.Errorf("prefix wildcard = %q", p.Steps[0].Test.Name)
	}
	// axis::qname does not confuse the :: separator.
	p = MustParse("descendant::ns:elem").(*Path)
	if p.Steps[0].Test.Name != "ns:elem" {
		t.Errorf("axis + QName = %q", p.Steps[0].Test.Name)
	}
}
