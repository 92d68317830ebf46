package xpath

import (
	"math/rand"
	"testing"

	"repro/internal/axes"
)

// optimizeCases pins Optimize on the exact String() of its result.
var optimizeCases = []struct{ query, want string }{
	// Fused.
	{"//a/b", "/descendant::a/child::b"},
	{"//a[b]", "/descendant::a[boolean(child::b)]"},
	{"//a[b[1]]", "/descendant::a[boolean(child::b[(position() = 1)])]"},
	{".//a", "descendant::a"},
	{"//a//b", "/descendant::a/descendant::b"},
	{"//*", "/descendant::*"},
	{"//text()", "/descendant::text()"},
	{"id('x')//a", "id('x')/descendant::a"},
	{"(//a)[2]", "(/descendant::a)[(position() = 2)]"},
	{"count(//a[.//b])", "count(/descendant::a[boolean(descendant::b)])"},
	{"//a[b = 'x' and not(c)]", "/descendant::a[((child::b = 'x') and not(boolean(child::c)))]"},
	{"/descendant-or-self::node()/descendant::a", "/descendant::a"},
	{"/descendant-or-self::node()/descendant-or-self::a", "/descendant-or-self::a"},
	{"/descendant-or-self::node()/descendant-or-self::node()/child::a", "/descendant::a"},
	{"-sum(//a) + 1", "(-sum(/descendant::a) + 1)"},
	{"//a | b//c", "(/descendant::a | child::b/descendant::c)"},
	// self::node() drops where the path stays well-formed.
	{"a/./b", "child::a/child::b"},
	{"./a", "child::a"},
	{"/./a", "/child::a"},
	{"/.", "/"},
	{".", "self::node()"},
	{"./.", "self::node()"},
	{"id('x')/.", "id('x')"},
	{"(//a)[1]/.", "(/descendant::a)[(position() = 1)]"},
	{"//./a", "/descendant::a"},
	{"a[.]", "child::a[boolean(self::node())]"},
	{"a[./b]", "child::a[boolean(child::b)]"},
	{"self::node()[a]/b", "self::node()[boolean(child::a)]/child::b"},
	{"self::a/b", "self::a/child::b"},
	// Must not fuse: the W3C §2.5 side condition and its neighbours.
	{"//a[1]", "/descendant-or-self::node()/child::a[(position() = 1)]"},
	{"//a[last()]", "/descendant-or-self::node()/child::a[(position() = last())]"},
	{"//a[b][position() mod 2 = 0]",
		"/descendant-or-self::node()/child::a[boolean(child::b)][((position() mod 2) = 0)]"},
	{"//@a", "/descendant-or-self::node()/attribute::a"},
	{"descendant-or-self::node()[b]/child::a", "descendant-or-self::node()[boolean(child::b)]/child::a"},
	{"//a[1]//b[c]",
		"/descendant-or-self::node()/child::a[(position() = 1)]/descendant::b[boolean(child::c)]"},
	{"//a/parent::b", "/descendant::a/parent::b"},
	{"//following-sibling::a", "/descendant-or-self::node()/following-sibling::a"},
	{"/descendant-or-self::*/child::a", "/descendant-or-self::*/child::a"},
	{"descendant::node()/child::a", "descendant::node()/child::a"},
	{"//a[position() = 1 or b]", "/descendant-or-self::node()/child::a[((position() = 1) or boolean(child::b))]"},
}

func TestOptimize(t *testing.T) {
	for _, tc := range optimizeCases {
		e := parse(t, tc.query)
		literal := e.String()
		opt := Optimize(e)
		if got := opt.String(); got != tc.want {
			t.Errorf("Optimize(%q) = %s, want %s", tc.query, got, tc.want)
		}
		if e.String() != literal {
			t.Errorf("Optimize(%q) changed its argument to %s", tc.query, e)
		}
		// Optimize ∘ Optimize = Optimize, and on a tree no rule applies
		// to, the tree itself comes back.
		if again := Optimize(opt); again != opt {
			t.Errorf("Optimize(%q) is not a fixpoint: %s, then %s", tc.query, opt, again)
		}
		// The optimized tree prints as a query that parses back to it.
		back, err := Parse(opt.String())
		if err != nil {
			t.Errorf("Optimize(%q) = %s does not parse: %v", tc.query, opt, err)
			continue
		}
		if back.String() != opt.String() {
			t.Errorf("Optimize(%q) = %s parses back as %s", tc.query, opt, back)
		}
	}
}

// TestOptimizeGenerated runs the fixpoint and round-trip properties over
// generated trees (genExpr) into whose paths bare self::node() and
// descendant-or-self::node() steps have been inserted at random, and
// checks that static type and relevant context survive the rewrite.
func TestOptimizeGenerated(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	bare := func(a axes.Axis) *Step { return &Step{Axis: a, Test: NodeTest{Kind: TestNode}} }
	for i := 0; i < 500; i++ {
		e := genExpr(r, 3)
		Walk(e, func(x Expr) {
			p, ok := x.(*Path)
			if !ok {
				return
			}
			for k := r.Intn(3); k > 0; k-- {
				at := r.Intn(len(p.Steps) + 1)
				s := bare(axes.DescendantOrSelf)
				if r.Intn(3) == 0 {
					s = bare(axes.Self)
				}
				p.Steps = append(p.Steps[:at], append([]*Step{s}, p.Steps[at:]...)...)
			}
		})
		literal := e.String()
		opt := Optimize(e)
		if e.String() != literal {
			t.Fatalf("Optimize(%s) changed its argument to %s", literal, e)
		}
		if again := Optimize(opt); again != opt {
			t.Errorf("Optimize(%s) is not a fixpoint: %s, then %s", literal, opt, again)
		}
		back, err := Parse(opt.String())
		if err != nil {
			t.Errorf("Optimize(%s) = %s does not parse: %v", literal, opt, err)
		} else if again, err := Parse(back.String()); err != nil || again.String() != back.String() {
			// As in TestPrinterParserRoundTrip, a generated tree may need
			// one normalization round before its printed form is stable.
			t.Errorf("Optimize(%s) = %s prints unstably: %s", literal, opt, back)
		}
		if opt.Type() != e.Type() {
			t.Errorf("Optimize(%s): type %v became %v", literal, e.Type(), opt.Type())
		}
		if got, want := RelevantContext(opt), RelevantContext(e); got != want {
			t.Errorf("Optimize(%s): Relev %v became %v", literal, want, got)
		}
	}
}

// TestOptimizeAllocatesNothingWhenIdle: a query no rule applies to
// comes back as is, without a single allocation — what keeps the pass
// free on the compile path of queries without //.
func TestOptimizeAllocatesNothingWhenIdle(t *testing.T) {
	for _, q := range []string{
		"/site/regions/*/item/name",
		"id('person1')/name",
		"child::a[b = 'x' and position() = last()]/c | /d[. = 3]",
		"//a[1]",
	} {
		e := parse(t, q)
		if n := testing.AllocsPerRun(20, func() { Optimize(e) }); n != 0 {
			t.Errorf("Optimize(%q) allocates %.0f times", q, n)
		}
		if Optimize(e) != e {
			t.Errorf("Optimize(%q) returned a copy", q)
		}
	}
}
