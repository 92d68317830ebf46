package planner

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestShapeExtract(t *testing.T) {
	// The shape is extracted from the tree that runs: normalization
	// rewrites [2] into [position() = 2] and expands // into
	// descendant-or-self::node()/child::, which xpath.Optimize fuses
	// into one descendant:: step for //c but must leave alone in front
	// of the positional a[2]. Either way each // is at least one spine
	// step.
	q := core.MustCompile("//a[2]/parent::b | //c")
	sh := Extract(q, 500)
	if sh.Fragment != q.Fragment() {
		t.Fatalf("fragment = %v, want %v", sh.Fragment, q.Fragment())
	}
	if sh.Unions != 1 {
		t.Fatalf("unions = %d, want 1", sh.Unions)
	}
	if sh.Positionals == 0 {
		t.Fatal("numeric predicate [2] must count as positional after normalization")
	}
	if sh.ReverseSteps != 1 {
		t.Fatalf("reverse steps = %d, want 1 (parent::b)", sh.ReverseSteps)
	}
	if sh.SpineSteps < 2 {
		t.Fatalf("spine steps = %d, want >= 2 (two // expansions)", sh.SpineSteps)
	}
	if sh.MaxPredDepth != 1 {
		t.Fatalf("pred depth = %d, want 1", sh.MaxPredDepth)
	}
	if sh.DocNodes != 500 {
		t.Fatalf("doc nodes = %d, want 500", sh.DocNodes)
	}
}

func TestShapePredDepth(t *testing.T) {
	sh := Extract(core.MustCompile("//a[b[c[d]]]"), 10)
	if sh.MaxPredDepth != 3 {
		t.Fatalf("pred depth = %d, want 3", sh.MaxPredDepth)
	}
}

func TestClassBuckets(t *testing.T) {
	// Documents within a 16× band share a class; far apart they don't.
	a := Extract(core.MustCompile("//a"), 100).Class()
	b := Extract(core.MustCompile("//b"), 110).Class()
	c := Extract(core.MustCompile("//a"), 1_000_000).Class()
	if a != b {
		t.Fatalf("same-shape queries on similar docs split classes: %v vs %v", a, b)
	}
	if a == c {
		t.Fatal("a 10000× larger document must land in a different class")
	}
	if !strings.Contains(a.String(), "core_xpath") {
		t.Fatalf("class string %q should carry the fragment label", a)
	}
}

func TestRulesRouting(t *testing.T) {
	p := New(Config{Mode: Rules})
	cases := []struct {
		query string
		doc   int
		want  core.Strategy
	}{
		// Fragment algebras lead their own fragments.
		{"/descendant::a/child::b", 1000, core.CoreXPath},
		{"id('x')/child::a", 1000, core.XPatterns},
		// The Extended Wadler Fragment and general full XPath go to
		// OptMinContext.
		{"//a[position() = 2]", 1000, core.OptMinContext},
		{"count(//a) < count(//b)", 100_000, core.OptMinContext},
		// Deep predicate nesting over a small document prefers the
		// vectorized top-down evaluator.
		{"//a[b[c[count(d) < count(e)]]]", 200, core.TopDown},
		{"//a[b[c[count(d) < count(e)]]]", 100_000, core.OptMinContext},
	}
	for _, tc := range cases {
		d := p.Decide(core.MustCompile(tc.query), tc.doc, nil)
		if d.Strategy != tc.want {
			t.Errorf("%s on %d nodes: picked %v (%s), want %v", tc.query, tc.doc, d.Strategy, d.Rationale, tc.want)
		}
		if d.Explored {
			t.Errorf("%s: rules mode must never explore", tc.query)
		}
		if !strings.HasPrefix(d.Rationale, "rules:") {
			t.Errorf("%s: rationale %q should be rule-based", tc.query, d.Rationale)
		}
	}
	if got := p.Stats().Decisions; got != uint64(len(cases)) {
		t.Fatalf("decisions = %d, want %d", got, len(cases))
	}
}

func TestBaselinesNeverCandidates(t *testing.T) {
	// The exponential baselines exist for experiments, not serving.
	for _, query := range []string{"//a", "id('x')/child::a", "//a[position() = 2]", "count(//a) < count(//b)"} {
		d := New(Config{Mode: Rules}).Peek(core.MustCompile(query), 1000)
		for _, c := range d.Candidates {
			if c.Strategy == core.Naive || c.Strategy == core.DataPool {
				t.Fatalf("%s: %v offered as a candidate", query, c.Strategy)
			}
		}
	}
}

func TestAdaptiveFollowsObservations(t *testing.T) {
	p := New(Config{Mode: Adaptive, ExploreEvery: -1})
	q := core.MustCompile("count(//a) < count(//b)")
	const doc = 5000
	// Rule pick is OptMinContext; feed observations showing TopDown is
	// 10× faster for this class.
	p.Observe(q, doc, core.OptMinContext, 10*time.Millisecond, false)
	p.Observe(q, doc, core.TopDown, time.Millisecond, false)
	d := p.Decide(q, doc, nil)
	if d.Strategy != core.TopDown {
		t.Fatalf("picked %v (%s), want TopDown from observations", d.Strategy, d.Rationale)
	}
	if !strings.HasPrefix(d.Rationale, "observed:") {
		t.Fatalf("rationale = %q, want observation-driven", d.Rationale)
	}
	// A faster-than-rule-estimate measurement on the adaptive pick
	// counts a win.
	p.Observe(q, doc, core.TopDown, time.Millisecond, false)
	if p.Stats().Wins == 0 {
		t.Fatal("observation-driven pick measuring faster than the rule pick's estimate must count a win")
	}
}

func TestEntryEvidenceOutranksClass(t *testing.T) {
	p := New(Config{Mode: Adaptive, ExploreEvery: -1})
	q := core.MustCompile("count(//a) < count(//b)")
	const doc = 5000
	// Class-level evidence says TopDown; this query's own entry says
	// MinContext. The entry wins: it is this exact query.
	p.Observe(q, doc, core.OptMinContext, 10*time.Millisecond, false)
	p.Observe(q, doc, core.TopDown, time.Millisecond, false)
	entry := fakeEntry{core.MinContext: 100e-6, core.TopDown: 5e-3}
	d := p.Decide(q, doc, entry)
	if d.Strategy != core.MinContext {
		t.Fatalf("picked %v (%s), want MinContext from entry evidence", d.Strategy, d.Rationale)
	}
	for _, c := range d.Candidates {
		if c.Strategy == core.MinContext && c.Source != "entry" {
			t.Fatalf("MinContext evidence source = %q, want entry", c.Source)
		}
	}
}

// fakeEntry implements EntryStats from a map.
type fakeEntry map[core.Strategy]float64

func (f fakeEntry) StrategySeconds(s core.Strategy) (float64, bool) {
	v, ok := f[s]
	return v, ok
}

func TestMatrixEvidence(t *testing.T) {
	reg := obs.NewRegistry()
	matrix := reg.HistogramVec("xpath_query_seconds", "test", nil, "fragment", "strategy")
	// Fleet-level evidence: MinContext has run full-XPath queries at
	// 1ms while the rule pick OptMinContext averaged 50ms.
	matrix.With("full_xpath", "mincontext").Observe(0.001)
	matrix.With("full_xpath", "optmincontext").Observe(0.050)
	p := New(Config{Mode: Adaptive, ExploreEvery: -1, Matrix: matrix})
	d := p.Decide(core.MustCompile("count(//a) < count(//b)"), 5000, nil)
	if d.Strategy != core.MinContext {
		t.Fatalf("picked %v (%s), want MinContext from matrix evidence", d.Strategy, d.Rationale)
	}
	for _, c := range d.Candidates {
		if c.Strategy == core.MinContext && c.Source != "matrix" {
			t.Fatalf("evidence source = %q, want matrix", c.Source)
		}
	}
}

func TestBanExcludesStrategy(t *testing.T) {
	p := New(Config{Mode: Adaptive, ExploreEvery: -1})
	q := core.MustCompile("//a")
	const doc = 300
	// Make bottomup look fastest, then report its structural failure.
	p.Observe(q, doc, core.BottomUp, time.Microsecond, false)
	if d := p.Decide(q, doc, nil); d.Strategy != core.BottomUp {
		t.Fatalf("setup: picked %v, want BottomUp", d.Strategy)
	}
	p.Observe(q, doc, core.BottomUp, time.Millisecond, true)
	d := p.Decide(q, doc, nil)
	if d.Strategy == core.BottomUp {
		t.Fatal("banned strategy re-picked for the same class")
	}
	if p.Stats().Bans != 1 {
		t.Fatalf("bans = %d, want 1", p.Stats().Bans)
	}
	// The ban is idempotent and visible on the candidate list.
	p.Observe(q, doc, core.BottomUp, time.Millisecond, true)
	if p.Stats().Bans != 1 {
		t.Fatalf("re-banning counted twice: %d", p.Stats().Bans)
	}
	banned := false
	for _, c := range p.Peek(q, doc).Candidates {
		if c.Strategy == core.BottomUp && c.Banned {
			banned = true
		}
	}
	if !banned {
		t.Fatal("candidate list does not mark the banned strategy")
	}
}

func TestExploreSchedule(t *testing.T) {
	p := New(Config{Mode: Adaptive, ExploreEvery: 4})
	q := core.MustCompile("count(//a) < count(//b)") // full XPath: a class that explores
	const doc = 300
	explored := 0
	for i := 0; i < 16; i++ {
		if p.Decide(q, doc, nil).Explored {
			explored++
		}
	}
	if explored != 4 {
		t.Fatalf("explored %d of 16 decisions with ExploreEvery=4, want exactly 4", explored)
	}
	if p.Stats().Explored != 4 {
		t.Fatalf("stats explored = %d, want 4", p.Stats().Explored)
	}
	// Exploration spreads over the least-tried candidates rather than
	// hammering one alternative.
	seen := map[core.Strategy]bool{}
	for i := 0; i < 16; i++ {
		if d := p.Decide(q, doc, nil); d.Explored {
			seen[d.Strategy] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("exploration visited %v, want at least two distinct alternatives", seen)
	}
}

// TestExplorationRespectsDominance: the paper's ladder is the dominance
// order, so exploration is a table, not a gamble. Over 10 000 adaptive
// decisions spread over the four fragments, with nothing ever observed,
// no class is routed to BottomUp, and the classes of the two linear-time
// fragments are never explored at all.
func TestExplorationRespectsDominance(t *testing.T) {
	p := New(Config{Mode: Adaptive, ExploreEvery: 4})
	queries := []*core.Query{
		core.MustCompile("//a[b]/c"),                         // Core XPath
		core.MustCompile("//a[b = 'x']/c"),                   // XPatterns
		core.MustCompile("//a/b[last()]/c"),                  // Extended Wadler
		core.MustCompile("count(//a[count(b) > 2])"),         // full XPath
		core.MustCompile("//a[b[c[count(d) = position()]]]"), // full XPath, deep predicates
	}
	wantFrag := []core.Fragment{core.FragmentCoreXPath, core.FragmentXPatterns,
		core.FragmentWadler, core.FragmentFullXPath, core.FragmentFullXPath}
	for i, q := range queries {
		if q.Fragment() != wantFrag[i] {
			t.Fatalf("%s classified %v, want %v", q, q.Fragment(), wantFrag[i])
		}
	}
	explored := map[core.Fragment]int{}
	for i := 0; i < 10000; i++ {
		q := queries[i%len(queries)]
		doc := []int{300, 644, 21000}[(i/len(queries))%3]
		d := p.Decide(q, doc, nil)
		if d.Strategy == core.BottomUp {
			t.Fatalf("decision %d routed %s (%v, %d nodes) to BottomUp: %s", i, q, q.Fragment(), doc, d.Rationale)
		}
		if d.Explored {
			explored[q.Fragment()]++
		}
	}
	if n := explored[core.FragmentCoreXPath] + explored[core.FragmentXPatterns]; n != 0 {
		t.Fatalf("explored %d decisions of the linear-time fragments, want 0", n)
	}
	if explored[core.FragmentWadler] == 0 || explored[core.FragmentFullXPath] == 0 {
		t.Fatalf("Wadler and full-XPath classes must keep exploring, got %v", explored)
	}
}

func TestPeekHasNoSideEffects(t *testing.T) {
	p := New(Config{Mode: Adaptive, ExploreEvery: 1})
	q := core.MustCompile("//a")
	for i := 0; i < 10; i++ {
		if d := p.Peek(q, 300); d.Explored {
			t.Fatal("Peek must never explore")
		}
	}
	if s := p.Stats(); s.Decisions != 0 || s.Explored != 0 {
		t.Fatalf("Peek mutated stats: %+v", s)
	}
}

func TestPlannerMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(Config{Mode: Adaptive, Registry: reg})
	p.Decide(core.MustCompile("//a"), 300, nil)
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"xpath_planner_decisions_total",
		"xpath_planner_explore_total",
		"xpath_planner_bans_total",
		"xpath_planner_wins_total",
		"xpath_planner_classes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

func TestModeByName(t *testing.T) {
	for name, want := range map[string]Mode{"off": Off, "rules": Rules, "adaptive": Adaptive} {
		got, ok := ModeByName(name)
		if !ok || got != want {
			t.Fatalf("ModeByName(%q) = %v, %v", name, got, ok)
		}
		if got.String() != name {
			t.Fatalf("%v.String() = %q, want %q", got, got.String(), name)
		}
	}
	if _, ok := ModeByName("bogus"); ok {
		t.Fatal("bogus mode resolved")
	}
}

// TestPlannerConcurrent hammers Decide and Observe from many
// goroutines over a handful of classes; the planner's EWMA/ban/trial
// state is lock-free and must be clean under -race (the CI race-stress
// job runs this package with -race -count=3).
func TestPlannerConcurrent(t *testing.T) {
	p := New(Config{Mode: Adaptive, ExploreEvery: 2})
	queries := []*core.Query{
		core.MustCompile("//a"),
		core.MustCompile("id('x')/child::a"),
		core.MustCompile("//a[position() = 2]"),
		core.MustCompile("count(//a) < count(//b)"),
	}
	const goroutines, reps = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				q := queries[(g+i)%len(queries)]
				doc := 100 << ((g + i) % 3 * 4)
				d := p.Decide(q, doc, nil)
				failed := d.Strategy == core.BottomUp && i%7 == 0
				p.Observe(q, doc, d.Strategy, time.Duration(i%100)*time.Microsecond, failed)
			}
		}(g)
	}
	wg.Wait()
	s := p.Stats()
	if s.Decisions != goroutines*reps {
		t.Fatalf("decisions = %d, want %d", s.Decisions, goroutines*reps)
	}
	if s.Classes == 0 {
		t.Fatal("no classes accumulated state")
	}
}

func TestAllBannedFallsBackToMinContext(t *testing.T) {
	p := New(Config{Mode: Adaptive, ExploreEvery: -1})
	q := core.MustCompile("//a")
	const doc = 300
	for _, s := range []core.Strategy{core.CoreXPath, core.OptMinContext, core.TopDown, core.MinContext, core.BottomUp} {
		p.Observe(q, doc, s, time.Millisecond, true)
	}
	d := p.Decide(q, doc, nil)
	if d.Strategy != core.MinContext {
		t.Fatalf("picked %v with every candidate banned, want the MinContext backstop", d.Strategy)
	}
}

func TestExploreEveryDisabled(t *testing.T) {
	p := New(Config{Mode: Adaptive, ExploreEvery: -1})
	q := core.MustCompile("//a")
	for i := 0; i < 64; i++ {
		if p.Decide(q, 300, nil).Explored {
			t.Fatal("exploration fired with ExploreEvery < 0")
		}
	}
}

func TestFragmentLabel(t *testing.T) {
	want := map[core.Fragment]string{
		core.FragmentCoreXPath: "core_xpath",
		core.FragmentXPatterns: "xpatterns",
		core.FragmentWadler:    "wadler",
		core.FragmentFullXPath: "full_xpath",
	}
	for f, label := range want {
		if got := FragmentLabel(f); got != label {
			t.Fatalf("FragmentLabel(%v) = %q, want %q", f, got, label)
		}
	}
}

func TestDecisionRationaleMentionsClass(t *testing.T) {
	p := New(Config{Mode: Adaptive, ExploreEvery: 1})
	q := core.MustCompile("//a[position() = 2]")
	p.Observe(q, 300, core.OptMinContext, time.Microsecond, false)
	// Second decision explores (ExploreEvery=1 fires every time).
	d := p.Decide(q, 300, nil)
	if !d.Explored {
		t.Fatalf("expected an exploring decision, got %q", d.Rationale)
	}
	if !strings.Contains(d.Rationale, d.Class.String()) {
		t.Fatalf("rationale %q should name the class %q", d.Rationale, d.Class)
	}
}

func TestStatsStringer(t *testing.T) {
	if got := fmt.Sprint(New(Config{Mode: Adaptive}).Stats().Mode); got != "adaptive" {
		t.Fatalf("stats mode = %q", got)
	}
}
