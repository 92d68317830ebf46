package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/workload"
)

// deepQuery is full XPath with predicates nested three deep: the one
// row of the Auto table (core.Explain) that reads the document size.
const deepQuery = "//a[b[c[count(d) > 1]]]"

// TestSharedCompilationAcrossStrategies: the compile cache is keyed on
// the query source alone, so when one source runs under different
// strategies — here the same Auto engine over a small and a large
// document — it is compiled once and the second request hits the shared
// entry.
func TestSharedCompilationAcrossStrategies(t *testing.T) {
	e := New(Options{Strategy: core.Auto, CacheSize: 8})
	r1 := e.NewSession(workload.Doc(50)).Do(deepQuery)
	r2 := e.NewSession(workload.Doc(1100)).Do(deepQuery)
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r1.Strategy != core.TopDown || r2.Strategy != core.OptMinContext {
		t.Fatalf("ran %v then %v, want TopDown on the small document and OptMinContext on the large", r1.Strategy, r2.Strategy)
	}
	if r1.Compiled != r2.Compiled {
		t.Fatal("the two strategies ran different compiled queries")
	}
	if st := e.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache misses %d hits %d, want 1 and 1: one parse per source across strategies", st.Misses, st.Hits)
	}
}

// TestPlannerOptionIgnored: Options.Planner survives only as a name the
// benchmark's probe sets; whatever it holds, Auto resolves by the table.
func TestPlannerOptionIgnored(t *testing.T) {
	doc := workload.Doc(50)
	for _, mode := range []planner.Mode{"", "off", "rules", "adaptive"} {
		sess := New(Options{Strategy: core.Auto, Planner: mode}).NewSession(doc)
		for src, want := range map[string]core.Strategy{
			"//a": core.CoreXPath, "//a[position() = 2]": core.OptMinContext, deepQuery: core.TopDown,
		} {
			res := sess.Do(src)
			if res.Err != nil || res.Strategy != want || res.FellBack {
				t.Fatalf("planner %q, %s: err %v strategy %v fellback %v, want %v", mode, src, res.Err, res.Strategy, res.FellBack, want)
			}
		}
	}
}

// TestFixedStrategyIgnoresTable: a non-Auto engine runs its configured
// strategy on every query, including those the table would send
// elsewhere.
func TestFixedStrategyIgnoresTable(t *testing.T) {
	sess := New(Options{Strategy: core.MinContext, Planner: "adaptive"}).NewSession(workload.Doc(50))
	for _, src := range []string{"//a", deepQuery} {
		if res := sess.Do(src); res.Err != nil || res.Strategy != core.MinContext {
			t.Fatalf("%s: err %v strategy %v, want plain MinContext", src, res.Err, res.Strategy)
		}
	}
}
