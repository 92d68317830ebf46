package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/workload"
)

// deepQuery is full XPath with predicates nested three deep, which
// the Auto table (core.Explain) sends to OptMinContext whatever the
// document.
const deepQuery = "//a[b[c[count(d) > 1]]]"

// TestSharedCompilationAcrossSessions: the compile cache is keyed on the
// query source alone, so when one source runs in sessions over a small
// and a large document it is compiled once into the cache, the second
// request hits the shared entry, and both run the strategy its
// fragment picks. (The text is sighted once first: the cache admits a
// query on its second miss.)
func TestSharedCompilationAcrossSessions(t *testing.T) {
	e := New(Options{Strategy: core.Auto, CacheSize: 8})
	if _, err := e.Compile(deepQuery); err != nil {
		t.Fatal(err)
	}
	r1 := e.NewSession(workload.Doc(50)).Do(deepQuery)
	r2 := e.NewSession(workload.Doc(1100)).Do(deepQuery)
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r1.Strategy != core.OptMinContext || r2.Strategy != core.OptMinContext {
		t.Fatalf("ran %v then %v, want OptMinContext on both documents", r1.Strategy, r2.Strategy)
	}
	if r1.Compiled != r2.Compiled {
		t.Fatal("the two sessions ran different compiled queries")
	}
	if st := e.Stats(); st.Misses != 2 || st.Hits != 1 || st.Rejects != 1 {
		t.Fatalf("cache misses %d hits %d rejects %d, want 2, 1 and 1: one cached parse per source across strategies", st.Misses, st.Hits, st.Rejects)
	}
}

// TestPlannerOptionIgnored: Options.Planner and Options.Fallback survive
// only as names the benchmark's probe sets; whatever they hold, Auto
// resolves by the table.
func TestPlannerOptionIgnored(t *testing.T) {
	doc := workload.Doc(50)
	for _, mode := range []planner.Mode{"", "off", "rules", "adaptive"} {
		sess := New(Options{Strategy: core.Auto, Planner: mode, Fallback: mode == "adaptive"}).NewSession(doc)
		for src, want := range map[string]core.Strategy{
			"//a": core.OptMinContext, "//a[position() = 2]": core.OptMinContext, deepQuery: core.OptMinContext,
		} {
			res := sess.Do(src)
			if res.Err != nil || res.Strategy != want {
				t.Fatalf("planner %q, %s: err %v strategy %v, want %v", mode, src, res.Err, res.Strategy, want)
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
