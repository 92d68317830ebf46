package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/workload"
)

// catalogServer serves workload.Catalog(30) as "catalog" under opts.
func catalogServer(t *testing.T, opts engine.Options) *httptest.Server {
	t.Helper()
	srv := New(engine.New(opts), store.Config{})
	if _, _, err := srv.AddDocument("catalog", workload.Catalog(30).XMLString()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestAutoResponseOverHTTP: an auto answer names the concrete strategy
// the table picked — optmincontext, for a Core XPath query too — and
// carries no planner marker.
func TestAutoResponseOverHTTP(t *testing.T) {
	ts := catalogServer(t, engine.Options{Strategy: core.Auto, Planner: "adaptive"})
	resp, out := postJSON(t, ts.URL+"/query", QueryRequest{Doc: "catalog", Query: "//product"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, out)
	}
	if out["strategy"] != "optmincontext" || out["fragment"] != "Core XPath" {
		t.Fatalf("strategy = %v, fragment = %v; want optmincontext, Core XPath", out["strategy"], out["fragment"])
	}
	if _, ok := out["planned"]; ok {
		t.Fatalf("response = %v, want no planned member", out)
	}
}

// TestStatsKeepsBenchmarkKeys: /stats decodes into a struct shaped like
// backendStats in benchmark/counts.go, every member the driver reads is
// present, the ones that counted the deleted learner and the deleted
// table-limit fallback read zero, and
// cache.rejects counts the first misses the compile cache did not admit.
func TestStatsKeepsBenchmarkKeys(t *testing.T) {
	ts := catalogServer(t, engine.Options{})
	for _, q := range []string{"//product", "//product", "count(//product)", "//product"} {
		if resp, out := postJSON(t, ts.URL+"/query", QueryRequest{Doc: "catalog", Query: q}); resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %v", resp.StatusCode, out)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Pointers tell an absent member from a zero one.
	var st struct {
		Cache     struct{ Hits, Misses, Evictions, Rejects *float64 }
		Fallbacks *float64
		Planner   struct {
			Mode                      string
			Decisions, Explored, Bans *float64
			Wins, Classes             *float64
		}
		Store struct{ Bytes, Hits, Evictions *float64 }
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/stats = %s: %v", body, err)
	}
	for name, v := range map[string]*float64{
		"cache.hits": st.Cache.Hits, "cache.misses": st.Cache.Misses, "cache.evictions": st.Cache.Evictions, "cache.rejects": st.Cache.Rejects,
		"fallbacks":         st.Fallbacks,
		"planner.decisions": st.Planner.Decisions, "planner.explored": st.Planner.Explored, "planner.bans": st.Planner.Bans,
		"store.bytes": st.Store.Bytes, "store.hits": st.Store.Hits, "store.evictions": st.Store.Evictions,
	} {
		if v == nil {
			t.Fatalf("/stats lacks %s: %s", name, body)
		}
	}
	if st.Planner.Mode != "rules" || *st.Planner.Decisions != 4 || *st.Planner.Explored != 0 || *st.Planner.Bans != 0 || *st.Fallbacks != 0 {
		t.Errorf("want planner mode rules, decisions 4 (the auto queries), explored 0, bans 0, fallbacks 0: %s", body)
	}
	if st.Planner.Wins != nil || st.Planner.Classes != nil {
		t.Errorf("want no planner.wins or planner.classes: %s", body)
	}
	if *st.Cache.Rejects != 2 || *st.Cache.Hits != 1 || *st.Cache.Misses != 3 {
		t.Errorf("want cache rejects 2, hits 1, misses 3: %s", body)
	}
}

// TestNotInFragmentIs422: a server pinned to a fragment algebra answers
// a query outside the fragment with the evaluation-error status, not
// with an empty node set.
func TestNotInFragmentIs422(t *testing.T) {
	ts := catalogServer(t, engine.Options{Strategy: core.CoreXPath})
	resp, out := postJSON(t, ts.URL+"/query", QueryRequest{Doc: "catalog", Query: "id('p1')/name"})
	if msg, _ := out["error"].(string); resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(msg, core.ErrNotInFragment.Error()) {
		t.Fatalf("status %d, body %v; want 422 carrying ErrNotInFragment", resp.StatusCode, out)
	}
}
