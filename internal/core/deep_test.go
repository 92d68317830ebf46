package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/xpath"
)

// TestDeepChainLinear: a child::name step costs O(matches + fanout) per
// context node, not O(subtree), so every strategy that admits a query
// answers it over a 200 000-level chain <a><a>… within a deadline a
// quadratic child scan misses by minutes. Each query's answer is n − 1: every a
// but the deepest has exactly one a child, and every a but the
// outermost is one.
func TestDeepChainLinear(t *testing.T) {
	const n = 200_000
	d, err := ParseString(strings.Repeat("<a>", n) + strings.Repeat("</a>", n))
	if err != nil {
		t.Fatal(err)
	}
	root := Context{Node: d.RootID(), Pos: 1, Size: 1}
	en := NewEngine(d, Auto)
	for _, c := range []struct {
		query      string
		strategies []Strategy
	}{
		{"//a[a]", []Strategy{CoreXPath, XPatterns, OptMinContext, TopDown, MinContext}},
		{"//a/a", []Strategy{CoreXPath, XPatterns, OptMinContext, TopDown, MinContext}},
		{"count(//a/a[1])", []Strategy{OptMinContext, TopDown, MinContext}},
		{"count(//a[count(a) = 1])", []Strategy{OptMinContext, TopDown, MinContext}},
		{"count(//a[not(a)]/ancestor::a)", []Strategy{OptMinContext, TopDown, MinContext}},
	} {
		q := MustCompile(c.query)
		for _, s := range c.strategies {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			start := time.Now()
			v, err := en.EvaluateStrategy(ctx, q, root, s)
			cancel()
			if err != nil {
				t.Errorf("%s under %v: %v after %v", c.query, s, err, time.Since(start))
				continue
			}
			got := len(v.Set)
			if v.Kind != xpath.TypeNodeSet {
				got = int(v.Num)
			}
			if got != n-1 {
				t.Errorf("%s under %v = %d, want %d", c.query, s, got, n-1)
			}
		}
	}
}
