package mincontext

import (
	"context"
	"strings"
	"testing"

	"repro/internal/axes"
	"repro/internal/evalutil"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The rank tests of evalutil.PredVerdicts against this package's
// interpreter: a predicate built of position(), last() and numbers keeps,
// at every 1 ≤ pos ≤ size ≤ 40 and on forward and reverse axes alike,
// exactly the candidates at which ToBoolean of EvalSingleContext holds.

// rankSeeds are the pool's four positional predicates and the corners of
// the float domain: NaN, ±Infinity (1 div 0), −0 and mod of negatives.
var rankSeeds = []string{
	"1", "last()", "position() mod 2 = 0", "position() = last()",
	"position() = 1 div 0", "position() < 1 div 0", "-position() > -1 div 0",
	"position() != 0 div 0", "not(0 div 0)", "boolean(position() mod 0)",
	"position() mod 0 = position() mod 0", "1 div -0 < 0", "1 div (position() - position()) > 0",
	"-0 = 0", "1 div (0 * -1) < 0", "1 div (-position() mod 1) < 0",
	"(position() - 3) mod 2 = -1", "-position() mod 3 = -0", "position() mod -2 = 1",
	"(0 - position()) mod (0 - 3) = -1", "position() mod 2.5 < 1", "position() div 3 = 1 div 3 * position()",
	"position() > last() * 0.5 or position() = 1", "position() = 2 and true()", "false() or not(position() = last())",
	"not(position() = last()) = false()", "position() - 2", "(position() = 1) = (last() = 1)",
	"true() > false()", "position() < true() + 1", "position() = true()", "position() != (last() = 3)",
	"last() - position() < 2", "-(-position()) = position()", "position() * 0.1 * 10 = position()",
	"9007199254740993 mod position() = 1", "position() + 9007199254740992 = 9007199254740993",
}

// rankDoc has more nodes than any candidate list below is long.
var rankDoc = xmltree.MustParseString("<r>" + strings.Repeat("<c/>", 40) + "</r>")

// checkRankTest compares, for one predicate, evalutil.FilterPositions
// with the predicate's Verdicts against FilterPositions asking the
// interpreter at every candidate, and returns how often the former asked
// the interpreter.
func checkRankTest(t *testing.T, src string) (calls int, ok bool) {
	t.Helper()
	e, err := xpath.Parse("self::node()[" + src + "]")
	if err != nil || xpath.HasVariables(e) {
		return 0, false
	}
	p, isPath := e.(*xpath.Path)
	if !isPath || len(p.Steps) != 1 || len(p.Steps[0].Preds) != 1 {
		return 0, false
	}
	pred := p.Steps[0].Preds[0]
	if xpath.RelevantContext(pred).Has(xpath.RelevNode) {
		return 0, false
	}
	run, err := New(rankDoc).Begin(context.Background(), pred)
	if err != nil {
		t.Fatal(err)
	}
	interp := func(x xpath.Expr, c semantics.Context) (semantics.Value, error) {
		return run.EvalSingleContext(x, c)
	}
	counted := func(x xpath.Expr, c semantics.Context) (semantics.Value, error) {
		calls++
		return interp(x, c)
	}
	seen := evalutil.PredVerdicts([]xpath.Expr{pred})[0]
	z := make(xmltree.NodeSet, 40)
	for i := range z {
		z[i] = xmltree.NodeID(i + 1)
	}
	for _, a := range []axes.Axis{axes.Child, axes.Following, axes.Ancestor, axes.PrecedingSibling} {
		for size := 1; size <= len(z); size++ {
			want, err := evalutil.FilterPositions(a, pred, z[:size], nil, interp, nil)
			if err != nil {
				return calls, false
			}
			got, err := evalutil.FilterPositions(a, pred, z[:size], nil, counted, seen)
			if err != nil || !got.Equal(want) {
				t.Fatalf("[%s] on %s at size %d keeps %v (%v), the interpreter %v", src, a, size, got, err, want)
			}
		}
	}
	return calls, true
}

// TestRankTestMatchesInterpreter: every seed is compiled — not one
// interpreter call — and keeps what the interpreter keeps.
func TestRankTestMatchesInterpreter(t *testing.T) {
	for _, src := range rankSeeds {
		calls, ok := checkRankTest(t, src)
		if !ok {
			t.Errorf("[%s] was not checked", src)
		}
		if calls != 0 {
			t.Errorf("[%s] asked the interpreter %d times; it is built of position(), last() and numbers", src, calls)
		}
	}
	// A cn-free predicate outside the grammar keeps the memo: one call
	// per ⟨cp, cs⟩ and axis direction, the same survivors.
	if calls, _ := checkRankTest(t, "position() = count(/r/c) - 38"); calls == 0 {
		t.Error("a predicate reading a path was compiled")
	}
}

// FuzzRankTest: whatever cn-free predicate parses, its Verdicts keep at
// every position and size what the interpreter keeps.
func FuzzRankTest(f *testing.F) {
	for _, src := range rankSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 200 {
			t.Skip("long predicate")
		}
		checkRankTest(t, src)
	})
}
