package xpath

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/axes"
)

// genExpr builds a random normalized-looking AST of bounded depth for
// printer/parser round-trip properties.
func genExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return &Number{Val: float64(r.Intn(100))}
		case 1:
			return &Literal{Val: string(rune('a' + r.Intn(26)))}
		default:
			return genPath(r, 0)
		}
	}
	switch r.Intn(6) {
	case 0:
		ops := []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpMod}
		return &Binary{Op: ops[r.Intn(len(ops))],
			Left: &Number{Val: float64(r.Intn(9))}, Right: genNum(r, depth-1)}
	case 1:
		ops := []BinOp{OpEq, OpNeq, OpLt, OpLe, OpGt, OpGe}
		return &Binary{Op: ops[r.Intn(len(ops))],
			Left: genExpr(r, depth-1), Right: genExpr(r, depth-1)}
	case 2:
		op := []BinOp{OpAnd, OpOr}[r.Intn(2)]
		return &Binary{Op: op,
			Left:  &Call{Name: "boolean", Args: []Expr{genExpr(r, depth-1)}},
			Right: &Call{Name: "boolean", Args: []Expr{genExpr(r, depth-1)}}}
	case 3:
		return &Call{Name: "count", Args: []Expr{genPath(r, depth-1)}}
	case 4:
		return &Negate{X: genNum(r, depth-1)}
	default:
		return genPath(r, depth-1)
	}
}

func genNum(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		return &Number{Val: float64(r.Intn(100))}
	}
	return &Call{Name: "count", Args: []Expr{genPath(r, depth-1)}}
}

var genAxisList = []axes.Axis{axes.Child, axes.Descendant, axes.Parent,
	axes.Ancestor, axes.Self, axes.Following, axes.Preceding,
	axes.FollowingSibling, axes.PrecedingSibling, axes.DescendantOrSelf,
	axes.AncestorOrSelf, axes.AttributeAxis}

func genPath(r *rand.Rand, depth int) *Path {
	p := &Path{Absolute: r.Intn(2) == 0}
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		st := &Step{
			Axis: genAxisList[r.Intn(len(genAxisList))],
			Test: NodeTest{Kind: TestName, Name: []string{"a", "b", "c", "*"}[r.Intn(4)]},
		}
		if depth > 0 && r.Intn(3) == 0 {
			pred := genExpr(r, depth-1)
			// Predicates must be boolean in normalized form.
			if pred.Type() != TypeBoolean {
				pred = &Call{Name: "boolean", Args: []Expr{asNodeSetSafe(pred)}}
			}
			st.Preds = []Expr{pred}
		}
		p.Steps = append(p.Steps, st)
	}
	return p
}

// asNodeSetSafe guards boolean() against number arguments (boolean(num)
// is legal; keep as-is).
func asNodeSetSafe(e Expr) Expr { return e }

// TestPrinterParserRoundTrip: Parse(e.String()) prints identically to e
// for randomly generated normalized trees.
func TestPrinterParserRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(genExpr(r, 3))
		},
	}
	if err := quick.Check(func(e Expr) bool {
		src := e.String()
		parsed, err := Parse(src)
		if err != nil {
			t.Logf("generated %q failed to parse: %v", src, err)
			return false
		}
		if parsed.String() != src {
			// One re-normalization round is permitted (e.g. a number
			// predicate picks up position() = ...); after that the
			// form must be stable.
			again, err := Parse(parsed.String())
			if err != nil || again.String() != parsed.String() {
				t.Logf("unstable printing: %q -> %q", src, parsed.String())
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestNormalizationIdempotent: normalizing twice equals normalizing
// once (checked through the public Parse, which normalizes).
func TestNormalizationIdempotent(t *testing.T) {
	queries := []string{
		"//a[5]",
		"//a[child::b]",
		"//a[.='x' and b]",
		"//a[not(b)]",
		"count(//a[1])",
		"//a[position()=last()][2]",
	}
	for _, q := range queries {
		e1 := MustParse(q)
		e2 := MustParse(e1.String())
		if e1.String() != e2.String() {
			t.Errorf("%q: %q != %q", q, e1.String(), e2.String())
		}
	}
}

// TestTreeString covers the explain printer.
func TestTreeString(t *testing.T) {
	out := TreeString(MustParse("/descendant::*[position() > last()*0.5 or self::* = 100]"))
	for _, want := range []string{
		"path (absolute)",
		"step descendant::*",
		`op "or"`,
		"call position()   : num  Relev={cp}",
		"call last()   : num  Relev={cs}",
		"Relev={cn,cp,cs}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("TreeString missing %q:\n%s", want, out)
		}
	}
	// All node kinds render.
	out = TreeString(MustParse("(id('x'))[1]/a[-1 < 2]"))
	for _, want := range []string{"filter", "literal 'x'", "negate", "head"} {
		if !strings.Contains(out, want) {
			t.Errorf("TreeString missing %q:\n%s", want, out)
		}
	}
}
