package evalutil

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Tests of the kernels that read the label index's columns: Compared
// off the value column, and the child::name steps whose positional
// predicate is decided off the rank column, against what they replace.

// TestComparedColumnAgrees: every op against a number and a string
// constant, over targets whose texts are the corners of §4.4's number
// rule, a mixed-content and a comment-split element among them. The
// column's hits must be CompareStrval's verdicts on StringValue, and
// Compared must reach exactly the wrappers of those hits.
func TestComparedColumnAgrees(t *testing.T) {
	texts := []string{" 12 ", "-0", "1e3", ".5", "5.", "", "NaN", "Infinity", "abc"}
	src := "<r>"
	for _, s := range texts {
		src += "<w><q>" + s + "</q></w>"
	}
	src += "<w><q>1<b>2</b></q></w><w><q>3<!--c-->4</q></w><w><q/></w></r>"
	d := xmltree.MustParseString(src)
	q := d.Index().Named("q")
	if len(q) != len(texts)+3 {
		t.Fatalf("%d targets", len(q))
	}
	var consts []semantics.Value
	for _, n := range []float64{12, 0, math.Copysign(0, -1), 1000, 0.5, 5, 12.5, 34, math.NaN(), math.Inf(1), math.Inf(-1)} {
		consts = append(consts, semantics.Number(n))
	}
	for _, s := range append(texts, "12", "0", "34", "5", "1000", "x") {
		consts = append(consts, semantics.String(s))
	}
	e := xpath.MustParse("q")
	ops := []xpath.BinOp{xpath.OpEq, xpath.OpNeq, xpath.OpLt, xpath.OpLe, xpath.OpGt, xpath.OpGe}
	k := Backward{Doc: d, Judge: &keepAll{d: d}}
	for _, op := range ops {
		for _, c := range consts {
			var want, wrappers xmltree.NodeSet
			for _, y := range q {
				if semantics.CompareStrval(d, op, d.StringValue(y), c) {
					want = append(want, y)
					wrappers = append(wrappers, d.Parent(y))
				}
			}
			named, col := d.NamedValues("q")
			if got := compareColumn(nil, named, col, op, c); !got.Equal(want) {
				t.Errorf("%v %+v: column hits %v, CompareStrval gives %v", op, c, got, want)
			}
			got, everywhere, err := k.Compared(e, op, c)
			if err != nil || everywhere || !got.Equal(wrappers) {
				t.Errorf("%v %+v: Compared = %v, %v, %v; want %v", op, c, got, everywhere, err, wrappers)
			}
		}
	}
	// The column holds the string-values and ParseNumber's numbers.
	named, col := d.NamedValues("q")
	for i, y := range named {
		s := d.StringValue(y)
		if n := semantics.StringToNumber(s); col.Str[i] != s || math.Float64bits(col.Num[i]) != math.Float64bits(n) {
			t.Errorf("%d: column has %q, %v; want %q, %v", y, col.Str[i], col.Num[i], s, n)
		}
	}
}

// rankJudge decides a bare name predicate, as b in a[b][1], by whether
// the node has such a child element, any other predicate by its rank
// test where it has one and otherwise by a fixed hash of its context —
// of ⟨position, size⟩ alone unless it reads the node. Column and pair
// loop must agree whatever a predicate means, so long as both ask the
// same judge.
type rankJudge struct{ d *xmltree.Document }

func (j rankJudge) holds(p xpath.Expr, c semantics.Context) bool {
	if call, ok := p.(*xpath.Call); ok && call.Name == "boolean" {
		p = call.Args[0]
	}
	if path, ok := p.(*xpath.Path); ok && len(path.Steps) == 1 && len(path.Steps[0].Preds) == 0 {
		for n := j.d.FirstChild(c.Node); n != xmltree.NilNode; n = j.d.NextSibling(n) {
			if j.d.Type(n) == xmltree.Element && j.d.Name(n) == path.Steps[0].Test.Name {
				return true
			}
		}
		return false
	}
	if test, ok := rankTest(p); ok {
		return test(float64(c.Pos), float64(c.Size))
	}
	h, relev := 1, xpath.RelevantContext(p)
	if relev.Has(xpath.RelevPos) {
		h += c.Pos * 7
	}
	if relev.Has(xpath.RelevSize) {
		h += c.Size * 13
	}
	if relev.Has(xpath.RelevNode) {
		h += int(c.Node) * 5
	}
	return h%3 == 0
}

func (j rankJudge) JudgeStep(preds []xpath.Expr, yt xmltree.NodeSet) (xmltree.NodeSet, error) {
	keep := yt[:0]
	for _, y := range yt {
		ok := true
		for _, p := range preds {
			ok = ok && j.holds(p, semantics.Context{Node: y, Pos: -1, Size: -1})
		}
		if ok {
			keep = append(keep, y)
		}
	}
	return keep, nil
}

func (j rankJudge) RankStep(*xpath.Step, xmltree.NodeSet) (PredEval, error) {
	return func(p xpath.Expr, c semantics.Context) (semantics.Value, error) {
		return semantics.Boolean(j.holds(p, c)), nil
	}, nil
}

func (j rankJudge) Head(head xpath.Expr, _ xmltree.NodeSet) (xmltree.NodeSet, error) {
	return nil, fmt.Errorf("no heads here: %s", head)
}

// pairLoop is the step's image of one previous context node x by the
// pair loop the rank column replaces.
func pairLoop(d *xmltree.Document, j StepJudge, step *xpath.Step, x xmltree.NodeID) xmltree.NodeSet {
	eval, _ := j.RankStep(step, nil)
	loop := NewPairLoop(nil, d, step, nil)
	z, err := loop.RankedCandidates(x, make(xmltree.NodeSet, 0, d.Len()), eval)
	if err != nil {
		panic(err)
	}
	return z
}

// TestRankColumnAgrees: the child::a steps the rank column decides, and
// the two shapes left to the pair loop, from several context sets over
// nested same-name elements: Forward's image and rows and Backward's
// Reach must be the pair loop's, node for node.
func TestRankColumnAgrees(t *testing.T) {
	docs := []string{
		`<a><a/><x><a/></x><a><a/><a/></a></a>`,
		`<a><a><b/></a><x><a/><a><b/></a></x><a><a/><a><b/></a><a><b/><a/></a><a/></a><a><b/></a></a>`,
	}
	queries := []struct {
		src    string
		column bool
	}{
		{"a[1]", true},
		{"a[last()]", true},
		{"a[position() mod 2 = 0]", true},
		{"a[position() = last() - 1]", true},
		{"a[1][b]", true},
		{"a[position() = count(/a)]", true},    // no rank test: the verdict memo
		{"a[b and position() = last()]", true}, // reads the node: eval per member
		{"a[2][1]", false},
		{"a[b][1]", false},
	}
	r := rand.New(rand.NewSource(41))
	checked := 0
	for _, src := range docs {
		d := xmltree.MustParseString(src)
		j := rankJudge{d: d}
		dom := make(xmltree.NodeSet, d.Len())
		for i := range dom {
			dom[i] = xmltree.NodeID(i)
		}
		sets := []xmltree.NodeSet{{d.RootID()}, {d.DocumentElement()}, d.Index().Named("a"), dom}
		for i := 0; i < 6; i++ {
			var x xmltree.NodeSet
			for _, n := range dom {
				if r.Intn(2) == 0 {
					x = append(x, n)
				}
			}
			sets = append(sets, x, xmltree.NodeSet{dom[r.Intn(len(dom))]})
		}
		for _, q := range queries {
			p := xpath.MustParse(q.src).(*xpath.Path)
			step := p.Steps[0]
			if RankedByColumn(step) != q.column {
				t.Fatalf("%s: RankedByColumn = %v", q.src, !q.column)
			}
			for _, x := range sets {
				var want xmltree.NodeSet
				for _, xn := range x {
					want = want.Union(pairLoop(d, j, step, xn))
				}
				k := Forward{Doc: d, Judge: j}
				got, err := k.Image(p, x)
				if err != nil || !got.Equal(want) {
					t.Errorf("%s from %v: Image = %v, %v; pair loop gives %v", q.src, x, got, err, want)
				}
				flat, off, err := k.Rows(p.Steps, 0, x)
				if err != nil {
					t.Fatalf("%s: Rows: %v", q.src, err)
				}
				for i, xn := range x {
					if row, want := flat[off[i]:off[i+1]], pairLoop(d, j, step, xn); !row.Equal(want) {
						t.Errorf("%s: row of %d is %v; pair loop gives %v", q.src, xn, row, want)
					}
				}
				// Backward: x plays Y, every node a previous context node.
				var reach xmltree.NodeSet
				for _, n := range dom {
					if pairLoop(d, j, step, n).Intersects(x) {
						reach = append(reach, n)
					}
				}
				if got, all, err := (Backward{Doc: d, Judge: j}).Reach(p, x); err != nil || all || !got.Equal(reach) {
					t.Errorf("%s, Y = %v: Reach = %v, %v, %v; pair loop gives %v", q.src, x, got, all, err, reach)
				}
				checked++
			}
		}
	}
	if checked != len(docs)*len(queries)*16 {
		t.Errorf("checked %d cases", checked)
	}
}

// TestColumnsFirstUseRace: eight goroutines take the first use of one
// label's two columns at the same moment (run under -race); all see the
// same columns, and those are right.
func TestColumnsFirstUseRace(t *testing.T) {
	d := xmltree.MustParseString(`<a><a>1</a><x><a> 2 </a></x><a><a>3</a><a/></a></a>`)
	var wg sync.WaitGroup
	start := make(chan struct{})
	ranks := make([][]xmltree.Rank, 8)
	vals := make([]*xmltree.Values, 8)
	for g := range ranks {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if g%2 == 0 {
				_, ranks[g] = d.NamedRanks("a")
				_, vals[g] = d.NamedValues("a")
			} else {
				_, vals[g] = d.NamedValues("a")
				_, ranks[g] = d.NamedRanks("a")
			}
		}(g)
	}
	close(start)
	wg.Wait()
	want := "[{1 1} {1 2} {1 1} {2 2} {1 2} {2 2}]" // ⟨Pos Size⟩ by member
	for g := range ranks {
		if &ranks[g][0] != &ranks[0][0] || vals[g] != vals[0] {
			t.Fatalf("goroutine %d was handed columns of its own", g)
		}
	}
	if fmt.Sprint(ranks[0]) != want {
		t.Errorf("rank column %v, want %v", ranks[0], want)
	}
	if got := fmt.Sprintf("%q %v", vals[0].Str, vals[0].Num); got != `["1 2 3" "1" " 2 " "3" "3" ""] [NaN 1 2 3 3 NaN]` {
		t.Errorf("value column %s", got)
	}
}
