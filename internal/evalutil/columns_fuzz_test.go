package evalutil

import (
	"math"
	"testing"

	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// columnTexts are the texts FuzzLabelColumns puts into its documents:
// numbers by §4.4's rule and near misses, white space around them
// included.
var columnTexts = []string{"1", " 2 ", "-0", "0", "1.5", ".5", "5.", "1e3", "NaN", "Infinity", "abc", "", "12", "-3.25", "\t7\n", "+1", "00"}

// columnsDoc builds a document over the names a and b from fuzzer bytes,
// each byte one builder call: open a or b, close, add a text or a
// comment. Elements left open are closed at the end.
func columnsDoc(ops []byte) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.StartElement("a")
	depth := 1
	for _, op := range ops {
		switch op % 5 {
		case 0, 1:
			b.StartElement([]string{"a", "b"}[op%5])
			depth++
		case 2:
			if depth > 1 {
				b.EndElement()
				depth--
			}
		case 3:
			b.Text(columnTexts[int(op/5)%len(columnTexts)])
		case 4:
			b.Comment("c")
		}
	}
	for ; depth > 0; depth-- {
		b.EndElement()
	}
	return b.MustDone()
}

// FuzzLabelColumns: over a fuzzer-built document, both columns of a
// and of b match their definitions — the rank is the count of the
// parent's element children of the name up to the member, the size all
// of them; the value is StringValue and its number StringToNumber — and
// the value column's hits for a constant are CompareStrval's under
// every op.
func FuzzLabelColumns(f *testing.F) {
	f.Add([]byte{0, 3, 2, 1, 8, 2, 0, 0, 13, 2, 2}, "1", 1.0, true)
	f.Add([]byte{0, 18, 4, 23, 2, 0, 28, 1, 0, 2, 2, 0}, "5", -0.0, false)
	f.Add([]byte{1, 0, 0, 0, 2, 2, 2, 0, 33, 38, 2, 5, 1, 2}, "abc", math.NaN(), true)
	f.Fuzz(func(t *testing.T, ops []byte, s string, n float64, asNumber bool) {
		if len(ops) > 512 {
			t.Skip()
		}
		d := columnsDoc(ops)
		c := semantics.String(s)
		if asNumber {
			c = semantics.Number(n)
		}
		for _, name := range []string{"a", "b"} {
			named, ranks := d.NamedRanks(name)
			if len(ranks) != len(named) {
				t.Fatalf("%s: %d ranks for %d members", name, len(ranks), len(named))
			}
			for i, y := range named {
				var want xmltree.Rank
				for c := d.FirstChild(d.Parent(y)); c != xmltree.NilNode; c = d.NextSibling(c) {
					if d.Type(c) == xmltree.Element && d.Name(c) == name {
						if want.Size++; c == y {
							want.Pos = want.Size
						}
					}
				}
				if ranks[i] != want {
					t.Fatalf("%s: rank of %d is %v, want %v\n%s", name, y, ranks[i], want, d.XMLString())
				}
			}
			named, col := d.NamedValues(name)
			for i, y := range named {
				s := d.StringValue(y)
				if num := semantics.StringToNumber(s); col.Str[i] != s || math.Float64bits(col.Num[i]) != math.Float64bits(num) {
					t.Fatalf("%s: value of %d is %q, %v; want %q, %v", name, y, col.Str[i], col.Num[i], s, num)
				}
			}
			for _, op := range []xpath.BinOp{xpath.OpEq, xpath.OpNeq, xpath.OpLt, xpath.OpLe, xpath.OpGt, xpath.OpGe} {
				var want xmltree.NodeSet
				for _, y := range named {
					if semantics.CompareStrval(d, op, d.StringValue(y), c) {
						want = append(want, y)
					}
				}
				if got := compareColumn(nil, named, col, op, c); !got.Equal(want) {
					t.Fatalf("%s %v %+v: column hits %v, CompareStrval gives %v", name, op, c, got, want)
				}
			}
		}
	})
}
