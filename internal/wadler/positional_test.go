package wadler

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/naive"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// positionalQueries exercise the index-served positional path (single
// positional predicate on a child::name step inside a bottom-up path)
// as well as the generic multi-predicate loop it diverts from.
var positionalQueries = []string{
	"//*[child::c[position() = 2]]",
	"//*[child::c[position() = last()]]",
	"//*[child::c[last() > 1]]",
	"//*[child::b[position() mod 2 = 1]]",
	"//*[descendant::a[child::b[position() != last()]]]",
	"//*[child::c[position() = 2] = '2']",
	// Multi-predicate and non-child shapes take the generic loop.
	"//*[child::c[position() > 1][position() = last()]]",
	"//*[descendant::c[position() = 3]]",
	"//*[child::*[position() = 2]]",
}

// positionalDoc builds a randomized nested document with repeated
// element names so positional ranks vary.
func positionalDoc(r *rand.Rand, n int) *xmltree.Document {
	var b strings.Builder
	b.WriteString(`<root>`)
	var open []string
	for i := 0; i < n; i++ {
		switch r.Intn(6) {
		case 0:
			b.WriteString(`<a>`)
			open = append(open, "a")
		case 1:
			b.WriteString(`<b>`)
			open = append(open, "b")
		case 2:
			b.WriteString(`<c>2</c>`)
		case 3:
			b.WriteString(`<c/>`)
		default:
			if len(open) > 0 {
				b.WriteString(`</` + open[len(open)-1] + `>`)
				open = open[:len(open)-1]
			} else {
				b.WriteString(`<b><c/><c>2</c></b>`)
			}
		}
	}
	for len(open) > 0 {
		b.WriteString(`</` + open[len(open)-1] + `>`)
		open = open[:len(open)-1]
	}
	b.WriteString(`</root>`)
	return xmltree.MustParseString(b.String())
}

// TestPositionalAgainstNaive checks the indexed positional path against
// the naive reference engine on randomized documents: positions served
// from the posting lists must agree with materialize-and-scan exactly.
func TestPositionalAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for round := 0; round < 12; round++ {
		d := positionalDoc(r, 10+r.Intn(150))
		ref := naive.New(d)
		c := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
		for _, q := range positionalQueries {
			e := xpath.MustParse(q)
			want, err := ref.Evaluate(e, c)
			if err != nil {
				t.Fatalf("naive %q: %v", q, err)
			}
			got, err := New(d).Evaluate(e, c)
			if err != nil {
				t.Fatalf("round %d %q: %v", round, q, err)
			}
			if !got.Equal(want) {
				t.Errorf("round %d %q: wadler = %+v, naive = %+v", round, q, got, want)
			}
		}
	}
}
