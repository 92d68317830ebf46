package conformance

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/semantics"
	"repro/internal/workload"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// queryGen generates random XPath queries whose cost stays tractable
// for the naive reference engine (bounded depth and step count).
type queryGen struct {
	r *rand.Rand
}

var genAxes = []string{
	"child", "descendant", "parent", "ancestor", "self",
	"descendant-or-self", "ancestor-or-self", "following",
	"preceding", "following-sibling", "preceding-sibling",
}

var genTags = []string{"a", "b", "c", "*"}

func (g *queryGen) step(depth int) string {
	axis := genAxes[g.r.Intn(len(genAxes))]
	tag := genTags[g.r.Intn(len(genTags))]
	s := axis + "::" + tag
	if depth > 0 && g.r.Intn(3) == 0 {
		s += "[" + g.pred(depth-1) + "]"
	}
	return s
}

func (g *queryGen) path(depth int) string {
	n := 1 + g.r.Intn(3)
	s := ""
	if g.r.Intn(2) == 0 {
		s = "/"
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			s += "/"
		}
		s += g.step(depth)
	}
	return s
}

func (g *queryGen) pred(depth int) string {
	switch g.r.Intn(6) {
	case 0:
		return g.path(depth)
	case 1:
		return fmt.Sprintf("position() %s %d", []string{"=", "!=", "<", ">"}[g.r.Intn(4)], 1+g.r.Intn(3))
	case 2:
		return "position() != last()"
	case 3:
		return fmt.Sprintf("%s = '%d'", g.path(depth), g.r.Intn(5))
	case 4:
		if depth > 0 {
			return "not(" + g.pred(depth-1) + ")"
		}
		return "true()"
	default:
		if depth > 0 {
			op := []string{"and", "or"}[g.r.Intn(2)]
			return g.pred(depth-1) + " " + op + " " + g.pred(depth-1)
		}
		return g.path(depth)
	}
}

func (g *queryGen) query() string {
	switch g.r.Intn(5) {
	case 0:
		return "count(" + g.path(1) + ")"
	case 1:
		return "boolean(" + g.path(1) + ")"
	case 2:
		return g.path(1) + " | " + g.path(1)
	default:
		return g.path(2)
	}
}

// randomTextDoc builds a small random document with text values that
// the generated comparisons can hit.
func randomTextDoc(r *rand.Rand) *xmltree.Document {
	b := xmltree.NewBuilder()
	var build func(depth int)
	build = func(depth int) {
		n := r.Intn(4)
		for i := 0; i < n; i++ {
			b.StartElement(genTags[r.Intn(3)]) // a, b, or c
			if r.Intn(3) == 0 {
				b.Text(fmt.Sprintf("%d", r.Intn(5)))
			}
			if depth < 3 {
				build(depth + 1)
			}
			b.EndElement()
		}
	}
	b.StartElement("r")
	build(0)
	b.EndElement()
	return b.MustDone()
}

// TestDifferentialRandomQueries cross-checks all engines on randomly
// generated queries over randomly generated documents. Failures print
// a standalone reproduction.
func TestDifferentialRandomQueries(t *testing.T) {
	const rounds = 400
	r := rand.New(rand.NewSource(20020811)) // VLDB 2002 conference date
	g := &queryGen{r: r}
	for i := 0; i < rounds; i++ {
		d := randomTextDoc(r)
		if d.Len() < 2 {
			continue
		}
		src := g.query()
		e, err := xpath.Parse(src)
		if err != nil {
			t.Fatalf("generated query %q does not parse: %v", src, err)
		}
		es := engines(d)
		// Evaluate from a random context node, not just the root.
		node := xmltree.NodeID(r.Intn(d.Len()))
		if d.IsAttrOrNS(node) {
			node = d.RootID()
		}
		ctx := semantics.Context{Node: node, Pos: 1, Size: 1}
		ref, err := es["naive"].Evaluate(e, ctx)
		if err != nil {
			t.Fatalf("round %d: naive(%q): %v", i, src, err)
		}
		for name, eng := range es {
			if name == "naive" {
				continue
			}
			got, err := eng.Evaluate(e, ctx)
			if err != nil {
				t.Errorf("round %d: %s(%q) over doc %q (ctx %d): %v",
					i, name, src, d.XMLString(), node, err)
				continue
			}
			if !got.Equal(ref) {
				t.Errorf("round %d: %s(%q) = %+v, naive = %+v\ndoc: %s\nctx node: %d",
					i, name, src, got, ref, d.XMLString(), node)
			}
		}
		if t.Failed() && i > 10 {
			t.Fatal("stopping after failures")
		}
	}
}

// TestDifferentialCatalog runs the same differential check over the
// realistic catalog workload with handcrafted query templates that
// exercise ids and values.
func TestDifferentialCatalog(t *testing.T) {
	d := workload.Catalog(25)
	es := engines(d)
	ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
	queries := []string{
		"//product[@category = 'audio']",
		"//product[price > 40 and price < 80]",
		"//product[accessory]/name",
		"id(//accessory)",
		"id(//accessory)/price",
		"//product[not(discontinued)][position() < 3]",
		"count(//product[price = 10])",
		"sum(//price) > 100",
		"//product[starts-with(name, 'Product 1')]",
		"//name[contains(., '7')]",
		"//product[substring(name, 9) = '3']",
	}
	for _, src := range queries {
		e := xpath.MustParse(src)
		ref, err := es["naive"].Evaluate(e, ctx)
		if err != nil {
			t.Fatalf("naive(%q): %v", src, err)
		}
		for name, eng := range es {
			got, err := eng.Evaluate(e, ctx)
			if err != nil {
				t.Errorf("%s(%q): %v", name, src, err)
				continue
			}
			if !got.Equal(ref) {
				t.Errorf("%s(%q) = %+v, naive = %+v", name, src, got, ref)
			}
		}
	}
}
