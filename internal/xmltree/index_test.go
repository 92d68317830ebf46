package xmltree

import (
	"fmt"
	"slices"
	"testing"
)

func TestContentCount(t *testing.T) {
	d, err := ParseString(`<a x="1"><b>t</b><c y="2"><d/></c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := d.Index()
	for lo := 0; lo <= d.Len(); lo++ {
		for hi := lo; hi <= d.Len(); hi++ {
			want := 0
			for i := lo; i < hi; i++ {
				if !d.IsAttrOrNS(NodeID(i)) {
					want++
				}
			}
			if got := ix.ContentCount(NodeID(lo), NodeID(hi)); got != want {
				t.Fatalf("ContentCount(%d,%d) = %d, want %d", lo, hi, got, want)
			}
		}
	}
	if got := ix.ContentCount(3, 1); got != 0 {
		t.Fatalf("ContentCount on empty interval = %d, want 0", got)
	}
}

// referenceIndex is the index computed from the finished columns, the
// way it was built before the Builder laid it out as it went: one
// forward pass for the posting lists and the content prefix counts, one
// reverse pass folding every node's subtree end into its parent's.
func referenceIndex(d *Document) (subtreeEnd []NodeID, byName map[string]NodeSet, contentBefore []int32) {
	n := d.Len()
	subtreeEnd, byName, contentBefore = make([]NodeID, n), map[string]NodeSet{}, make([]int32, n+1)
	for i := 0; i < n; i++ {
		subtreeEnd[i] = NodeID(i + 1)
		if d.types[i] == Element {
			byName[d.Name(NodeID(i))] = append(byName[d.Name(NodeID(i))], NodeID(i))
		}
		contentBefore[i+1] = contentBefore[i]
		if !d.IsAttrOrNS(NodeID(i)) {
			contentBefore[i+1]++
		}
	}
	for i := n - 1; i >= 1; i-- {
		if p := d.parent[i]; subtreeEnd[i] > subtreeEnd[p] {
			subtreeEnd[p] = subtreeEnd[i]
		}
	}
	return subtreeEnd, byName, contentBefore
}

// indexDiff says how d's index differs from referenceIndex(d), "" when
// it does not. A posting list must also be capped at its end: the lists
// share one array, and an append to one must not write its neighbour.
func indexDiff(d *Document) string {
	ix := d.Index()
	subtreeEnd, byName, contentBefore := referenceIndex(d)
	for i := range subtreeEnd {
		if ix.SubtreeEnd(NodeID(i)) != subtreeEnd[i] {
			return fmt.Sprintf("subtree end of node %d is %d, want %d", i, ix.SubtreeEnd(NodeID(i)), subtreeEnd[i])
		}
	}
	if !slices.Equal(ix.contentBefore, contentBefore) {
		return fmt.Sprintf("content prefix counts %v, want %v", ix.contentBefore, contentBefore)
	}
	if len(ix.label) != len(byName) || len(ix.named) != len(byName)+1 || len(ix.Named("no such name")) != 0 {
		return fmt.Sprintf("%d names with %d posting lists, want %d and one empty", len(ix.label), len(ix.named), len(byName))
	}
	for name, want := range byName {
		got := ix.Named(name)
		if !slices.Equal(got, want) || cap(got) != len(got) {
			return fmt.Sprintf("posting list of %q is %v (cap %d), want %v", name, got, cap(got), want)
		}
	}
	return ""
}

// TestBuilderIndexMatchesReference: documents built through the Builder
// by hand, not by the parser, carry the same index as one rebuilt from
// their columns (FuzzXMLParse holds parsed documents to it).
func TestBuilderIndexMatchesReference(t *testing.T) {
	b := NewBuilder()
	b.ProcInst("pi", "before")
	b.StartElement("a")
	b.NamespaceNode("p", "urn:x")
	b.Attribute("id", "1")
	b.Text("t")
	for i := 0; i < 40; i++ { // past the Builder's room for 32 names and 32 levels
		b.StartElement(fmt.Sprintf("n%d", i%35))
		b.Attribute("k", "v")
	}
	for i := 0; i < 40; i++ {
		b.Comment("c")
		b.EndElement()
	}
	b.StartElement("a")
	b.EndElement()
	b.EndElement()
	b.Comment("after")
	for _, d := range []*Document{b.MustDone(), NewBuilder().MustDone()} {
		if diff := indexDiff(d); diff != "" {
			t.Errorf("%s: %s", d.XMLString(), diff)
		}
	}
}
