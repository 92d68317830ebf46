package xmltree

import (
	"strings"
	"sync"
	"testing"
)

// fig8 is the sample XML document of Figure 8 in the paper.
const fig8 = `<?xml version="1.0"?>
<a id="10">
  <b id="11">
    <c id="12">21 22</c>
    <c id="13">23 24</c>
    <d id="14">100</d>
  </b>
  <b id="21">
    <c id="22">11 12</c>
    <d id="23">13 14</d>
    <d id="24">100</d>
  </b>
</a>`

func mustParse(t *testing.T, s string) *Document {
	t.Helper()
	d, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return d
}

func TestParseDoc4(t *testing.T) {
	// DOC(4) of Section 2: <a><b/><b/><b/><b/></a> has 6 nodes
	// including the root (Example 4.1).
	d := mustParse(t, "<a><b/><b/><b/><b/></a>")
	if d.Len() != 6 {
		t.Fatalf("DOC(4) node count = %d, want 6", d.Len())
	}
	if d.Type(0) != Root {
		t.Errorf("node 0 type = %v, want root", d.Type(0))
	}
	a := d.DocumentElement()
	if d.Name(a) != "a" {
		t.Errorf("document element name = %q, want a", d.Name(a))
	}
	kids := d.Children(a)
	if len(kids) != 4 {
		t.Fatalf("children of a = %d, want 4", len(kids))
	}
	for _, k := range kids {
		if d.Name(k) != "b" || d.Type(k) != Element {
			t.Errorf("child %d: name=%q type=%v, want b/element", k, d.Name(k), d.Type(k))
		}
	}
}

func TestPrimitiveRelations(t *testing.T) {
	d := mustParse(t, "<a><b/><b/></a>")
	a := d.DocumentElement()
	b1 := d.FirstChild(a)
	b2 := d.NextSibling(b1)
	if b1 == NilNode || b2 == NilNode {
		t.Fatal("missing children")
	}
	if d.NextSibling(b2) != NilNode {
		t.Error("b2 should have no next sibling")
	}
	if d.PrevSibling(b2) != b1 {
		t.Error("nextsibling inverse broken")
	}
	if d.FirstChildInv(b1) != a {
		t.Error("firstchild inverse of first child should be parent")
	}
	if d.FirstChildInv(b2) != NilNode {
		t.Error("firstchild inverse of non-first child should be nil")
	}
	if d.Parent(b1) != a || d.Parent(b2) != a {
		t.Error("parent links broken")
	}
	if d.Parent(d.RootID()) != NilNode {
		t.Error("root parent should be nil")
	}
}

func TestDocumentOrderIsArenaOrder(t *testing.T) {
	d := mustParse(t, "<a><b><c/></b><d/></a>")
	// Opening-tag order: root, a, b, c, d.
	names := []string{"", "a", "b", "c", "d"}
	if d.Len() != 5 {
		t.Fatalf("len = %d, want 5", d.Len())
	}
	for i, want := range names {
		if d.Name(NodeID(i)) != want {
			t.Errorf("node %d name = %q, want %q", i, d.Name(NodeID(i)), want)
		}
	}
}

func TestStringValue(t *testing.T) {
	d := mustParse(t, `<a>one<b>two</b><c><d>three</d></c>four</a>`)
	a := d.DocumentElement()
	if got := d.StringValue(a); got != "onetwothreefour" {
		t.Errorf("strval(a) = %q", got)
	}
	if got := d.StringValue(d.RootID()); got != "onetwothreefour" {
		t.Errorf("strval(root) = %q", got)
	}
	b := d.Children(a)[1]
	if got := d.StringValue(b); got != "two" {
		t.Errorf("strval(b) = %q", got)
	}
	// Memoized second call must agree.
	if got := d.StringValue(a); got != "onetwothreefour" {
		t.Errorf("memoized strval(a) = %q", got)
	}
}

// TestStringValueChunks pins the append form to StringValue on every
// node of a document with mixed content, attributes, a comment and a
// processing instruction: the pieces concatenate to the same string
// before the memo is filled, after it is filled, and a yield that
// returns false stops the walk at once.
func TestStringValueChunks(t *testing.T) {
	const src = `<a k="v">one<b>two</b><!--c--><?pi body?><c><d>three</d><e/></c>four</a>`
	chunks := func(d *Document, id NodeID) string {
		var b strings.Builder
		d.StringValueChunks(id, func(s string) bool { b.WriteString(s); return true })
		return b.String()
	}
	cold, warm := mustParse(t, src), mustParse(t, src)
	for i := 0; i < warm.Len(); i++ {
		id := NodeID(i)
		want := warm.StringValue(id) // fills warm's memo
		if got := chunks(cold, id); got != want {
			t.Errorf("node %d (%v): unmemoized chunks = %q, want %q", i, cold.Type(id), got, want)
		}
		if got := chunks(warm, id); got != want {
			t.Errorf("node %d (%v): memoized chunks = %q, want %q", i, warm.Type(id), got, want)
		}
	}
	calls := 0
	cold.StringValueChunks(cold.RootID(), func(string) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("yield ran %d times after returning false, want 1", calls)
	}
}

// TestStringValueConcurrentReaders has many goroutines fill and read
// the lock-free memo of one document at once (run under -race): every
// reader must see the value a sequential reader computes, whichever
// racing store wins.
func TestStringValueConcurrentReaders(t *testing.T) {
	var src strings.Builder
	src.WriteString("<r>")
	for i := 0; i < 200; i++ {
		src.WriteString("<x>a<y>b</y>c</x>")
	}
	src.WriteString("</r>")
	d, ref := mustParse(t, src.String()), mustParse(t, src.String())
	want := make([]string, ref.Len())
	for i := range want {
		want[i] = ref.StringValue(NodeID(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < d.Len(); k++ {
				// Each goroutine starts elsewhere so first fills collide.
				id := NodeID((k + g*97) % d.Len())
				if got := d.StringValue(id); got != want[id] {
					t.Errorf("goroutine %d: strval(%d) = %q, want %q", g, id, got, want[id])
					return
				}
				var n int
				d.StringValueChunks(id, func(s string) bool { n += len(s); return true })
				if n != len(want[id]) {
					t.Errorf("goroutine %d: chunks of %d total %d bytes, want %d", g, id, n, len(want[id]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestAttributesAndIDs(t *testing.T) {
	d := mustParse(t, fig8)
	a := d.DocumentElement()
	if v, ok := d.Attr(a, "id"); !ok || v != "10" {
		t.Errorf("a/@id = %q, %v", v, ok)
	}
	// Figure 8 has 10 element/root nodes plus 9 attribute nodes plus
	// 6 text nodes = 25 total.
	if d.Len() != 25 {
		t.Errorf("node count = %d, want 25", d.Len())
	}
	x14 := d.IDOf("14")
	if x14 == NilNode || d.Name(x14) != "d" {
		t.Fatalf("IDOf(14) = %v (%s)", x14, d.Name(x14))
	}
	if got := d.StringValue(x14); got != "100" {
		t.Errorf("strval(x14) = %q", got)
	}
	set := d.DerefIDs("14 23  99  12")
	if len(set) != 3 {
		t.Fatalf("DerefIDs = %v, want 3 nodes", set)
	}
	for i := 1; i < len(set); i++ {
		if set[i-1] >= set[i] {
			t.Error("DerefIDs result not in document order")
		}
	}
}

func TestRefRelation(t *testing.T) {
	// The example under Theorem 10.7: <t id=1> 3 <t id=2> 1 </t>
	// <t id=3> 1 2 </t> </t> gives ref = {(n1,n3),(n2,n1),(n3,n1),(n3,n2)}.
	d := mustParse(t, `<t id="1"> 3 <t id="2"> 1 </t><t id="3"> 1 2 </t></t>`)
	n1, n2, n3 := d.IDOf("1"), d.IDOf("2"), d.IDOf("3")
	if n1 == NilNode || n2 == NilNode || n3 == NilNode {
		t.Fatal("ids not indexed")
	}
	check := func(x NodeID, want []NodeID) {
		t.Helper()
		got := d.Ref(x)
		if len(got) != len(want) {
			t.Fatalf("ref(%v) = %v, want %v", x, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ref(%v) = %v, want %v", x, got, want)
			}
		}
	}
	check(n1, []NodeID{n3})
	check(n2, []NodeID{n1})
	check(n3, []NodeID{n1, n2})
	// Besides n2 and n3, n1 is referenced by its own id attribute and by
	// the text nodes " 1 " and " 1 2 ", each of which is its own
	// string-value (id(@id) is the element carrying it).
	var elems, others []NodeID
	for _, x := range d.RefInv(n1) {
		if d.Type(x) == Element {
			elems = append(elems, x)
		} else {
			others = append(others, x)
		}
	}
	if len(elems) != 2 || elems[0] != n2 || elems[1] != n3 {
		t.Errorf("refInv(n1) elements = %v, want [%d %d]", elems, n2, n3)
	}
	if len(others) != 3 || d.Type(others[0]) != Attribute || d.Type(others[1]) != Text || d.Type(others[2]) != Text {
		t.Errorf("refInv(n1) others = %v, want n1's id attribute and two text nodes", others)
	}
	for _, x := range others {
		if got := d.Ref(x); len(got) == 0 || got[0] != n1 {
			t.Errorf("ref(%d) = %v, want %d first", x, got, n1)
		}
	}
}

func TestCommentsAndPIs(t *testing.T) {
	d := mustParse(t, `<a><!--note--><?target body?><b/></a>`)
	a := d.DocumentElement()
	kids := d.Children(a)
	if len(kids) != 3 {
		t.Fatalf("children = %d, want 3", len(kids))
	}
	if d.Type(kids[0]) != Comment || d.StringValue(kids[0]) != "note" {
		t.Errorf("comment node wrong: %v %q", d.Type(kids[0]), d.StringValue(kids[0]))
	}
	if d.Type(kids[1]) != ProcInst || d.Name(kids[1]) != "target" {
		t.Errorf("PI node wrong: %v %q", d.Type(kids[1]), d.Name(kids[1]))
	}
	if d.Type(kids[2]) != Element {
		t.Errorf("element child wrong: %v", d.Type(kids[2]))
	}
}

func TestNamespaceNodes(t *testing.T) {
	d := mustParse(t, `<a xmlns:p="urn:x" p:q="v"><p:b/></a>`)
	a := d.DocumentElement()
	var nsCount, attrCount int
	for c := d.FirstChild(a); c != NilNode; c = d.NextSibling(c) {
		switch d.Type(c) {
		case Namespace:
			nsCount++
			if d.Name(c) != "p" || d.Data(c) != "urn:x" {
				t.Errorf("namespace node = %q %q", d.Name(c), d.Data(c))
			}
		case Attribute:
			attrCount++
			if d.Name(c) != "p:q" {
				t.Errorf("attribute name = %q", d.Name(c))
			}
		}
	}
	if nsCount != 1 || attrCount != 1 {
		t.Errorf("ns=%d attr=%d, want 1/1", nsCount, attrCount)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"<a>",
		"<a></b>",
		"just text",
		"<a></a><b></b>", // two document elements is accepted by RawToken; ensure well-formedness of each
	}
	for _, c := range cases[:4] {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

func TestWhitespaceHandling(t *testing.T) {
	src := "<a>\n  <b/>\n</a>"
	d := mustParse(t, src)
	if got := len(d.Children(d.DocumentElement())); got != 1 {
		t.Errorf("default parse children = %d, want 1 (whitespace dropped)", got)
	}
	d2, err := ParseWithOptions(strings.NewReader(src), ParseOptions{KeepWhitespaceText: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d2.Children(d2.DocumentElement())); got != 3 {
		t.Errorf("keep-ws parse children = %d, want 3", got)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	src := `<a id="10"><b>x &amp; y</b><!--c--><?pi data?><c/></a>`
	d := mustParse(t, src)
	out := d.XMLString()
	d2 := mustParse(t, out)
	if d.Len() != d2.Len() {
		t.Fatalf("round trip node count %d != %d\nout=%s", d.Len(), d2.Len(), out)
	}
	for i := 0; i < d.Len(); i++ {
		n1, n2 := nodeFields(d, NodeID(i)), nodeFields(d2, NodeID(i))
		if n1.Type != n2.Type || n1.Name != n2.Name || n1.Data != n2.Data {
			t.Errorf("node %d differs: %+v vs %+v", i, n1, n2)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.StartElement("a")
	if _, err := b.Done(); err == nil {
		t.Error("Done with open element should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("EndElement at root should panic")
		}
	}()
	NewBuilder().EndElement()
}

func TestNodeTypeStrings(t *testing.T) {
	want := map[NodeType]string{
		Root: "root", Element: "element", Text: "text", Comment: "comment",
		Attribute: "attribute", Namespace: "namespace",
		ProcInst: "processing-instruction",
	}
	for ty, s := range want {
		if ty.String() != s {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), s)
		}
	}
	if !Element.HasName() || Text.HasName() || Comment.HasName() || Root.HasName() {
		t.Error("HasName wrong")
	}
}

func TestLang(t *testing.T) {
	d := mustParse(t, `<a xml:lang="en"><b><c/></b><d xml:lang="de"/></a>`)
	a := d.DocumentElement()
	kids := d.Children(a)
	b := kids[0]
	c := d.Children(b)[0]
	dd := kids[1]
	if d.Lang(c) != "en" {
		t.Errorf("lang(c) = %q, want en", d.Lang(c))
	}
	if d.Lang(dd) != "de" {
		t.Errorf("lang(d) = %q, want de", d.Lang(dd))
	}
}

func TestNames(t *testing.T) {
	d := mustParse(t, `<a><b/><c/><b/></a>`)
	got := d.Names()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v, want %v", got, want)
		}
	}
}
