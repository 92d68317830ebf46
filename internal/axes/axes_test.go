package axes

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

// testDoc builds the tree of Example 6.4: root r, element a with four
// b children.
func doc4(t *testing.T) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString("<a><b/><b/><b/><b/></a>")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// nested builds <a><b><c/><d/></b><e><f/></e></a>.
func nested(t *testing.T) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString("<a><b><c/><d/></b><e><f/></e></a>")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func byName(d *xmltree.Document, name string) xmltree.NodeID {
	for i := 0; i < d.Len(); i++ {
		if d.Name(xmltree.NodeID(i)) == name && d.Type(xmltree.NodeID(i)) == xmltree.Element {
			return xmltree.NodeID(i)
		}
	}
	return xmltree.NilNode
}

func names(d *xmltree.Document, s xmltree.NodeSet) []string {
	var out []string
	for _, id := range s {
		n := d.Name(id)
		if n == "" {
			n = d.Type(id).String()
		}
		out = append(out, n)
	}
	return out
}

func TestChildParent(t *testing.T) {
	d := nested(t)
	a := byName(d, "a")
	got := EvalNode(d, Child, a)
	if want := []string{"b", "e"}; !reflect.DeepEqual(names(d, got), want) {
		t.Errorf("child(a) = %v, want %v", names(d, got), want)
	}
	b := byName(d, "b")
	if got := EvalNode(d, Parent, b); len(got) != 1 || got[0] != a {
		t.Errorf("parent(b) = %v", got)
	}
	if got := EvalNode(d, Parent, d.RootID()); !got.IsEmpty() {
		t.Errorf("parent(root) = %v, want empty", got)
	}
}

func TestDescendantAncestor(t *testing.T) {
	d := nested(t)
	a := byName(d, "a")
	got := EvalNode(d, Descendant, a)
	if want := []string{"b", "c", "d", "e", "f"}; !reflect.DeepEqual(names(d, got), want) {
		t.Errorf("descendant(a) = %v, want %v", names(d, got), want)
	}
	f := byName(d, "f")
	anc := EvalNode(d, Ancestor, f)
	if want := []string{"root", "a", "e"}; !reflect.DeepEqual(names(d, anc), want) {
		t.Errorf("ancestor(f) = %v, want %v", names(d, anc), want)
	}
	dos := EvalNode(d, DescendantOrSelf, a)
	if len(dos) != 6 || !dos.Contains(a) {
		t.Errorf("descendant-or-self(a) = %v", names(d, dos))
	}
	aos := EvalNode(d, AncestorOrSelf, f)
	if len(aos) != 4 || !aos.Contains(f) {
		t.Errorf("ancestor-or-self(f) = %v", names(d, aos))
	}
}

func TestSiblingAxes(t *testing.T) {
	d := doc4(t)
	a := d.DocumentElement()
	kids := d.Children(a)
	b1, b2, b3, b4 := kids[0], kids[1], kids[2], kids[3]
	if got := EvalNode(d, FollowingSibling, b1); !got.Equal(xmltree.NewNodeSet(b2, b3, b4)) {
		t.Errorf("following-sibling(b1) = %v", got)
	}
	if got := EvalNode(d, FollowingSibling, b4); !got.IsEmpty() {
		t.Errorf("following-sibling(b4) = %v", got)
	}
	if got := EvalNode(d, PrecedingSibling, b3); !got.Equal(xmltree.NewNodeSet(b1, b2)) {
		t.Errorf("preceding-sibling(b3) = %v", got)
	}
}

func TestFollowingPreceding(t *testing.T) {
	d := nested(t)
	b, c, dd, e, f := byName(d, "b"), byName(d, "c"), byName(d, "d"), byName(d, "e"), byName(d, "f")
	if got := EvalNode(d, Following, c); !got.Equal(xmltree.NewNodeSet(dd, e, f)) {
		t.Errorf("following(c) = %v", names(d, got))
	}
	if got := EvalNode(d, Preceding, f); !got.Equal(xmltree.NewNodeSet(b, c, dd)) {
		t.Errorf("preceding(f) = %v", names(d, got))
	}
	// following excludes descendants; preceding excludes ancestors.
	if got := EvalNode(d, Following, b); got.Contains(c) || got.Contains(dd) {
		t.Errorf("following(b) contains descendants: %v", names(d, got))
	}
	if got := EvalNode(d, Preceding, f); got.Contains(e) {
		t.Errorf("preceding(f) contains ancestor e: %v", names(d, got))
	}
}

func TestAttributeAxis(t *testing.T) {
	d, err := xmltree.ParseString(`<a id="1" x="2"><b y="3"/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	a := d.DocumentElement()
	attrs := EvalNode(d, AttributeAxis, a)
	if len(attrs) != 2 {
		t.Fatalf("attribute(a) = %v", attrs)
	}
	for _, at := range attrs {
		if d.Type(at) != xmltree.Attribute {
			t.Errorf("attribute axis returned %v", d.Type(at))
		}
	}
	// Ordinary axes must not return attribute nodes.
	if got := EvalNode(d, Child, a); len(got) != 1 || d.Name(got[0]) != "b" {
		t.Errorf("child(a) = %v", names(d, got))
	}
	if got := EvalNode(d, Descendant, a); len(got) != 1 {
		t.Errorf("descendant(a) = %v", names(d, got))
	}
	// Self of an attribute keeps the attribute.
	at := attrs[0]
	if got := EvalNode(d, Self, at); len(got) != 1 || got[0] != at {
		t.Errorf("self(attr) = %v", got)
	}
	// Parent of an attribute is its element.
	if got := EvalNode(d, Parent, at); len(got) != 1 || got[0] != a {
		t.Errorf("parent(attr) = %v", got)
	}
	// Inverse of the attribute axis recovers the element.
	if got := EvalInverse(d, AttributeAxis, attrs); len(got) != 1 || got[0] != a {
		t.Errorf("attribute⁻¹ = %v", got)
	}
}

func TestNamespaceAxis(t *testing.T) {
	d, err := xmltree.ParseString(`<a xmlns:p="urn:x"><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	a := d.DocumentElement()
	ns := EvalNode(d, NamespaceAxis, a)
	if len(ns) != 1 || d.Type(ns[0]) != xmltree.Namespace {
		t.Fatalf("namespace(a) = %v", ns)
	}
	if got := EvalNode(d, Child, a); len(got) != 1 || d.Name(got[0]) != "b" {
		t.Errorf("child(a) = %v", names(d, got))
	}
}

func TestInverseProperty(t *testing.T) {
	// Lemma 10.1: x χ y iff y χ⁻¹ x, for every axis and node pair.
	d, err := xmltree.ParseString(`<a><b><c/><d>t</d></b><e x="1"><f/><g/></e></a>`)
	if err != nil {
		t.Fatal(err)
	}
	axesToCheck := []Axis{Self, Child, Parent, Descendant, Ancestor,
		DescendantOrSelf, AncestorOrSelf, Following, Preceding,
		FollowingSibling, PrecedingSibling}
	for _, ax := range axesToCheck {
		for x := 0; x < d.Len(); x++ {
			xs := EvalNode(d, ax, xmltree.NodeID(x))
			for _, y := range xs {
				back := EvalNode(d, ax.Inverse(), y)
				if !back.Contains(xmltree.NodeID(x)) {
					// The attr/ns filter makes pairs involving such
					// nodes legitimately asymmetric; skip them.
					if d.IsAttrOrNS(xmltree.NodeID(x)) || d.IsAttrOrNS(y) {
						continue
					}
					t.Errorf("axis %v: %d→%d but inverse misses", ax, x, y)
				}
			}
		}
	}
}

func TestSelfUnionDecomposition(t *testing.T) {
	// descendant-or-self = descendant ∪ self, ancestor-or-self likewise.
	d := nested(t)
	for x := 0; x < d.Len(); x++ {
		id := xmltree.NodeID(x)
		if d.IsAttrOrNS(id) {
			continue
		}
		dos := EvalNode(d, DescendantOrSelf, id)
		want := EvalNode(d, Descendant, id).Union(xmltree.NodeSet{id})
		if !dos.Equal(want) {
			t.Errorf("descendant-or-self(%d) = %v, want %v", id, dos, want)
		}
		aos := EvalNode(d, AncestorOrSelf, id)
		want = EvalNode(d, Ancestor, id).Union(xmltree.NodeSet{id})
		if !aos.Equal(want) {
			t.Errorf("ancestor-or-self(%d) = %v, want %v", id, aos, want)
		}
	}
}

func TestDocPartition(t *testing.T) {
	// For any element x: {x} ∪ ancestors ∪ descendants ∪ following ∪
	// preceding partitions the element/text/comment/PI nodes of dom.
	d, err := xmltree.ParseString(`<a><b><c/>t</b><e><f/><g>u</g></e><h/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < d.Len(); x++ {
		id := xmltree.NodeID(x)
		if d.IsAttrOrNS(id) {
			continue
		}
		parts := []xmltree.NodeSet{
			{id},
			EvalNode(d, Ancestor, id),
			EvalNode(d, Descendant, id),
			EvalNode(d, Following, id),
			EvalNode(d, Preceding, id),
		}
		var all xmltree.NodeSet
		total := 0
		for _, p := range parts {
			total += len(p)
			all = all.Union(p)
		}
		if total != len(all) {
			t.Errorf("node %d: partition overlaps (total %d, union %d)", id, total, len(all))
		}
		if len(all) != d.Len() {
			t.Errorf("node %d: partition misses nodes (%d of %d)", id, len(all), d.Len())
		}
	}
}

func TestEvalSetSemantics(t *testing.T) {
	// Definition 3.1: χ(X0) = {x | ∃x0 ∈ X0 : x0 χ x} — set evaluation
	// must equal union of per-node evaluations.
	d := nested(t)
	all := []Axis{Child, Parent, Descendant, Ancestor, Following, Preceding,
		FollowingSibling, PrecedingSibling, DescendantOrSelf, AncestorOrSelf}
	S := xmltree.NewNodeSet(byName(d, "b"), byName(d, "e"))
	for _, ax := range all {
		got := Eval(d, ax, S)
		want := EvalNode(d, ax, S[0]).Union(EvalNode(d, ax, S[1]))
		if !got.Equal(want) {
			t.Errorf("axis %v: set eval %v != union %v", ax, got, want)
		}
	}
}

func TestIndex(t *testing.T) {
	d := doc4(t)
	kids := xmltree.NodeSet(d.Children(d.DocumentElement()))
	// Forward axis: idx is position in document order.
	if got := Index(FollowingSibling, kids[1], kids); got != 2 {
		t.Errorf("forward idx = %d, want 2", got)
	}
	// Reverse axis: idx counts from the end (proximity order).
	if got := Index(PrecedingSibling, kids[1], kids); got != 3 {
		t.Errorf("reverse idx = %d, want 3", got)
	}
	if got := Index(Child, 99, kids); got != 0 {
		t.Errorf("missing node idx = %d, want 0", got)
	}
}

func TestIDAxis(t *testing.T) {
	d, err := xmltree.ParseString(`<t id="1"> 3 <t id="2"> 1 </t><t id="3"> 1 2 </t></t>`)
	if err != nil {
		t.Fatal(err)
	}
	n1, n2, n3 := d.IDOf("1"), d.IDOf("2"), d.IDOf("3")
	// id({n2}) = {n1} (text " 1 " references id 1).
	if got := EvalID(d, xmltree.NodeSet{n2}); !got.Equal(xmltree.NodeSet{n1}) {
		t.Errorf("id(n2) = %v", got)
	}
	// id of a set including n1 collects refs from descendants too:
	// descendant-or-self(n1) = {n1,n2,n3}, so refs = {n1,n2,n3}.
	got := EvalID(d, xmltree.NodeSet{n1})
	if !got.Equal(xmltree.NewNodeSet(n1, n2, n3)) {
		t.Errorf("id(n1) = %v", got)
	}
	// Inverse: id⁻¹({n1}) = ancestor-or-self({n2, n3}) = {root, n1, n2,
	// n3}, plus the nodes whose own data names 1: n1's id attribute and
	// the text nodes " 1 " and " 1 2 ". Neither has an ancestor closure.
	inv := EvalIDInverse(d, xmltree.NodeSet{n1})
	if !inv.Equal(xmltree.NewNodeSet(d.RootID(), n1, n1+1, n2, n2+2, n3, n3+2)) {
		t.Errorf("id⁻¹(n1) = %v", inv)
	}
	// Forward from those: a text node or an attribute is its own
	// string-value; a text node below a member counts through it.
	for _, x := range []xmltree.NodeID{n1 + 1, n2 + 2, n3 + 2} {
		if got := EvalID(d, xmltree.NodeSet{x}); !got.Contains(n1) {
			t.Errorf("id(%d) = %v, want it to hold n1", x, got)
		}
	}
	if got := EvalID(d, xmltree.NodeSet{n2, n2 + 2}); !got.Equal(xmltree.NodeSet{n1}) {
		t.Errorf("id(n2, its text) = %v, want [n1]", got)
	}
}

// TestIDJoinsTextBelowAnElement: id() of an element reads the text
// directly inside each element of its subtree (Theorem 10.7), so two
// text children separated by an element are one token, while the same
// text nodes given themselves are two.
func TestIDJoinsTextBelowAnElement(t *testing.T) {
	d := xmltree.MustParseString(`<r><a>22<b/>23</a><x id="22"/><x id="23"/><x id="2223"/></r>`)
	a := d.Children(d.DocumentElement())[0]
	if got := EvalID(d, xmltree.NodeSet{a}); !got.Equal(xmltree.NodeSet{d.IDOf("2223")}) {
		t.Errorf("id(a) = %v, want the element with id 2223", got)
	}
	texts := xmltree.NodeSet{a + 1, a + 3}
	if got := EvalID(d, texts); !got.Equal(xmltree.NewNodeSet(d.IDOf("22"), d.IDOf("23"))) {
		t.Errorf("id(a/text()) = %v, want the elements with ids 22 and 23", got)
	}
	x22 := d.IDOf("22")
	if got := EvalIDInverse(d, xmltree.NodeSet{x22}); !got.Equal(xmltree.NodeSet{a + 1, x22 + 1}) {
		t.Errorf("id⁻¹(22) = %v, want the text node 22 and the id attribute, no element", got)
	}
}

func TestAxisNames(t *testing.T) {
	for _, name := range []string{"self", "child", "parent", "descendant",
		"ancestor", "descendant-or-self", "ancestor-or-self", "following",
		"preceding", "following-sibling", "preceding-sibling", "attribute",
		"namespace"} {
		a, ok := ByName(name)
		if !ok {
			t.Errorf("ByName(%q) failed", name)
			continue
		}
		if a.String() != name {
			t.Errorf("round trip %q -> %v", name, a)
		}
	}
	if _, ok := ByName("sideways"); ok {
		t.Error("ByName accepted a bogus axis")
	}
	if _, ok := ByName("id"); ok {
		t.Error("ByName must not resolve the id pseudo-axis")
	}
}

func TestPrincipalTypes(t *testing.T) {
	if AttributeAxis.PrincipalType() != xmltree.Attribute {
		t.Error("attribute principal type")
	}
	if NamespaceAxis.PrincipalType() != xmltree.Namespace {
		t.Error("namespace principal type")
	}
	if Child.PrincipalType() != xmltree.Element || Following.PrincipalType() != xmltree.Element {
		t.Error("element principal type")
	}
}

// TestAxisDisjointness uses randomized documents to check the
// partitioning property and inverse symmetry at scale.
func TestAxisPropertiesRandomized(t *testing.T) {
	gen := func(r *rand.Rand) *xmltree.Document {
		b := xmltree.NewBuilder()
		var build func(depth int)
		build = func(depth int) {
			n := r.Intn(4)
			for i := 0; i < n; i++ {
				b.StartElement(string(rune('a' + r.Intn(4))))
				if depth < 3 {
					build(depth + 1)
				}
				b.EndElement()
			}
		}
		b.StartElement("doc")
		build(0)
		b.EndElement()
		return b.MustDone()
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(gen(r))
		},
	}
	if err := quick.Check(func(d *xmltree.Document) bool {
		for x := 0; x < d.Len(); x++ {
			id := xmltree.NodeID(x)
			parts := []xmltree.NodeSet{
				{id},
				EvalNode(d, Ancestor, id),
				EvalNode(d, Descendant, id),
				EvalNode(d, Following, id),
				EvalNode(d, Preceding, id),
			}
			var all xmltree.NodeSet
			total := 0
			for _, p := range parts {
				total += len(p)
				all = all.Union(p)
			}
			if total != len(all) || len(all) != d.Len() {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}
