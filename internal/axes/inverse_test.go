package axes

import (
	"testing"

	"repro/internal/xmltree"
)

// TestEvalInverseMatchesInverseAxis: between content nodes the typed
// axis relation is symmetric (Lemma 10.1), so the content part of
// EvalInverse(χ, {y}) for a content node y must equal Eval(χ⁻¹, {y}), on
// a document with every node type. Where attribute and namespace nodes
// make the preimage differ from the inverse axis is pinned by
// TestEvalInverseAroundAttributes and checked by brute force in
// TestEvalInverseMatchesReference.
func TestEvalInverseMatchesInverseAxis(t *testing.T) {
	d, err := xmltree.ParseString(
		`<a x="1"><b><c>t</c></b><!--cm--><?pi p?><e><f/></e></a>`)
	if err != nil {
		t.Fatal(err)
	}
	ordinary := []Axis{Self, Child, Parent, Descendant, Ancestor,
		DescendantOrSelf, AncestorOrSelf, Following, Preceding,
		FollowingSibling, PrecedingSibling}
	for _, ax := range ordinary {
		for i := 0; i < d.Len(); i++ {
			y := xmltree.NodeID(i)
			if d.IsAttrOrNS(y) {
				continue
			}
			got, _ := splitByType(d, EvalInverse(d, ax, xmltree.NodeSet{y}))
			want := Eval(d, ax.Inverse(), xmltree.NodeSet{y})
			if !got.Equal(want) {
				t.Errorf("axis %v node %d: content of EvalInverse %v != Eval(inverse) %v", ax, i, got, want)
			}
		}
	}
}

// TestEvalInverseAroundAttributes pins the preimages that are not the
// inverse axis's image: axes that can start from an attribute node have
// it in their preimage, axes that cannot return one ignore it as a
// target.
func TestEvalInverseAroundAttributes(t *testing.T) {
	d, err := xmltree.ParseString(`<r><e a="1"/><f b="2"><g/></f></r>`)
	if err != nil {
		t.Fatal(err)
	}
	byName := func(name string) xmltree.NodeID { return d.Index().Named(name)[0] }
	r, e, f, g := byName("r"), byName("e"), byName("f"), byName("g")
	a, b := d.FirstChild(e), d.FirstChild(f) // the attributes come first
	set := func(ids ...xmltree.NodeID) xmltree.NodeSet { return xmltree.NewNodeSet(ids...) }
	for _, tc := range []struct {
		axis Axis
		s    xmltree.NodeSet
		want xmltree.NodeSet
	}{
		{Parent, set(e), set(a)},         // //@*[parent::e]
		{Ancestor, set(f), set(b, g)},    // //@*[ancestor::f]
		{AncestorOrSelf, set(b), set(b)}, // an attribute is its own ancestor-or-self
		{Child, set(a), nil},             // //*[child::node()]: an attribute is nobody's child
		{Child, set(a, g), set(f)},       //
		{Descendant, set(a), nil},        //
		{DescendantOrSelf, set(a, g), set(d.RootID(), r, a, f, g)},
		{Following, set(g), set(e, a, b)},  // g follows f's attribute, not f
		{Preceding, set(e), set(f, b, g)},  // e precedes f's attribute too
		{Preceding, set(a), nil},           // preceding never returns an attribute
		{FollowingSibling, set(g), set(b)}, // attributes head the abstract child list
		{FollowingSibling, set(b), nil},    //
		{PrecedingSibling, set(b), nil},    // nothing has an attribute as preceding sibling
		{PrecedingSibling, set(e), set(f)}, //
	} {
		if got := EvalInverse(d, tc.axis, tc.s); !got.Equal(tc.want) {
			t.Errorf("%v⁻¹(%v) = %v, want %v", tc.axis, tc.s, got, tc.want)
		}
	}
}

// TestInverseInvolution: (χ⁻¹)⁻¹ = χ.
func TestInverseInvolution(t *testing.T) {
	for _, ax := range []Axis{Self, Child, Parent, Descendant, Ancestor,
		DescendantOrSelf, AncestorOrSelf, Following, Preceding,
		FollowingSibling, PrecedingSibling} {
		if ax.Inverse().Inverse() != ax {
			t.Errorf("axis %v: double inverse is %v", ax, ax.Inverse().Inverse())
		}
	}
}

// TestAttributeInverseRoundTrip: for every attribute node y of element
// x, x ∈ attribute⁻¹({y}) and y ∈ attribute({x}).
func TestAttributeInverseRoundTrip(t *testing.T) {
	d, err := xmltree.ParseString(`<a p="1" q="2"><b r="3"/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Len(); i++ {
		x := xmltree.NodeID(i)
		if d.Type(x) != xmltree.Element {
			continue
		}
		for _, y := range Eval(d, AttributeAxis, xmltree.NodeSet{x}) {
			back := EvalInverse(d, AttributeAxis, xmltree.NodeSet{y})
			if len(back) != 1 || back[0] != x {
				t.Errorf("attribute⁻¹(%d) = %v, want {%d}", y, back, x)
			}
		}
	}
}

// TestIDAxisInverseConsistency: x ∈ id⁻¹({y}) for every y ∈ id({x}).
func TestIDAxisInverseConsistency(t *testing.T) {
	d, err := xmltree.ParseString(
		`<t id="1"> 2 <t id="2"> 3 </t><t id="3"> 1 </t></t>`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Len(); i++ {
		x := xmltree.NodeID(i)
		for _, y := range EvalID(d, xmltree.NodeSet{x}) {
			back := EvalIDInverse(d, xmltree.NodeSet{y})
			if !back.Contains(x) {
				t.Errorf("id⁻¹(%d) misses %d", y, x)
			}
		}
	}
}

func TestInverseOfIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IDAxis.Inverse() should panic; use EvalIDInverse")
		}
	}()
	_ = IDAxis.Inverse()
}

func TestEvalEmptySet(t *testing.T) {
	d, _ := xmltree.ParseString(`<a/>`)
	for _, ax := range []Axis{Child, Descendant, Following, IDAxis} {
		if got := Eval(d, ax, nil); !got.IsEmpty() {
			t.Errorf("axis %v on empty set = %v", ax, got)
		}
	}
}
