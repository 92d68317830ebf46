package main

import (
	"encoding/xml"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The tests below pin the oracle against what the generated XML text
// itself says, read back with encoding/xml, never against an engine of
// this repository.

// element is a generic XML tree for reading a generated document back.
type element struct {
	XMLName  xml.Name
	Attrs    []xml.Attr `xml:",any,attr"`
	Text     string     `xml:",chardata"`
	Children []element  `xml:",any"`
}

func (e *element) attr(name string) string {
	for _, a := range e.Attrs {
		if a.Name.Local == name {
			return a.Value
		}
	}
	return ""
}

// find returns the descendants of e named name, in document order.
func (e *element) find(name string) []*element {
	var out []*element
	for i := range e.Children {
		c := &e.Children[i]
		if c.XMLName.Local == name {
			out = append(out, c)
		}
		out = append(out, c.find(name)...)
	}
	return out
}

// child returns the text of e's children named name.
func (e *element) child(name string) []string {
	var out []string
	for _, c := range e.Children {
		if c.XMLName.Local == name {
			out = append(out, c.Text)
		}
	}
	return out
}

func parseBack(t *testing.T, d *doc) *element {
	t.Helper()
	var root element
	if err := xml.Unmarshal([]byte(d.xml), &root); err != nil {
		t.Fatalf("generated XML does not parse: %v", err)
	}
	return &root
}

func expectOf(t *testing.T, text string, d *doc) answer {
	t.Helper()
	for _, tm := range pool {
		if tm.text == text {
			return tm.expect(d)
		}
	}
	t.Fatalf("no pool template %q", text)
	return answer{}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b := genDoc("d", 7, 30), genDoc("d", 7, 30)
	if a.xml != b.xml {
		t.Fatal("same seed gave different documents")
	}
	if c := genDoc("d", 8, 30); c.xml == a.xml {
		t.Fatal("different seeds gave the same document")
	}
}

func TestPoolShape(t *testing.T) {
	if len(pool) != 24 {
		t.Fatalf("pool has %d templates, want 24", len(pool))
	}
	perClass := map[string]int{}
	seen := map[string]bool{}
	for _, tm := range pool {
		perClass[tm.class]++
		if seen[tm.text] {
			t.Errorf("template %q appears twice", tm.text)
		}
		seen[tm.text] = true
	}
	for _, c := range []string{"core", "xpatterns", "wadler", "full"} {
		if perClass[c] != 6 {
			t.Errorf("class %s has %d templates, want 6", c, perClass[c])
		}
	}
}

func TestOracleClosedForms(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, items := range []int{3, 30, 200} {
			d := genDoc("d", seed, items)
			root := parseBack(t, d)
			itemEls := root.find("item")
			auctions := root.find("open_auction")

			// count(//item) is the number of items asked for.
			if got := expectOf(t, "count(//item)", d); got.kind != "number" || got.number != float64(items) || got.str != strconv.Itoa(items) {
				t.Errorf("seed %d items %d: count(//item) = %+v", seed, items, got)
			}
			if len(itemEls) != items {
				t.Fatalf("seed %d: XML holds %d items, want %d", seed, len(itemEls), items)
			}

			// sum(//open_auction/current) from the text of the XML.
			sum := 0
			for _, a := range auctions {
				n, err := strconv.Atoi(a.child("current")[0])
				if err != nil {
					t.Fatal(err)
				}
				sum += n
			}
			if got := expectOf(t, "sum(//open_auction/current)", d); got.number != float64(sum) {
				t.Errorf("seed %d items %d: sum of current = %v, XML says %d", seed, items, got.number, sum)
			}

			// Positional bidder[1] and bidder[last()].
			var first, last []string
			for _, a := range auctions {
				var incs []string
				for i := range a.Children {
					if a.Children[i].XMLName.Local == "bidder" {
						incs = append(incs, a.Children[i].child("increase")[0])
					}
				}
				if len(incs) > 0 {
					first, last = append(first, incs[0]), append(last, incs[len(incs)-1])
				}
			}
			checkNodeSet(t, expectOf(t, "//open_auction/bidder[1]/increase", d), first)
			checkNodeSet(t, expectOf(t, "//open_auction/bidder[last()]/increase", d), last)

			// id('person1') is the person element carrying that id.
			var person1 []string
			for _, p := range root.find("person") {
				if p.attr("id") == "person1" {
					person1 = p.child("name")
				}
			}
			checkNodeSet(t, expectOf(t, "id('person1')/name", d), person1)

			// A union comes back merged in document order: within each
			// auction, current precedes itemref.
			var merged []string
			for _, a := range auctions {
				merged = append(merged, a.child("current")[0], a.child("itemref")[0])
			}
			checkNodeSet(t, expectOf(t, "//open_auction/current | //open_auction/itemref", d), merged)
		}
	}
}

// checkNodeSet compares a node-set answer with the full list of values
// the XML gives, in document order.
func checkNodeSet(t *testing.T, got answer, want []string) {
	t.Helper()
	if got.kind != "node-set" || got.count != len(want) {
		t.Errorf("kind %q count %d, want node-set of %d", got.kind, got.count, len(want))
		return
	}
	head := want[:min(len(want), maxCheckedNodes)]
	if len(got.values)+len(head) > 0 && !reflect.DeepEqual(got.values, head) {
		t.Errorf("values %v, want %v", got.values, head)
	}
	str := ""
	if len(want) > 0 {
		str = want[0]
	}
	if got.str != str {
		t.Errorf("string %q, want %q", got.str, str)
	}
}

func TestNodeSetSortsAndDeduplicates(t *testing.T) {
	got := nodeSet([]leaf{{pos: 9, val: "c"}, {pos: 2, val: "a"}, {pos: 9, val: "c"}, {pos: 5, val: "b"}})
	if got.count != 3 || got.str != "a" || !reflect.DeepEqual(got.values, []string{"a", "b", "c"}) {
		t.Errorf("nodeSet = %+v", got)
	}
	if empty := nodeSet(nil); empty.count != 0 || empty.str != "" {
		t.Errorf("empty nodeSet = %+v", empty)
	}
}

// Every literal an XPatterns template compares with must occur in every
// document the pool runs on: the XPatterns evaluator mishandles a
// literal no node equals, and the workloads are chosen so that no
// operation fails.
func TestHotDocumentsHoldEveryComparedLiteral(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		d := genDoc("d", seed, 30)
		for _, lit := range []string{">cash<", ">Kenya<", ">Japan<", "<quantity>2<", ">Person 3<", `id="item1"`} {
			if !strings.Contains(d.xml, lit) {
				t.Errorf("seed %d: document lacks %s", seed, lit)
			}
		}
	}
}

func TestColdUnion(t *testing.T) {
	d := genDoc("d", 3, 3)
	seen := map[string]bool{}
	for _, seed := range []int64{1, 2} {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			text, expect := coldUnion(r, "s"+strconv.FormatInt(seed, 10)+"-"+strconv.Itoa(i))
			if seen[text] {
				t.Fatalf("union text repeated: %s", text)
			}
			seen[text] = true
			members := strings.Split(text, " | ")
			if len(members) != 6 {
				t.Fatalf("union of %d members: %s", len(members), text)
			}
			positional := false
			for _, m := range members {
				positional = positional || strings.Contains(m, "/bidder[")
			}
			if !positional {
				t.Fatalf("union without the positional member: %s", text)
			}
			got := expect(d)
			if got.kind != "node-set" || got.count < len(got.values) {
				t.Fatalf("union answer %+v", got)
			}
			// Every value the oracle lists is a leaf text of the document.
			for _, v := range got.values {
				if !strings.Contains(d.xml, ">"+v+"<") {
					t.Errorf("union value %q is no leaf of the document", v)
				}
			}
		}
	}
}

// A union's answer is the document-order merge of its members: checked
// on a hand-made pair of members whose leaves interleave.
func TestUnionMergesInDocumentOrder(t *testing.T) {
	d := genDoc("d", 1, 30)
	names := d.selectItems(anyItem, itemName)
	qtys := d.selectItems(anyItem, itemQty)
	got := nodeSet(append(append([]leaf(nil), qtys...), names...))
	// Within each item, name precedes quantity.
	var want []string
	for i := range names {
		want = append(want, names[i].val, qtys[i].val)
	}
	if got.count != len(want) || !reflect.DeepEqual(got.values, want[:maxCheckedNodes]) {
		t.Errorf("merged %v (count %d), want %v…", got.values, got.count, want[:maxCheckedNodes])
	}
}

func TestAnswerCheck(t *testing.T) {
	f, tr, two := 2.0, true, 2
	want := nodeSet([]leaf{{1, "a"}, {2, "b"}})
	ok := &wireValue{Kind: "node-set", String: "a", Count: &two, Nodes: []struct {
		Value string `json:"value"`
	}{{"a"}, {"b"}}}
	if err := want.check(ok); err != nil {
		t.Errorf("correct node-set rejected: %v", err)
	}
	bad := *ok
	bad.Nodes = []struct {
		Value string `json:"value"`
	}{{"a"}, {"x"}}
	if err := want.check(&bad); err == nil {
		t.Error("wrong node value accepted")
	}
	if err := number(2).check(&wireValue{Kind: "number", String: "2", Number: &f}); err != nil {
		t.Errorf("correct number rejected: %v", err)
	}
	if err := number(3).check(&wireValue{Kind: "number", String: "3", Number: &f}); err == nil {
		t.Error("wrong number accepted")
	}
	if err := boolean(true).check(&wireValue{Kind: "boolean", String: "true", Boolean: &tr}); err != nil {
		t.Errorf("correct boolean rejected: %v", err)
	}
	if err := boolean(false).check(&wireValue{Kind: "boolean", String: "true", Boolean: &tr}); err == nil {
		t.Error("wrong boolean accepted")
	}
	if err := boolean(true).check(nil); err == nil {
		t.Error("missing value accepted")
	}
}

func TestVersionPicksTheVariant(t *testing.T) {
	ds := &docState{name: "d", byVersion: map[uint64]int{3: 0, 5: 1}, acked: 5}
	if v, err := ds.variantFor(5); err != nil || v != 1 {
		t.Errorf("variantFor(5) = %d, %v", v, err)
	}
	if _, err := ds.variantFor(3); err == nil {
		t.Error("a version older than the acknowledged one was accepted")
	}
	if _, err := ds.variantFor(4); err == nil {
		t.Error("a version no registration returned was accepted")
	}
}
