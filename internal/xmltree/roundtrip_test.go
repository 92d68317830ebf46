package xmltree

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// genDoc builds a random document with text content drawn from
// characters that exercise the serializer's escaping.
func genDoc(r *rand.Rand) *Document {
	chars := []rune{'a', 'b', '<', '>', '&', '"', '\'', ' ', '1'}
	randText := func() string {
		n := 1 + r.Intn(6)
		out := make([]rune, n)
		for i := range out {
			out[i] = chars[r.Intn(len(chars))]
		}
		return string(out)
	}
	b := NewBuilder()
	b.StartElement("root")
	// Adjacent text nodes cannot survive an XML round trip (the
	// serialization concatenates them); emit at most one in a row.
	lastWasText := false
	var build func(depth int)
	build = func(depth int) {
		for i := r.Intn(4); i > 0; i-- {
			choice := r.Intn(5)
			if choice == 0 && lastWasText {
				choice = 4
			}
			lastWasText = choice == 0
			switch choice {
			case 0:
				b.Text(randText())
			case 1:
				b.StartElement(string(rune('a' + r.Intn(3))))
				if r.Intn(2) == 0 {
					b.Attribute("k", randText())
				}
				if depth < 3 {
					build(depth + 1)
				}
				b.EndElement()
			case 2:
				b.Comment("c" + string(rune('0'+r.Intn(10))))
			case 3:
				b.ProcInst("pi", "data")
			default:
				b.StartElement("leaf")
				b.EndElement()
			}
		}
	}
	build(0)
	b.EndElement()
	return b.MustDone()
}

// TestSerializeParseRoundTrip: WriteXML followed by Parse reproduces
// the tree, node for node, including escaped text and attribute values.
func TestSerializeParseRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(genDoc(r))
		},
	}
	if err := quick.Check(func(d *Document) bool {
		out := d.XMLString()
		d2, err := ParseWithOptions(
			// Whitespace-only text must survive the round trip.
			readerOf(out), ParseOptions{KeepWhitespaceText: true})
		if err != nil {
			t.Logf("re-parse failed: %v\nxml: %s", err, out)
			return false
		}
		if d.Len() != d2.Len() {
			t.Logf("node count %d != %d\nxml: %s", d.Len(), d2.Len(), out)
			return false
		}
		for i := 0; i < d.Len(); i++ {
			n1, n2 := nodeFields(d, NodeID(i)), nodeFields(d2, NodeID(i))
			if n1.Type != n2.Type || n1.Name != n2.Name || n1.Data != n2.Data ||
				n1.Parent != n2.Parent || n1.FirstChild != n2.FirstChild ||
				n1.NextSibling != n2.NextSibling {
				t.Logf("node %d differs: %+v vs %+v\nxml: %s", i, n1, n2, out)
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestStringValueStability: strval is identical before and after a
// serialization round trip (they are computed from the same tree).
func TestStringValueStability(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(genDoc(r))
		},
	}
	if err := quick.Check(func(d *Document) bool {
		d2, err := ParseWithOptions(readerOf(d.XMLString()), ParseOptions{KeepWhitespaceText: true})
		if err != nil {
			return false
		}
		for i := 0; i < d.Len(); i++ {
			if d.StringValue(NodeID(i)) != d2.StringValue(NodeID(i)) {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func readerOf(s string) *strings.Reader { return strings.NewReader(s) }
