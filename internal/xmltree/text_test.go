package xmltree

import (
	"fmt"
	"strings"
	"testing"
)

// TestTextPaths spells out, for each way text enters a document, every
// node the parse builds — type, name and data — and the string-value of
// every element: references in text and in attribute values, CDATA,
// comments, processing instructions, namespace declarations, empty text
// and texts side by side. Character data that needs no decoding is read
// from the source, the rest from the side buffer; both must read back
// as written here.
func TestTextPaths(t *testing.T) {
	cases := []struct {
		src   string
		opts  ParseOptions
		nodes []string // every node but the root, as "type name data"
		vals  []string // the string-value of every element, in document order
	}{
		{
			src:   `<a>x &lt;&gt;&amp;&apos;&quot; y</a>`,
			nodes: []string{`element "a" ""`, `text "" "x <>&'\" y"`},
			vals:  []string{`x <>&'" y`},
		},
		{
			src:   `<a>&#65;&#x42;&#x10FFFF;&#13;</a>`,
			nodes: []string{`element "a" ""`, `text "" "AB\U0010ffff\r"`},
			vals:  []string{"AB\U0010FFFF\r"},
		},
		{
			src: `<a b="&lt;&#65;&#x42;" c='plain' d="x&#10;y" e="1` + "\r\n" + `2"/>`,
			nodes: []string{`element "a" ""`, `attribute "b" "<AB"`, `attribute "c" "plain"`,
				`attribute "d" "x\ny"`, `attribute "e" "1\n2"`},
			vals: []string{""},
		},
		{
			src:   `<a><![CDATA[<&amp;>]]></a>`,
			nodes: []string{`element "a" ""`, `text "" "<&amp;>"`},
			vals:  []string{"<&amp;>"},
		},
		{
			src:   "<a><![CDATA[x\r\ny\rz]]>\r\n</a>",
			nodes: []string{`element "a" ""`, `text "" "x\ny\nz\n"`},
			vals:  []string{"x\ny\nz\n"},
		},
		{
			src:   `<a><!-- c &amp; --><!----></a>`,
			nodes: []string{`element "a" ""`, `comment "" " c &amp; "`, `comment "" ""`},
			vals:  []string{""},
		},
		{
			src:   `<?top?><a><?tgt  body &amp; ?>t</a>`,
			nodes: []string{`processing-instruction "top" ""`, `element "a" ""`, `processing-instruction "tgt" "body &amp; "`, `text "" "t"`},
			vals:  []string{"t"},
		},
		{
			src: `<p:a xmlns:p="urn:&amp;p" xmlns="urn:d" p:b="v"><c xmlns:p=""/></p:a>`,
			nodes: []string{`element "p:a" ""`, `namespace "p" "urn:&p"`, `namespace "" "urn:d"`, `attribute "p:b" "v"`,
				`element "c" ""`, `namespace "p" ""`},
			vals: []string{"", ""},
		},
		{
			src:   `<a b=""><![CDATA[]]></a>`,
			opts:  ParseOptions{KeepWhitespaceText: true},
			nodes: []string{`element "a" ""`, `attribute "b" ""`},
			vals:  []string{""},
		},
		{
			src:   `<a> <b> </b><![CDATA[ ]]>&#32;</a>`,
			opts:  ParseOptions{KeepWhitespaceText: true},
			nodes: []string{`element "a" ""`, `text "" " "`, `element "b" ""`, `text "" " "`, `text "" "  "`},
			vals:  []string{"    ", " "},
		},
		{
			src:   `<a>x<![CDATA[y]]>&amp;z<!--c-->w<b>v</b>u</a>`,
			nodes: []string{`element "a" ""`, `text "" "xy&z"`, `comment "" "c"`, `text "" "w"`, `element "b" ""`, `text "" "v"`, `text "" "u"`},
			vals:  []string{"xy&zwvu", "v"},
		},
		{
			src:   `<a>x<!--c-->y</a>`,
			opts:  ParseOptions{DropComments: true},
			nodes: []string{`element "a" ""`, `text "" "xy"`},
			vals:  []string{"xy"},
		},
	}
	for _, c := range cases {
		d, err := ParseWithOptions(strings.NewReader(c.src), c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		var nodes, vals []string
		for i := 1; i < d.Len(); i++ {
			id := NodeID(i)
			nodes = append(nodes, fmt.Sprintf("%v %q %q", d.Type(id), d.Name(id), d.Data(id)))
			if d.Type(id) == Element {
				vals = append(vals, d.StringValue(id))
			}
		}
		if got, want := strings.Join(nodes, "\n"), strings.Join(c.nodes, "\n"); got != want {
			t.Errorf("%q (%+v): nodes\n%s\nwant\n%s", c.src, c.opts, got, want)
		}
		if fmt.Sprintf("%q", vals) != fmt.Sprintf("%q", c.vals) {
			t.Errorf("%q (%+v): element string-values %q, want %q", c.src, c.opts, vals, c.vals)
		}
		if got, want := d.StringValue(d.RootID()), strings.Join(c.vals[:1], ""); got != want && d.DocumentElement() == 1 {
			t.Errorf("%q: string-value of the root %q, want the document element's %q", c.src, got, want)
		}
	}
}
