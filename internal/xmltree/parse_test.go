package xmltree

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
	"unsafe"
)

// arenaDiff describes the first difference between two documents' node
// arenas, "" when they are column for column identical.
func arenaDiff(a, b *Document) string {
	if a.Len() != b.Len() {
		return fmt.Sprintf("%d nodes vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if n, m := nodeFields(a, NodeID(i)), nodeFields(b, NodeID(i)); n != m {
			return fmt.Sprintf("node %d: %+v vs %+v", i, n, m)
		}
	}
	if !reflect.DeepEqual(a.idTable(), b.idTable()) {
		return fmt.Sprintf("ID tables %v vs %v", a.idTable(), b.idTable())
	}
	return ""
}

// fields is one node's entry in every column of the arena.
type fields struct {
	Type                                         NodeType
	Name, Data                                   string
	Parent, FirstChild, NextSibling, PrevSibling NodeID
}

func nodeFields(d *Document, id NodeID) fields {
	return fields{d.Type(id), d.Name(id), d.Data(id), d.Parent(id), d.FirstChild(id), d.NextSibling(id), d.PrevSibling(id)}
}

// parseSeeds are documents and non-documents covering every branch of
// the scanner; the fuzz corpus under testdata/fuzz/FuzzXMLParse starts
// from the same list.
var parseSeeds = []string{
	`<a/>`,
	`<a></a>`,
	`<a id="1"><b id="2">x</b><c>1 2</c></a>`,
	`<?xml version="1.0" encoding="UTF-8"?>` + "\n<a>\n  <b/>\n</a>\n",
	`<?xml version='1.0' encoding='utf-8' standalone="yes"?><a/>`,
	`<?xml version="1.1"?><a/>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
	`<?xml encoding="latin1"?><a/>`,
	`<a><?xml version="2.0"?></a>`,
	`<!DOCTYPE a [ <!ENTITY x "y>"> <!-- > --> <!ELEMENT a (#PCDATA)> ]><a/>`,
	`<!DOCTYPE a SYSTEM "a.dtd"><a/>`,
	`<!DOCTYPE a [<!ENTITY x '<'>]><a>&x;</a>`,
	`<!"><a/>`,
	`<!><a/>`,
	`<!x <!> ><a/>`,
	`<!x <!- ><a/>`,
	`<a><!DOCTYPE b>x</a>`,
	`<!-- c --><a/><!-- d --><?pi?>`,
	`<a>x<!--c-->y</a>`,
	`<a>x<?p d?>y</a>`,
	`<a><!----></a>`,
	`<a><!-- a - b --></a>`,
	`<a><!-- a -- b --></a>`,
	`<a><!--->--></a>`,
	`<a><!-- unterminated</a>`,
	`<a><!- x --></a>`,
	`<a>x<![CDATA[y<]]>z</a>`,
	`<a>x<![CDATA[ ]]>y</a>`,
	`<a> <![CDATA[x]]> </a>`,
	`<a><![CDATA[]]></a>`,
	`<a><![CDATA[]]]></a>`,
	`<a><![CDATA[]]]]></a>`,
	`<a> <![CDATA[ ]]> </a>`,
	`<a><![CDATA[<&>]]&gt;]]></a>`,
	`<a><![CDATA[x` + "\r\n" + `y` + "\r" + `z]]></a>`,
	`<a><![CDATA[` + "\r" + `&amp;&bogus]]>&amp;` + "\r" + `</a>`,
	`<a><![CDATA[unterminated</a>`,
	`<a><![CDAT[x]]></a>`,
	`<a><![CDATA[` + "\x01" + `]]></a>`,
	`<![CDATA[ ]]><a/>`,
	`<![CDATA[x]]><a/>`,
	`<a>]]></a>`,
	`<a>]] ></a>`,
	`<a>]]&gt;</a>`,
	`<a b="]]>"/>`,
	"<a>x\r\ny\rz</a>",
	"<a b='x\r\ny\tz\n'/>",
	"<a>\r\n</a>",
	"<a>x\r<![CDATA[\ny]]></a>",
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`,
	`<a b="&lt;&#65;&#x42;&#x63;"/>`,
	`<a>&#13;&#10;&#9;</a>`,
	`<a>&#xD;` + "\n" + `</a>`,
	`<a>&#0;</a>`,
	`<a>&#x1F;</a>`,
	`<a>&#xFFFE;</a>`,
	`<a>&#xD800;</a>`,
	`<a>&#x10FFFF;&#x110000;</a>`,
	`<a>&#x10FFFF;</a>`,
	`<a>&#99999999999999999999;</a>`,
	`<a>&#000000000000000000000065;</a>`,
	`<a>&#;</a>`,
	`<a>&#x;</a>`,
	`<a>&#X41;</a>`,
	`<a>&#6 5;</a>`,
	`<a>&#+65;</a>`,
	`<a>&#65</a>`,
	`<a>&nbsp;</a>`,
	`<a>&amp</a>`,
	`<a>&;</a>`,
	`<a>& </a>`,
	`<a>&`,
	`<a>&#`,
	`<a>&#x4`,
	`<a>&am`,
	`<a b="&`,
	`<a b="x`,
	`<a b="<"/>`,
	`<a b='"' c="'"/>`,
	`<a b=x/>`,
	`<a b/>`,
	`<a b = "1"	c
= '2'/>`,
	`<a b="1"c="2"/>`,
	`<a b="1" b="2"/>`,
	`<a / >`,
	`<a/ >`,
	`<a`,
	`<a `,
	`<a b`,
	`<a b=`,
	`<`,
	`</`,
	`<!`,
	`<!-`,
	`<!--`,
	`<![`,
	`<![CDATA[`,
	`<?`,
	`<?p`,
	`<?p ?`,
	`<a></a >`,
	`<a></a b>`,
	`<a></ a>`,
	`<a></b>`,
	`<a></ab>`,
	`<ab></a>`,
	`<a></a></a>`,
	`</a>`,
	`<a><b></a></b>`,
	`<a>`,
	`<a><b>`,
	``,
	` `,
	`just text`,
	`<a/>text`,
	`text<a/>`,
	` <a/> `,
	"\ufeff<a/>",
	`<a/><b/>`,
	`<a/>&amp;`,
	`<a/>&#32;`,
	"<a>\u00a0</a>",
	"<a>\u2003\u0085</a>",
	"<a>\u00a0<![CDATA[x]]></a>",
	"<a>é ✓ \U0001F600</a>",
	"<a>\xff</a>",
	"<a>\xc3</a>",
	"<a>\xed\xa0\x80</a>",
	"<a>\uffff</a>",
	"<a>\ufffd</a>",
	"<a>\x00</a>",
	"<a>\x0b</a>",
	"<a>\x7f</a>",
	"<a b=\"\x01\"/>",
	"<a b=\"\xff\"/>",
	"<a><!--\xff\x01--><?p \xff\x01?></a>",
	"<é/>",
	"<aé b·='1'/>",
	"<·a/>",
	"<a\xff/>",
	"<\u2603/>",
	`<a:b xmlns:a="u" a:c="d"/>`,
	`<a xmlns="u" xmlns:p="v" xmlns:="w" p:q="r"/>`,
	`<a:b:c/>`,
	`<a b:c:d="1"/>`,
	`<:a/>`,
	`<a:/>`,
	`<:/>`,
	`<_a-b.c1/>`,
	`<1a/>`,
	`<-a/>`,
	`<.a/>`,
	`<a 1b="x"/>`,
	`< a/>`,
	`<?a:b:c d?><a/>`,
	`<?1p?><a/>`,
	`<? p?><a/>`,
	`<?p?><a/>`,
	`<?p?x?><a/>`,
	`<?p   d  ?><a/>`,
	`<?p >?><a/>`,
	`<?xml?><a/>`,
	`<?xmlx version="9"?><a/>`,
	`<?xml version=1.0?><a/>`,
	`<?xml version="1.0?><a/>`,
	`<?xml fooversion="2"?><a/>`,
	`<?xml version=?><a/>`,
	`<a><b>` + strings.Repeat("<c>", 100) + strings.Repeat("</c>", 100) + `</b></a>`,
}

// checkAgainstReference holds one input to the differential contract:
// the scanner and the encoding/xml loop accept the same inputs and,
// where they do, build the same arena; the inputs they may part on are
// those knownDisagreement explains.
func checkAgainstReference(t *testing.T, src string, opts ParseOptions) {
	t.Helper()
	got, err := ParseWithOptions(strings.NewReader(src), opts)
	want, refErr := parseReference(strings.NewReader(src), opts, true)
	if (err == nil) != (refErr == nil) {
		if why := knownDisagreement(src, err, refErr); why == "" {
			t.Fatalf("%q (%+v): scanner says %v, reference says %v", src, opts, err, refErr)
		}
		return
	}
	if err != nil {
		if !strings.HasPrefix(err.Error(), "xmltree: parse: ") {
			t.Errorf("%q: error %q lacks the package prefix", src, err)
		}
		return
	}
	if diff := arenaDiff(got, want); diff != "" {
		t.Fatalf("%q (%+v): scanner vs reference: %s", src, opts, diff)
	}
	if diff := indexDiff(got); diff != "" {
		t.Fatalf("%q (%+v): index laid out while scanning vs rebuilt from the columns: %s", src, opts, diff)
	}
	// The merge is the only thing that tells the scanner from the loop
	// it replaced, and only these constructs can put two character-data
	// tokens side by side.
	old, oldErr := parseReference(strings.NewReader(src), opts, false)
	if oldErr != nil {
		t.Fatalf("%q: the unmerged reference fails alone: %v", src, oldErr)
	}
	if diff := arenaDiff(got, old); diff != "" && !strings.Contains(src, "<!") && !strings.Contains(src, "<?xml") {
		t.Fatalf("%q (%+v): differs from the old parser (%s) without a CDATA section, a dropped comment or a skipped declaration between two texts", src, opts, diff)
	}
	// parse ∘ XMLString ∘ parse is stable: a tree the parser built
	// serializes to a document that parses back to it.
	keep := opts
	keep.KeepWhitespaceText = true
	again, err := ParseWithOptions(strings.NewReader(got.XMLString()), keep)
	if err != nil {
		if why := unserializable(got); why == "" {
			t.Fatalf("%q: its serialization %q does not parse: %v", src, got.XMLString(), err)
		}
		return
	}
	if diff := arenaDiff(got, again); diff != "" && unserializable(got) == "" {
		t.Fatalf("%q: round trip through %q: %s", src, got.XMLString(), diff)
	}
}

// knownDisagreement names the reason the scanner and the reference may
// disagree on whether src is a document, "" when there is none. The
// list is closed: anything else is a bug in one of them.
func knownDisagreement(src string, err, refErr error) string {
	nonASCII := strings.IndexFunc(src, func(r rune) bool { return r >= utf8.RuneSelf }) >= 0
	switch {
	case nonASCII && refErr != nil && strings.Contains(refErr.Error(), "name"),
		nonASCII && refErr != nil && strings.Contains(refErr.Error(), "invalid character entity"),
		nonASCII && err != nil && strings.Contains(err.Error(), "name"):
		// encoding/xml classifies name characters beyond ASCII by the
		// Unicode 2.0 tables of XML 1.0's first four editions; the
		// scanner uses the fifth edition's ranges (so does every
		// current parser). ASCII names never disagree.
		return "non-ASCII name character"
	case refErr == nil && err != nil && strings.Contains(err.Error(), "in character reference"):
		// &#xD800; — encoding/xml converts the number with string(rune),
		// which turns a surrogate into U+FFFD, and then finds U+FFFD
		// legal. The reference is to a non-character; the scanner says so.
		return "character reference to a surrogate"
	}
	return ""
}

// unserializable names why a tree need not survive XMLString and a
// second parse, "" when it must.
func unserializable(d *Document) string {
	for i := 0; i < d.Len(); i++ {
		if t := d.Type(NodeID(i)); t != Comment && t != ProcInst && strings.Contains(d.Data(NodeID(i)), "\r") {
			return "a carriage return (from &#13;) is written raw and read back as a line feed"
		}
	}
	return ""
}

func parseOptionSets() []ParseOptions {
	return []ParseOptions{
		{},
		{KeepWhitespaceText: true},
		{DropComments: true},
		{KeepWhitespaceText: true, DropComments: true, IDAttributes: []string{"b", "k"}},
	}
}

// TestParseMatchesReference is the scanner's differential test: over
// the seed list, random documents in the serializer's dialect and
// random mutations of both, it agrees with the encoding/xml loop it
// replaced on what is a document and on every node of the tree.
func TestParseMatchesReference(t *testing.T) {
	for _, src := range parseSeeds {
		for _, opts := range parseOptionSets() {
			checkAgainstReference(t, src, opts)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		src := genDoc(r).XMLString()
		checkAgainstReference(t, src, ParseOptions{KeepWhitespaceText: i%2 == 0})
		// A mutated document is usually not one; both must say so alike.
		for k := 0; k < 8; k++ {
			b := []byte(src)
			switch pos := r.Intn(len(b)); r.Intn(3) {
			case 0:
				const bytes = "<>&;\"'/!?-[] \r\x00\xffa"
				b[pos] = bytes[r.Intn(len(bytes))]
			case 1:
				b = append(b[:pos], b[pos+1:]...)
			default:
				b = b[:pos]
			}
			checkAgainstReference(t, string(b), ParseOptions{KeepWhitespaceText: k%2 == 0})
		}
	}
}

// FuzzXMLParse: the scanner never panics; it agrees with the reference
// wherever knownDisagreement does not say why not; and what it builds
// survives serialization and a second parse.
func FuzzXMLParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s, uint8(0))
	}
	f.Fuzz(func(t *testing.T, src string, o uint8) {
		sets := parseOptionSets()
		checkAgainstReference(t, src, sets[int(o)%len(sets)])
	})
}

// TestTextNodesMerge pins the one intended divergence from the parser
// this one replaced: character data and CDATA sections side by side are
// one text node (XPath 1.0 §5.7), kept or dropped as whitespace whole.
func TestTextNodesMerge(t *testing.T) {
	cases := []struct {
		src   string
		opts  ParseOptions
		texts []string // the text children of the document element
	}{
		{`<a>x<![CDATA[y<]]>z</a>`, ParseOptions{}, []string{"xy<z"}},
		{`<a>x<![CDATA[ ]]>y</a>`, ParseOptions{}, []string{"x y"}},
		{`<a> <![CDATA[x]]> </a>`, ParseOptions{}, []string{" x "}},
		{`<a> <![CDATA[ ]]> </a>`, ParseOptions{}, nil},
		{`<a> <![CDATA[ ]]> </a>`, ParseOptions{KeepWhitespaceText: true}, []string{"   "}},
		{`<a><![CDATA[]]></a>`, ParseOptions{KeepWhitespaceText: true}, nil},
		{`<a>x<!--c-->y</a>`, ParseOptions{}, []string{"x", "y"}},
		{`<a>x<!--c-->y</a>`, ParseOptions{DropComments: true}, []string{"xy"}},
		{`<a>x&amp;<![CDATA[&amp;]]>` + "\r\n" + `</a>`, ParseOptions{}, []string{"x&&amp;\n"}},
	}
	for _, c := range cases {
		d, err := ParseWithOptions(strings.NewReader(c.src), c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		var texts []string
		for _, id := range d.Children(d.DocumentElement()) {
			if d.Type(id) == Text {
				texts = append(texts, d.Data(id))
			}
		}
		if fmt.Sprint(texts) != fmt.Sprint(c.texts) {
			t.Errorf("%s (%+v): text children %q, want %q", c.src, c.opts, texts, c.texts)
		}
	}
}

// TestParseErrorsSayWhere: a malformed document's error names the line
// and column (1-based, bytes) of what is wrong.
func TestParseErrorsSayWhere(t *testing.T) {
	cases := []struct{ src, at, msg string }{
		{"<a>\n  <b></c>\n</a>", "2:6", "</c> closes <b>"},
		{"<a>\n<!-- never closed\n</a>", "3:5", "unexpected EOF"},
		{"<a><![CDATA[x</a>", "1:18", "unexpected EOF in CDATA section"},
		{"<a b=\"x>\n</a>", "2:1", "unescaped < inside quoted string"},
		{"<a b=\"x/>", "1:10", "unexpected EOF"},
		{"<a>\n<!-- a -- b -->\n</a>", "2:8", `"--" not allowed in comments`},
		{"<a>\n\n x &nbsp; y</a>", "3:4", "invalid character entity"},
		{"<a>&#xD800;</a>", "1:4", "illegal character code 0xd800 in character reference"},
		{"<a/>\ntrailing", "2:1", "text outside document element"},
		{"leading<a/>", "1:1", "text outside document element"},
		{"<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?>\n<a/>", "1:1", `unsupported encoding "ISO-8859-1"`},
		{"<a>\n</a>\n</a>", "3:1", "unexpected </a>"},
		{"<a>\n<b>", "2:4", "2 unclosed element(s)"},
		{"<a>\x01</a>", "1:4", "illegal character code U+0001"},
		{"<a>é\xff</a>", "1:6", "invalid UTF-8"},
		{"<a>]]></a>", "1:4", "unescaped ]]>"},
		{"<a b=1/>", "1:6", "unquoted or missing attribute value"},
		{"<a b/>", "1:5", "attribute name without ="},
		{"<1a/>", "1:2", "invalid XML name"},
		{"", "1:1", "no document element"},
	}
	for _, c := range cases {
		_, err := ParseString(c.src)
		if err == nil {
			t.Errorf("%q parsed", c.src)
			continue
		}
		if want := "xmltree: parse: " + c.at + ": "; !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%q: error %q, want %q… %q", c.src, err, want, c.msg)
		}
	}
}

// TestParseAliasesSource is the aliasing rule of the package comment:
// names and character data the source spells as they are live inside
// the source string; only what had to be decoded is a string of its own.
func TestParseAliasesSource(t *testing.T) {
	src := `<doc kind="plain" esc="a&amp;b"><item>text</item><item>x&lt;y</item><!--c--><?p d?></doc>`
	d := MustParseString(src)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	inside := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return s == "" || lo <= p && p < lo+uintptr(len(src))
	}
	var copied []string
	for i := 0; i < d.Len(); i++ {
		name, data := d.Name(NodeID(i)), d.Data(NodeID(i))
		if !inside(name) {
			t.Errorf("node %d: name %q is not a piece of the source", i, name)
		}
		if !inside(data) {
			copied = append(copied, data)
		}
	}
	if fmt.Sprint(copied) != fmt.Sprint([]string{"a&b", "x<y"}) {
		t.Errorf("strings outside the source: %q, want only the two that hold a reference", copied)
	}
}

// auctionLike writes a document of n records in the shape of the
// serving benchmarks' documents (workload.Auction cannot be imported
// here: it imports this package).
func auctionLike(n int) string {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0"?>` + "\n<site>\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  <item id=\"item%d\" featured=\"%v\">\n    <name>gadget %d</name>\n    <price>%d.50</price>\n    <description><text>plain words, %d of them</text></description>\n  </item>\n", i, i%7 == 0, i, i%90, i)
	}
	b.WriteString("</site>\n")
	return b.String()
}

// TestParseAllocsDoNotGrow pins what the scanner is for: a parse
// allocates the node arena, the string-value memo and the structural
// index — what a registration pays before the first query — not a
// string per node nor a posting list grown per name, so four times the
// document costs about the same number of allocations.
func TestParseAllocsDoNotGrow(t *testing.T) {
	measure := func(n int) float64 {
		src := auctionLike(n)
		return testing.AllocsPerRun(20, func() {
			d, err := ParseString(src)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Index().Named("item")) != n {
				t.Fatal("the index lost an item")
			}
		})
	}
	small, large := measure(250), measure(1000)
	t.Logf("allocs per parse and index: %.0f at 250 records, %.0f at 1000", small, large)
	if large > small+2 {
		t.Errorf("allocations grew from %.0f to %.0f over 4× the document: something allocates per node again", small, large)
	}
	if small > 25 {
		t.Errorf("%.0f allocations for a 250-record document; the arena, the memo and the index are about 24, and the ID table is not built at parse time", small)
	}
}

// TestIDTableBuiltOnceOnFirstUse: the ID table is built lazily, once,
// however many evaluations ask for it first at the same time (run under
// -race), and the first element in document order keeps a duplicated ID.
func TestIDTableBuiltOnceOnFirstUse(t *testing.T) {
	d := MustParseString(`<r><a id="1"/><b id="2" k="1"/><c id="1"/><d id="3 4"/></r>`)
	if d.ids != nil {
		t.Fatal("ID table built at parse time")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if a := d.IDOf("1"); a == NilNode || d.Name(a) != "a" {
					t.Errorf("IDOf(1) = %d, want the first element carrying it", a)
				}
			} else if got := d.DerefIDs(" 2 1 nobody 2"); len(got) != 2 || d.Name(got[0]) != "a" || d.Name(got[1]) != "b" {
				t.Errorf("DerefIDs = %v, want a and b in document order", got)
			}
		}(g)
	}
	wg.Wait()
	if d.IDOf("3 4") == NilNode || d.IDOf("3") != NilNode {
		t.Error("an ID is the whole attribute value")
	}
}

// TestRefBuiltOnceOnFirstUse: the ref relation is built lazily, once,
// however many evaluations ask for it first at the same time (run under
// -race), and holds what the eager build held for elements; an
// attribute or a text node references what its own data names.
func TestRefBuiltOnceOnFirstUse(t *testing.T) {
	d := MustParseString(`<r><a id="1">2 3 2</a><b id="2">1</b><c id="3">nobody 1</c>4</r>`)
	if d.ref.off != nil {
		t.Fatal("ref relation built at parse time")
	}
	a, b, c := d.IDOf("1"), d.IDOf("2"), d.IDOf("3")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if got := fmt.Sprint(d.Ref(a)); got != fmt.Sprint([]NodeID{b, c}) {
					t.Errorf("Ref(a) = %s, want [%d %d] (each target once)", got, b, c)
				}
			} else if got, want := fmt.Sprint(d.RefInv(a)), fmt.Sprint([]NodeID{a + 1, b, b + 2, c, c + 2}); got != want {
				t.Errorf("RefInv(a) = %s, want %s: a's id attribute, b and its text, c and its text", got, want)
			}
		}(g)
	}
	wg.Wait()
	if got := d.Ref(d.RootID()); got != nil {
		t.Errorf("Ref(root) = %v, want none", got)
	}
}
