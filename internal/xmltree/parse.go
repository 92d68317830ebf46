package xmltree

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ParseOptions configures XML parsing.
type ParseOptions struct {
	// KeepWhitespaceText retains text nodes consisting entirely of
	// whitespace. The default (false) drops them, matching how the
	// paper's experiments treat their synthetic documents and how XSLT
	// processors behave under xsl:strip-space. The decision is made on
	// the whole text node — character data and CDATA sections merged —
	// never on the pieces it was written in.
	KeepWhitespaceText bool
	// KeepComments retains comment nodes (default true behaviour is to
	// keep them; set DropComments to discard).
	DropComments bool
	// IDAttributes overrides the set of attribute names treated as
	// ID-typed for deref_ids. Nil means {"id"}.
	IDAttributes []string
}

// Parse reads an XML document into the paper's data model using the
// default options.
func Parse(r io.Reader) (*Document, error) {
	return ParseWithOptions(r, ParseOptions{})
}

// ParseString parses an XML document held in a string. The document's
// nodes alias s (see the package comment).
func ParseString(s string) (*Document, error) {
	return parse(s, ParseOptions{})
}

// MustParseString parses a string known to be well-formed XML; it panics
// on error. Intended for tests and examples.
func MustParseString(s string) *Document {
	d, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return d
}

// ParseWithOptions reads an XML document with explicit options. The
// input is read to its end into the one source string the nodes alias.
func ParseWithOptions(r io.Reader, opts ParseOptions) (*Document, error) {
	var src strings.Builder
	if _, err := io.Copy(&src, r); err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return parse(src.String(), opts)
}

// scanner is the XML reader: one non-recursive pass over the source
// string that checks well-formedness as it goes and hands the Builder
// names and character data as substrings of the source wherever the
// source spells them as they are (no entity or character reference, no
// carriage return), so a parse allocates the node arena and little
// else.
//
// What it accepts is what encoding/xml's RawToken loop — the parser
// this one replaced, kept in parse_ref_test.go as the differential
// reference — accepted, oddities included, so that no document that
// registered before is refused now: attributes need no whitespace
// between them, several top-level elements are let through, comments,
// processing instructions and DOCTYPE bodies are not character-checked,
// and a DOCTYPE's internal subset is skipped by bracket counting. Text
// and attribute values are checked in full: UTF-8, the XML Char range,
// the five named entities and numeric references, "]]>" outside CDATA,
// "<" in a value; "\r\n" and "\r" become "\n".
type scanner struct {
	src  string
	pos  int
	b    *Builder
	opts ParseOptions

	sawElement bool

	// The pending text run: the character data and CDATA sections seen
	// since the last node was emitted, which become one text node
	// (XPath 1.0 §5.7: a text node never has a text sibling). A run
	// that is a single stretch of the source needing no decoding stays
	// the offsets [textLo, textHi); anything else is assembled in text
	// (textLo still says where the run began).
	textState      uint8
	textLo, textHi int
	text           []byte

	val []byte // scratch for an attribute value that needs decoding
}

// States of the pending text run.
const (
	textNone    = iota // no character data since the last node
	textAliased        // src[textLo:textHi], as written
	textBuilt          // the bytes in text
)

func parse(src string, opts ParseOptions) (*Document, error) {
	// Every node but an attribute or a namespace costs the source a '<'
	// (an element two, which pays for its text child), so this seldom
	// falls short and never overshoots by much.
	b := newBuilder(strings.Count(src, "<") + 1)
	if opts.IDAttributes != nil {
		b.IDAttributes = map[string]bool{}
		for _, a := range opts.IDAttributes {
			b.IDAttributes[a] = true
		}
	}
	s := &scanner{src: src, b: b, opts: opts}
	if err := s.run(); err != nil {
		return nil, err
	}
	return b.Done()
}

func (s *scanner) run() error {
	src := s.src
	for s.pos < len(src) {
		var err error
		switch {
		case src[s.pos] != '<':
			err = s.charData()
		case s.pos+1 == len(src):
			err = s.eof()
		case src[s.pos+1] == '/':
			err = s.endTag()
		case src[s.pos+1] == '?':
			err = s.procInst()
		case src[s.pos+1] == '!':
			err = s.declaration()
		default:
			err = s.startTag()
		}
		if err != nil {
			return err
		}
	}
	if err := s.flushText(); err != nil {
		return err
	}
	if open := len(s.b.stack) - 1; open != 0 {
		return s.errorf(len(src), "%d unclosed element(s)", open)
	}
	if !s.sawElement {
		return s.errorf(len(src), "no document element")
	}
	return nil
}

// errorf is a parse error at byte offset off, reported as line:column
// (both 1-based, the column in bytes). The position is worked out only
// here, so a parse that succeeds never counts lines.
func (s *scanner) errorf(off int, format string, args ...any) error {
	before := s.src[:off]
	line := 1 + strings.Count(before, "\n")
	col := off - strings.LastIndexByte(before, '\n')
	return fmt.Errorf("xmltree: parse: %d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (s *scanner) eof() error { return s.errorf(len(s.src), "unexpected EOF") }

// skipSpace returns the offset of the first byte at or after i that is
// not XML white space.
func (s *scanner) skipSpace(i int) int {
	for i < len(s.src) {
		switch s.src[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// Byte classes. A chars byte needs a look during a character scan; all
// others are data in text, CDATA and attribute values alike.
var chars, nameBytes [256]bool

func init() {
	for c := 0; c < 256; c++ {
		chars[c] = c < ' ' && c != '\t' && c != '\n' || c >= utf8.RuneSelf
		nameBytes[c] = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
	}
	for _, c := range `<&]"'` {
		chars[c] = true
	}
	for _, c := range "_:.-" {
		nameBytes[c] = true
	}
}

// isChar reports whether r is in the Char production of XML 1.0 §2.2.
func isChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// scanChars checks the characters of src[i:hi] up to the first byte
// equal to stop — '<' for character data, the quote for an attribute
// value, 0 for the inside of a CDATA section, which runs to hi — and
// returns where it stopped and whether the stretch must be decoded
// (appendDecoded) rather than used as written.
func (s *scanner) scanChars(i, hi int, stop byte) (end int, decode bool, err error) {
	src := s.src
	for i < hi {
		c := src[i]
		if !chars[c] {
			i++
			continue
		}
		switch {
		case c == stop && c != 0:
			return i, decode, nil
		case c == '<' && stop != 0:
			return 0, false, s.errorf(i, "unescaped < inside quoted string")
		case c == '&' && stop != 0:
			if _, i, err = s.reference(i); err != nil {
				return 0, false, err
			}
			decode = true
		case c == ']' && stop == '<' && strings.HasPrefix(src[i:], "]]>"):
			return 0, false, s.errorf(i, "unescaped ]]> not in CDATA section")
		case c == '\r':
			decode = true
			i++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(src[i:])
			if r == utf8.RuneError && size == 1 {
				return 0, false, s.errorf(i, "invalid UTF-8")
			}
			if !isChar(r) {
				return 0, false, s.errorf(i, "illegal character code %U", r)
			}
			i += size
		case c < ' ':
			return 0, false, s.errorf(i, "illegal character code %U", rune(c))
		default: // markup characters that are data here
			i++
		}
	}
	if stop != 0 && stop != '<' {
		return 0, false, s.eof() // the value's closing quote never came
	}
	return i, decode, nil
}

// entities are the five references XML predefines, each with its ';'.
var entities = [...]struct {
	name string
	char rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

// reference reads the entity or character reference at src[i] == '&'
// and returns the character it stands for and the offset past its ';'.
func (s *scanner) reference(i int) (rune, int, error) {
	src := s.src
	if !strings.HasPrefix(src[i+1:], "#") {
		for _, e := range entities {
			if strings.HasPrefix(src[i+1:], e.name) {
				return e.char, i + 1 + len(e.name), nil
			}
		}
		return 0, 0, s.errorf(i, "invalid character entity")
	}
	digits, base := i+2, 10
	if strings.HasPrefix(src[digits:], "x") {
		digits, base = digits+1, 16
	}
	end := digits
	for end < len(src) && (src[end]-'0' < 10 || base == 16 && (src[end]|0x20)-'a' < 6) {
		end++
	}
	if end == len(src) || src[end] != ';' {
		return 0, 0, s.errorf(i, "invalid character entity")
	}
	n, err := strconv.ParseUint(src[digits:end], base, 32)
	if err != nil {
		return 0, 0, s.errorf(i, "invalid character entity %s", src[i:end+1])
	}
	if !isChar(rune(n)) {
		return 0, 0, s.errorf(i, "illegal character code %#x in character reference", n)
	}
	return rune(n), end + 1, nil
}

// appendDecoded appends src[lo:hi], which scanChars has checked, with
// its line ends normalized and, unless it is the inside of a CDATA
// section, where '&' is data, its references replaced.
func (s *scanner) appendDecoded(dst []byte, lo, hi int, cdata bool) []byte {
	src, special := s.src, "&\r"
	if cdata {
		special = "\r"
	}
	for lo < hi {
		n := strings.IndexAny(src[lo:hi], special)
		if n < 0 {
			break
		}
		dst = append(dst, src[lo:lo+n]...)
		lo += n
		if src[lo] == '&' {
			r, next, _ := s.reference(lo)
			dst, lo = utf8.AppendRune(dst, r), next
			continue
		}
		dst = append(dst, '\n')
		if lo++; lo < hi && src[lo] == '\n' {
			lo++
		}
	}
	return append(dst, src[lo:hi]...)
}

// addText extends the pending text run by src[lo:hi], character data or
// the inside of a CDATA section, to be decoded first if decode says so.
func (s *scanner) addText(lo, hi int, cdata, decode bool) {
	switch {
	case s.textState == textNone && !decode:
		s.textState, s.textLo, s.textHi = textAliased, lo, hi
		return
	case s.textState == textNone:
		s.text, s.textLo = s.text[:0], lo
	case s.textState == textAliased:
		s.text = append(s.text[:0], s.src[s.textLo:s.textHi]...)
	}
	s.textState = textBuilt
	if decode {
		s.text = s.appendDecoded(s.text, lo, hi, cdata)
	} else {
		s.text = append(s.text, s.src[lo:hi]...)
	}
}

// blank reports whether s is empty or all white space, in the sense of
// strings.TrimSpace(s) == "" — the test the parser has always applied,
// which counts U+0085, U+00A0 and the Unicode space separators too.
func blank[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
		case c < utf8.RuneSelf:
			return false
		default:
			return strings.TrimSpace(string(s[i:])) == ""
		}
	}
	return true
}

// flushText turns the pending text run into a text node, ahead of
// whatever node or end tag comes next. Outside the document element
// only white space may stand, and it is not part of the tree.
func (s *scanner) flushText() error {
	if s.textState == textNone {
		return nil
	}
	aliased := s.textState == textAliased
	s.textState = textNone
	var data string
	var empty, white bool
	if aliased {
		data = s.src[s.textLo:s.textHi]
		empty, white = data == "", blank(data)
	} else {
		empty, white = len(s.text) == 0, blank(s.text)
	}
	switch {
	case len(s.b.stack) == 1 && !white:
		at := s.textLo // where the run starts, or better, where its text does
		if aliased {
			at += len(data) - len(strings.TrimLeft(data, " \t\r\n"))
		}
		return s.errorf(at, "text outside document element")
	case len(s.b.stack) == 1 || empty || white && !s.opts.KeepWhitespaceText:
		return nil
	case !aliased:
		data = string(s.text)
	}
	s.b.Text(data)
	return nil
}

func (s *scanner) charData() error {
	end, decode, err := s.scanChars(s.pos, len(s.src), '<')
	if err != nil {
		return err
	}
	s.addText(s.pos, end, false, decode)
	s.pos = end
	return nil
}

// name returns the end of the XML name that starts at src[i]; what is
// to report when none does. ASCII name characters are those of XML 1.0;
// beyond ASCII the ranges are the fifth edition's.
func (s *scanner) name(i int, what string) (int, error) {
	src, start := s.src, i
	for i < len(src) {
		c := src[i]
		if c < utf8.RuneSelf {
			if !nameBytes[c] {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(src[i:])
		if !nameRune(r, i == start) {
			return 0, s.errorf(i, "invalid XML name")
		}
		i += size
	}
	switch {
	case i == len(src):
		return 0, s.eof()
	case i == start:
		return 0, s.errorf(i, "%s", what)
	case src[start] < utf8.RuneSelf && (src[start] == '-' || src[start] == '.' || '0' <= src[start] && src[start] <= '9'):
		return 0, s.errorf(start, "invalid XML name")
	}
	return i, nil
}

// qname is name for elements and attributes, whose names have at most
// one colon.
func (s *scanner) qname(i int, what string) (int, error) {
	end, err := s.name(i, what)
	if err == nil && strings.Count(s.src[i:end], ":") > 1 {
		return 0, s.errorf(i, "%s", what)
	}
	return end, err
}

// nameRune reports whether the non-ASCII r may appear in a name (first:
// start one): NameStartChar and NameChar of XML 1.0, fifth edition.
func nameRune(r rune, first bool) bool {
	switch {
	case r >= 0xC0 && r <= 0x2FF:
		return r != 0xD7 && r != 0xF7
	case r >= 0x370 && r <= 0x1FFF:
		return r != 0x37E
	case r == 0x200C, r == 0x200D,
		r >= 0x2070 && r <= 0x218F,
		r >= 0x2C00 && r <= 0x2FEF,
		r >= 0x3001 && r <= 0xD7FF,
		r >= 0xF900 && r <= 0xFDCF,
		r >= 0xFDF0 && r <= 0xFFFD && r != utf8.RuneError,
		r >= 0x10000 && r <= 0xEFFFF:
		return true
	case r == 0xB7, r >= 0x300 && r <= 0x36F, r == 0x203F, r == 0x2040:
		return !first
	}
	return false
}

func (s *scanner) startTag() error {
	src := s.src
	i := s.pos + 1
	end, err := s.qname(i, "expected element name after <")
	if err != nil {
		return err
	}
	if err := s.flushText(); err != nil {
		return err
	}
	s.b.StartElement(src[i:end])
	s.sawElement = true
	for i = end; ; {
		if i = s.skipSpace(i); i == len(src) {
			return s.eof()
		}
		switch src[i] {
		case '/':
			if i+1 == len(src) {
				return s.eof()
			}
			if src[i+1] != '>' {
				return s.errorf(i, "expected /> in element")
			}
			s.b.EndElement()
			s.pos = i + 2
			return nil
		case '>':
			s.pos = i + 1
			return nil
		}
		if end, err = s.qname(i, "expected attribute name in element"); err != nil {
			return err
		}
		name := src[i:end]
		if i = s.skipSpace(end); i == len(src) {
			return s.eof()
		}
		if src[i] != '=' {
			return s.errorf(i, "attribute name without = in element")
		}
		if i = s.skipSpace(i + 1); i == len(src) {
			return s.eof()
		}
		quote := src[i]
		if quote != '"' && quote != '\'' {
			return s.errorf(i, "unquoted or missing attribute value in element")
		}
		end, decode, err := s.scanChars(i+1, len(src), quote)
		if err != nil {
			return err
		}
		value := src[i+1 : end]
		if decode {
			s.val = s.appendDecoded(s.val[:0], i+1, end, false)
			value = string(s.val)
		}
		i = end + 1
		// Names are opaque strings in the paper's model; the one piece
		// of namespace bookkeeping is that a declaration is a namespace
		// node, not an attribute.
		switch {
		case name == "xmlns":
			s.b.NamespaceNode("", value)
		case strings.HasPrefix(name, "xmlns:"):
			s.b.NamespaceNode(name[len("xmlns:"):], value)
		default:
			s.b.Attribute(name, value)
		}
	}
}

func (s *scanner) endTag() error {
	src := s.src
	i := s.pos + 2
	if len(s.b.stack) == 1 {
		end, err := s.qname(i, "expected element name after </")
		if err != nil {
			return err
		}
		return s.errorf(s.pos, "unexpected </%s>", src[i:end])
	}
	// The tag nearly always names the open element: compare in place.
	open := s.b.doc.names[s.b.stack[len(s.b.stack)-1]]
	end := i + len(open)
	if !strings.HasPrefix(src[i:], open) || end == len(src) || nameBytes[src[end]] || src[end] >= utf8.RuneSelf {
		var err error
		if end, err = s.qname(i, "expected element name after </"); err != nil {
			return err
		}
		if src[i:end] != open {
			return s.errorf(s.pos, "</%s> closes <%s>", src[i:end], open)
		}
	}
	name := end
	if end = s.skipSpace(end); end == len(src) {
		return s.eof()
	}
	if src[end] != '>' {
		return s.errorf(end, "invalid characters between </%s and >", src[i:name])
	}
	if err := s.flushText(); err != nil {
		return err
	}
	s.b.EndElement()
	s.pos = end + 1
	return nil
}

func (s *scanner) procInst() error {
	src := s.src
	i := s.pos + 2
	end, err := s.name(i, "expected target name after <?")
	if err != nil {
		return err
	}
	target := src[i:end]
	i = s.skipSpace(end)
	n := strings.Index(src[i:], "?>")
	if n < 0 {
		return s.eof()
	}
	data := src[i : i+n]
	if target == "xml" {
		// The XML declaration is not a node; all it may say that matters
		// here is a version or an encoding this parser does not read.
		if v := declParam(data, "version"); v != "" && v != "1.0" {
			return s.errorf(s.pos, "unsupported version %q; only version 1.0 is supported", v)
		}
		if enc := declParam(data, "encoding"); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return s.errorf(s.pos, "unsupported encoding %q; only UTF-8 is supported", enc)
		}
	} else {
		if err := s.flushText(); err != nil {
			return err
		}
		s.b.ProcInst(target, data)
	}
	s.pos = i + n + 2
	return nil
}

// declParam returns the value of param="value" (or 'value') in the body
// of an XML declaration, "" when there is none — as loosely as
// encoding/xml reads it, which is what decides whether a declaration
// that used to be accepted still is.
func declParam(decl, param string) string {
	param += "="
	for {
		n := strings.Index(decl, param)
		if n < 0 || n+len(param) >= len(decl) {
			return ""
		}
		quote := decl[n+len(param)]
		decl = decl[n+len(param)+1:]
		if quote == '\'' || quote == '"' {
			if end := strings.IndexByte(decl, quote); end >= 0 {
				return decl[:end]
			}
			return ""
		}
	}
}

// declaration reads what "<!" opens: a comment, a CDATA section, or a
// DOCTYPE-like directive, which the data model does not represent.
func (s *scanner) declaration() error {
	src := s.src
	i := s.pos + 2
	switch rest := src[i:]; {
	case strings.HasPrefix(rest, "--"):
		i += 2
		n := strings.Index(src[i:], "--")
		if n < 0 || i+n+2 == len(src) {
			return s.eof()
		}
		if src[i+n+2] != '>' {
			return s.errorf(i+n, `invalid sequence "--" not allowed in comments`)
		}
		if !s.opts.DropComments {
			if err := s.flushText(); err != nil {
				return err
			}
			s.b.Comment(src[i : i+n])
		}
		s.pos = i + n + 3
		return nil
	case strings.HasPrefix(rest, "[CDATA["):
		i += len("[CDATA[")
		n := strings.Index(src[i:], "]]>")
		if n < 0 {
			return s.errorf(len(src), "unexpected EOF in CDATA section")
		}
		_, decode, err := s.scanChars(i, i+n, 0)
		if err != nil {
			return err
		}
		s.addText(i, i+n, true, decode)
		s.pos = i + n + 3
		return nil
	case rest == "":
		return s.eof()
	case rest[0] == '-':
		return s.errorf(s.pos, "invalid sequence <!- not part of <!--")
	case rest[0] == '[':
		return s.errorf(s.pos, "invalid <![ sequence")
	}
	// A directive ends at the first '>' outside quotes and outside the
	// angle brackets nested in it (an internal subset's declarations);
	// comments inside it are skipped whole. Its first byte is taken as
	// it comes.
	var quote byte
	depth := 0
	for i++; i < len(src); i++ {
		switch c := src[i]; {
		case c == quote:
			quote = 0
		case quote != 0:
		case c == '\'' || c == '"':
			quote = c
		case c == '>' && depth == 0:
			s.pos = i + 1
			return nil
		case c == '>':
			depth--
		case c == '<' && strings.HasPrefix(src[i+1:], "!--"):
			n := strings.Index(src[i+4:], "-->")
			if n < 0 {
				return s.eof()
			}
			i += 4 + n + 2
		case c == '<':
			depth++
		}
	}
	return s.eof()
}
