package xpath

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/xmltree"
)

// tokenKind enumerates lexical token kinds.
type tokenKind uint8

const (
	tokEOF   tokenKind = iota
	tokError           // a lexical error; text is the message
	tokNumber
	tokLiteral
	tokName   // NCName or QName (also axis/function/operator names pre-disambiguation)
	tokStar   // * as a wildcard name test
	tokMul    // * as the multiply operator
	tokSlash  // /
	tokSlash2 // //
	tokPipe
	tokPlus
	tokMinus
	tokEq
	tokNeq
	tokLt
	tokLe
	tokGt
	tokGe
	tokAnd
	tokOr
	tokDiv
	tokMod
	tokAt
	tokAxisSep // ::
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokDot
	tokDotDot
	tokComma
	tokDollar
)

type token struct {
	kind tokenKind
	text string  // name, literal content or error message
	num  float64 // number value
	pos  int     // byte offset in the query, for error messages
}

// spelling is the text of every token kind that has only one.
var spelling = [...]string{
	tokStar: "*", tokMul: "*", tokSlash: "/", tokSlash2: "//", tokPipe: "|",
	tokPlus: "+", tokMinus: "-", tokEq: "=", tokNeq: "!=", tokLt: "<",
	tokLe: "<=", tokGt: ">", tokGe: ">=", tokAnd: "and", tokOr: "or",
	tokDiv: "div", tokMod: "mod", tokAt: "@", tokAxisSep: "::", tokLParen: "(",
	tokRParen: ")", tokLBracket: "[", tokRBracket: "]", tokDot: ".",
	tokDotDot: "..", tokComma: ",", tokDollar: "$",
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of query"
	case tokNumber:
		return strconv.FormatFloat(t.num, 'f', -1, 64)
	case tokLiteral:
		return "'" + t.text + "'"
	case tokName, tokError:
		return t.text
	default:
		return spelling[t.kind]
	}
}

// punct is the token each ASCII punctuation byte spells by itself
// (tokError: only as the first of two), pairs the tokens of two bytes by
// their first.
var (
	punct = [utf8.RuneSelf]tokenKind{
		'/': tokSlash, '|': tokPipe, '+': tokPlus, '-': tokMinus, '=': tokEq,
		'<': tokLt, '>': tokGt, '!': tokError, ':': tokError, '@': tokAt,
		'(': tokLParen, ')': tokRParen, '[': tokLBracket, ']': tokRBracket,
		',': tokComma, '$': tokDollar, '.': tokDot, '*': tokMul,
	}
	pairs = [utf8.RuneSelf]struct {
		second byte
		kind   tokenKind
	}{
		'/': {'/', tokSlash2}, '<': {'=', tokLe}, '>': {'=', tokGe},
		'!': {'=', tokNeq}, ':': {':', tokAxisSep}, '.': {'.', tokDotDot},
	}
)

// scan reads the token at p.off and moves p.off past it; prev is the
// kind of the token before it, tokEOF at the start of the query. The
// parser pulls tokens one at a time (next), so no token list is built.
//
// prev settles the two ambiguities of XPath 1.0 §3.7: a token stands in
// operand position when there is no preceding token or it is @, ::, (,
// [, ',' or an operator. Anywhere else * is the multiply operator and a
// name spelling and, or, div or mod is an operator name.
func (p *parser) scan(prev tokenKind) token {
	src, i := p.src, p.off
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	t, end := token{pos: i}, i+1
	if i == len(src) {
		p.off = i
		return t // tokEOF
	}
	switch c := src[i]; {
	case c == '\'' || c == '"':
		j := strings.IndexByte(src[i+1:], c)
		if j < 0 {
			t.kind, t.text = tokError, fmt.Sprintf("xpath: unterminated literal at offset %d", i)
			break
		}
		t.kind, t.text, end = tokLiteral, src[i+1:i+1+j], i+2+j
	case isDigit(c) || c == '.' && end < len(src) && isDigit(src[end]):
		for end = i; end < len(src) && (isDigit(src[end]) || src[end] == '.'); end++ {
		}
		v, err := strconv.ParseFloat(src[i:end], 64)
		if err != nil {
			t.kind, t.text = tokError, fmt.Sprintf("xpath: bad number %q at offset %d", src[i:end], i)
			break
		}
		t.kind, t.num = tokNumber, v
	case c < utf8.RuneSelf && punct[c] != tokEOF:
		t.kind = punct[c]
		if pr := pairs[c]; pr.second != 0 && end < len(src) && src[end] == pr.second {
			t.kind, end = pr.kind, end+1
		}
		if t.kind == tokMul && operandNext(prev) {
			t.kind = tokStar
		}
	default:
		if end = nameEnd(src, i); end > i {
			t.kind, t.text, end = scanName(src, i, end, prev)
		} else {
			t.kind = tokError
		}
	}
	if t.kind == tokError && t.text == "" {
		r, _ := utf8.DecodeRuneInString(src[i:])
		t.text = fmt.Sprintf("xpath: unexpected character %q at offset %d", r, i)
	}
	p.off = end
	return t
}

// scanName reads the name at src[i:], whose NCName ends at end: the
// NCName, a QName prefix:local or a prefixed wildcard prefix:* — but not
// the axis name before ::. In operator position (§3.7) and, or, div and
// mod are operators.
func scanName(src string, i, end int, prev tokenKind) (tokenKind, string, int) {
	if end+1 < len(src) && src[end] == ':' {
		if src[end+1] == '*' {
			end += 2
		} else if local := nameEnd(src, end+1); local > end+1 {
			end = local
		}
	}
	text := src[i:end]
	if !operandNext(prev) {
		switch text {
		case "and":
			return tokAnd, "", end
		case "or":
			return tokOr, "", end
		case "div":
			return tokDiv, "", end
		case "mod":
			return tokMod, "", end
		}
	}
	return tokName, text, end
}

// operandNext reports whether a token after one of kind prev stands in
// operand position (see scan).
func operandNext(prev tokenKind) bool {
	switch prev {
	case tokEOF, tokAt, tokAxisSep, tokLParen, tokLBracket, tokComma,
		tokAnd, tokOr, tokDiv, tokMod, tokMul,
		tokSlash, tokSlash2, tokPipe, tokPlus, tokMinus,
		tokEq, tokNeq, tokLt, tokLe, tokGt, tokGe:
		return true
	}
	return false
}

// nameEnd returns the end of the NCName starting at src[i], i if none
// does. ASCII is classed byte by byte (letters and _, then also digits,
// - and .); any other character is decoded and classed by XML 1.0's
// NameStartChar and NameChar, as the document parser classes it.
func nameEnd(src string, i int) int {
	start := i
	for i < len(src) {
		c := src[i]
		if c < utf8.RuneSelf {
			if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' ||
				i > start && (isDigit(c) || c == '-' || c == '.')) {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(src[i:])
		if !xmltree.NameRune(r, i == start) {
			break
		}
		i += size
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
