package serve

// This file is the one definition of how an answer looks on the wire,
// and (its second half, from Member on) of how a request is read off
// it.
// QueryResponse, BatchLine, ValueJSON and NodeJSON remain the schema —
// what clients and tests decode into, and what the wiretag lint checks
// — but nothing on the /query and /batch paths reflects over them: the
// functions below append an answer to a byte slice directly, the value
// straight from the document, and the handlers send the bytes with
// Content-Length in one Write.
//
// The layout contract (ScanEnvelope and the cluster router rely on it;
// the differential test in encode_test.go holds it to encoding/json):
//
//   - An answer is one JSON object on one line, no insignificant
//     whitespace, followed by '\n' — byte for byte what
//     json.NewEncoder(w).Encode(v) writes for the struct, with two
//     departures: a non-finite "number" is null (encoding/json refuses
//     it; "string" carries NaN / Infinity / -Infinity), and nothing is
//     indented.
//   - Members come in the order the structs declare them. A batch line
//     leads with index, doc, missing, request_id; every answer goes on
//     with query, fragment, strategy, version, fallback — the envelope —
//     and only then value or error, then trace. Optional members are
//     left out when empty, never written as false, 0 or "".
//   - So everything a router needs to route, cache and re-tag an answer
//     (index, doc, missing, version) sits in front of the value, whose
//     size is the document's business, and the router reads the
//     envelope and never the value. What it adds ("node", "drained") it
//     splices in front of the closing brace, which is the last byte
//     before the newline.
//
// Strings are escaped as encoding/json escapes them (HTML-safe: <, >
// and & become \u003c, \u003e, \u0026; U+2028/2029 and invalid UTF-8 are
// escaped too). A '"' inside a JSON string is therefore always written
// \", which is why the raw bytes `"version":` — a quote, the key, a
// quote, a colon — can never occur inside a string: the quote before
// the colon would have to be unescaped, and an unescaped quote ends the
// string. Up to the value, those bytes occur once, at the member; a
// query text or a document name that spells them out arrives as
// \"version\":. The scanner walks the members in order regardless; the
// property is what makes walking them (rather than parsing JSON) sound.

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// buffer is a pooled byte slice: answers are encoded into one and
// request bodies read into one, so the steady state allocates neither.
type buffer struct{ b []byte }

// maxPooledBuffer keeps the rare huge answer or document upload from
// pinning its buffer in the pool.
const maxPooledBuffer = 256 << 10

var bufferPool = sync.Pool{New: func() any { return &buffer{b: make([]byte, 0, 4<<10)} }}

func getBuffer() *buffer { return bufferPool.Get().(*buffer) }

func putBuffer(buf *buffer) {
	if cap(buf.b) > maxPooledBuffer {
		return
	}
	buf.b = buf.b[:0]
	bufferPool.Put(buf)
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string, quotes included, escaped
// exactly as encoding/json escapes it.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendEscaped(dst, s)
	return append(dst, '"')
}

// appendEscaped appends the inside of a JSON string. A string-value
// rendered piece by piece goes through it once per text node; every
// text node is valid UTF-8 on its own (the parser guarantees it), so
// the pieces escape to what their concatenation would.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// appendNumber appends f as encoding/json formats a float64, and null
// for NaN and the infinities, which JSON cannot say.
func appendNumber(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 is written e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// clipAt is where s, longer than max bytes, is cut: at max, backed up
// so no UTF-8 sequence is split.
func clipAt(s string, max int) int {
	for max > 0 && !utf8.RuneStart(s[max]) {
		max--
	}
	return max
}

// appendClipped appends s as a JSON string cut to maxStringBytes source
// bytes, and reports whether it was cut.
func appendClipped(dst []byte, s string) ([]byte, bool) {
	if len(s) <= maxStringBytes {
		return AppendJSONString(dst, s), false
	}
	return AppendJSONString(dst, s[:clipAt(s, maxStringBytes)]), true
}

// appendStringValue appends the string-value of a node as a JSON
// string, escaping and clipping while it copies the text nodes, so an
// element's text is never concatenated first. Same result as
// appendClipped(dst, d.StringValue(id)).
func appendStringValue(dst []byte, d *core.Document, id xmltree.NodeID) ([]byte, bool) {
	dst = append(dst, '"')
	room, truncated := maxStringBytes, false
	d.StringValueChunks(id, func(s string) bool {
		if len(s) > room {
			// The cut falls inside this piece, at what is left of the cap.
			s, truncated = s[:clipAt(s, room)], true
		}
		dst = appendEscaped(dst, s)
		room -= len(s)
		return !truncated
	})
	return append(dst, '"'), truncated
}

// appendValue appends the "value" object of an answer straight from the
// evaluation result: what appendValueJSON writes for the ValueJSON the
// result would render to, without building it.
func appendValue(dst []byte, d *core.Document, v *core.Value) []byte {
	dst = append(dst, `{"kind":"`...)
	dst = append(dst, kindName(v.Kind)...)
	dst = append(dst, `","string":`...)
	var truncated bool
	switch {
	case v.Kind != xpath.TypeNodeSet:
		dst, truncated = appendClipped(dst, semantics.ToString(d, *v))
	case len(v.Set) == 0:
		dst = append(dst, `""`...)
	default:
		dst, truncated = appendStringValue(dst, d, v.Set[0])
	}
	if truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	switch v.Kind {
	case xpath.TypeNumber:
		dst = append(dst, `,"number":`...)
		dst = appendNumber(dst, v.Num)
	case xpath.TypeBoolean:
		dst = append(dst, `,"boolean":`...)
		dst = strconv.AppendBool(dst, v.Bool)
	case xpath.TypeNodeSet:
		dst = append(dst, `,"count":`...)
		dst = strconv.AppendInt(dst, int64(len(v.Set)), 10)
		for i, id := range v.Set {
			if i == maxNodesInResponse {
				break
			}
			if i == 0 {
				dst = append(dst, `,"nodes":[`...)
			} else {
				dst = append(dst, ',')
			}
			t, name := d.Type(id), d.Name(id)
			dst = append(dst, `{"type":"`...)
			dst = append(dst, t.String()...)
			dst = append(dst, '"')
			if t.HasName() && name != "" {
				dst = append(dst, `,"name":`...)
				dst = AppendJSONString(dst, name)
			}
			dst = append(dst, `,"value":`...)
			dst, truncated = appendStringValue(dst, d, id)
			if truncated {
				dst = append(dst, `,"truncated":true`...)
			}
			dst = append(dst, '}')
		}
		if len(v.Set) > 0 {
			dst = append(dst, ']')
		}
	}
	return append(dst, '}')
}

// appendValueJSON appends a ValueJSON member by member.
func appendValueJSON(dst []byte, v *ValueJSON) []byte {
	dst = append(dst, `{"kind":`...)
	dst = AppendJSONString(dst, v.Kind)
	dst = append(dst, `,"string":`...)
	dst = AppendJSONString(dst, v.String)
	if v.Truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	if v.Number != nil {
		dst = append(dst, `,"number":`...)
		dst = appendNumber(dst, *v.Number)
	}
	if v.Boolean != nil {
		dst = append(dst, `,"boolean":`...)
		dst = strconv.AppendBool(dst, *v.Boolean)
	}
	if v.Count != nil {
		dst = append(dst, `,"count":`...)
		dst = strconv.AppendInt(dst, int64(*v.Count), 10)
	}
	for i := range v.Nodes {
		if i == 0 {
			dst = append(dst, `,"nodes":[`...)
		} else {
			dst = append(dst, ',')
		}
		n := &v.Nodes[i]
		dst = append(dst, `{"type":`...)
		dst = AppendJSONString(dst, n.Type)
		if n.Name != "" {
			dst = append(dst, `,"name":`...)
			dst = AppendJSONString(dst, n.Name)
		}
		dst = append(dst, `,"value":`...)
		dst = AppendJSONString(dst, n.Value)
		if n.Truncated {
			dst = append(dst, `,"truncated":true`...)
		}
		dst = append(dst, '}')
	}
	if len(v.Nodes) > 0 {
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendAnswer opens an answer object and appends its members up to
// and including value or error; closeAnswer finishes it. line is nil
// for a /query answer. The value comes from r.Value when set, else
// from (d, v) when v is non-nil — the hot path, where no ValueJSON
// exists — else the answer has none (an error).
func appendAnswer(dst []byte, line *BatchLine, r *QueryResponse, d *core.Document, v *core.Value) []byte {
	dst = append(dst, '{')
	if line != nil {
		dst = append(dst, `"index":`...)
		dst = strconv.AppendInt(dst, int64(line.Index), 10)
		if line.Doc != "" {
			dst = append(dst, `,"doc":`...)
			dst = AppendJSONString(dst, line.Doc)
		}
		if line.Missing {
			dst = append(dst, `,"missing":true`...)
		}
		if line.RequestID != "" {
			dst = append(dst, `,"request_id":`...)
			dst = AppendJSONString(dst, line.RequestID)
		}
		dst = append(dst, ',')
	}
	dst = append(dst, `"query":`...)
	dst = AppendJSONString(dst, r.Query)
	dst = append(dst, `,"fragment":`...)
	dst = AppendJSONString(dst, r.Fragment)
	dst = append(dst, `,"strategy":`...)
	dst = AppendJSONString(dst, r.Strategy)
	if r.Version != 0 {
		dst = append(dst, `,"version":`...)
		dst = strconv.AppendUint(dst, r.Version, 10)
	}
	if r.Fallback {
		dst = append(dst, `,"fallback":true`...)
	}
	switch {
	case r.Value != nil:
		dst = append(dst, `,"value":`...)
		dst = appendValueJSON(dst, r.Value)
	case v != nil:
		dst = append(dst, `,"value":`...)
		dst = appendValue(dst, d, v)
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = AppendJSONString(dst, r.Error)
	}
	return dst
}

// closeAnswer appends the trace, when there is one, and closes the
// object and the line. The trace is the one member that goes through
// encoding/json: it is asked for by hand (?trace=1), not by traffic.
func closeAnswer(dst []byte, trace *obs.TraceJSON) []byte {
	if trace != nil {
		if tb, err := json.Marshal(trace); err == nil {
			dst = append(dst, `,"trace":`...)
			dst = append(dst, tb...)
		}
	}
	return append(dst, '}', '\n')
}

// AppendQueryResponse appends r in the wire layout: the compact JSON
// object and a newline.
func AppendQueryResponse(dst []byte, r *QueryResponse) []byte {
	return closeAnswer(appendAnswer(dst, nil, r, nil, nil), r.Trace)
}

// AppendBatchLine appends one /batch line in the wire layout: the
// compact JSON object and the newline that ends the line. The cluster
// router writes the lines it makes up itself (a job it could not place,
// a stream that died) through it, so they look like a backend's.
func AppendBatchLine(dst []byte, l *BatchLine) []byte {
	return closeAnswer(appendAnswer(dst, l, &l.QueryResponse, nil, nil), l.Trace)
}

// Envelope is what ScanEnvelope reads off the front of an encoded
// answer. Doc and RequestID are the raw JSON string tokens, quotes and
// escapes included, aliasing the scanned bytes; nil when absent.
type Envelope struct {
	Index     int
	Doc       []byte
	Missing   bool
	RequestID []byte
	Version   uint64
	// IndexEnd is the offset just past the index member's value, 0 when
	// the answer has no index (a /query body); End is the offset of the
	// closing brace. A relay that re-tags an answer copies everything
	// between the two unread.
	IndexEnd int
	End      int
}

// envelopeKeys are the members that may precede value and error, in
// layout order, with the kind of value each carries: i(nt), u(int),
// s(tring) or b(ool, only ever true).
var envelopeKeys = [...]struct {
	name string
	kind byte
}{
	{"index", 'i'}, {"doc", 's'}, {"missing", 'b'}, {"request_id", 's'},
	{"query", 's'}, {"fragment", 's'}, {"strategy", 's'}, {"version", 'u'},
	{"fallback", 'b'},
}

// ScanEnvelope reads the leading members of an answer in the wire
// layout — everything in front of value and error, never the value —
// and reports false for anything that is not laid out as this file
// lays it out: other members, another order, whitespace, a false or
// zero member the encoder would have left out. It takes a /query body
// or a /batch line, with or without the trailing newline. The answer's
// tail is not examined beyond its last byte being the closing brace, so
// a caller that cannot trust its peer checks json.Valid as well.
func ScanEnvelope(b []byte) (Envelope, bool) {
	var env Envelope
	end := len(b)
	if end > 0 && b[end-1] == '\n' {
		end--
	}
	if end < 2 || b[0] != '{' || b[end-1] != '}' {
		return env, false
	}
	end--
	env.End = end
	i, next := 1, 0
	if i == end {
		return env, true // {}
	}
	for {
		if b[i] != '"' {
			return env, false
		}
		n := bytes.IndexByte(b[i+1:end], '"')
		if n < 0 {
			return env, false
		}
		key := b[i+1 : i+1+n]
		i += n + 2
		if i >= end || b[i] != ':' {
			return env, false
		}
		i++
		slot := -1
		for s := next; s < len(envelopeKeys); s++ {
			if string(key) == envelopeKeys[s].name {
				slot = s
				break
			}
		}
		if slot < 0 {
			// Not an envelope member still to come: the envelope ends
			// here if this is the answer's body.
			k := string(key)
			return env, k == "value" || k == "error" || k == "trace"
		}
		next = slot + 1
		// The member's value is one token of its kind ...
		start, name := i, envelopeKeys[slot].name
		switch envelopeKeys[slot].kind {
		case 's':
			if i >= end || b[i] != '"' {
				return env, false
			}
			for i++; i < end && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if i >= end {
				return env, false
			}
			i++
		case 'b':
			if !bytes.HasPrefix(b[i:end], []byte("true")) {
				return env, false
			}
			i += 4
		default:
			if name == "index" && i < end && b[i] == '-' {
				i++
			}
			digits := i
			for i < end && b[i] >= '0' && b[i] <= '9' {
				i++
			}
			if i == digits {
				return env, false
			}
		}
		// ... which the envelope keeps if a relay has a use for it.
		switch tok := b[start:i]; name {
		case "index":
			n, err := strconv.Atoi(string(tok))
			if err != nil {
				return env, false
			}
			env.Index, env.IndexEnd = n, i
		case "doc":
			env.Doc = tok
		case "missing":
			env.Missing = true
		case "request_id":
			env.RequestID = tok
		case "version":
			n, err := strconv.ParseUint(string(tok), 10, 64)
			if err != nil || n == 0 {
				return env, false
			}
			env.Version = n
		}
		if i == end {
			return env, true
		}
		if b[i] != ',' {
			return env, false
		}
		if i++; i >= end {
			return env, false
		}
	}
}

// The request direction. A request envelope — the body of POST /query,
// /documents or /batch — is a small object whose members are strings,
// string lists and one integer, and the largest thing in it by orders
// of magnitude is the "xml" string of a registration. It is read the
// way an answer is written: by hand, once. ScanRequest walks the bytes
// and fills the members the caller names; a string is copied out of the
// body exactly once (unescaped through a pooled buffer when it has
// escapes), so a registration's document becomes the one string the XML
// parser's nodes then alias. encoding/json is still the definition of
// the format: ScanRequest declines — returns false, having promised
// nothing — every body it cannot prove json.Unmarshal would decode to
// the very same values, and DecodeJSON then hands the body to
// json.Unmarshal as it always did. Declined, not wrong, are: a member
// it was not told of (case variants of a known key included — encoding/
// json matches keys case-insensitively), a key written twice, null, a
// value of the wrong type, a number that is not a plain unsigned
// integer, an escape or UTF-8 sequence encoding/json would replace with
// U+FFFD (a lone surrogate, invalid bytes), and anything that is not
// JSON. FuzzScanRequest holds both halves of that to encoding/json.

// Member names one member of a request object and where its value
// goes; exactly one of the pointers is set.
type Member struct {
	Key     string
	String  *string     // a string, decoded
	Strings *[]string   // an array of strings
	Uint    *uint64     // an unsigned integer
	Jobs    *[]BatchJob // an array of {doc, query} objects
	// Raw takes a string or an unsigned integer as its token, quotes
	// and escapes included, aliasing the scanned bytes — what a relay
	// needs of a value it forwards and never reads (cluster: a
	// registration's xml). Nil after a scan means the member was absent.
	Raw *[]byte
}

// ScanRequest reads b, one JSON object, into the members given and
// reports whether it could; on false the destinations hold garbage and
// the body is json.Unmarshal's to judge.
func ScanRequest(b []byte, members ...Member) bool {
	var sc requestScanner
	i, ok := sc.object(b, skipSpace(b, 0), members)
	if sc.scratch != nil {
		putBuffer(sc.scratch)
	}
	return ok && skipSpace(b, i) == len(b)
}

// requestScanner carries the one piece of state a scan has: the pooled
// buffer strings with escapes are unescaped through, taken on first use.
type requestScanner struct{ scratch *buffer }

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// object scans the object at b[i] and returns the offset past it.
func (sc *requestScanner) object(b []byte, i int, members []Member) (int, bool) {
	if i >= len(b) || b[i] != '{' {
		return 0, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return i + 1, true
	}
	var seen uint
	for {
		if i >= len(b) || b[i] != '"' {
			return 0, false
		}
		// A key of ours has no escapes; one that does is cut short at
		// its first quote here and matches nothing.
		n := bytes.IndexByte(b[i+1:], '"')
		if n < 0 {
			return 0, false
		}
		key := b[i+1 : i+1+n]
		slot := -1
		for m := range members {
			if string(key) == members[m].Key {
				slot = m
				break
			}
		}
		if slot < 0 || seen&(1<<slot) != 0 {
			return 0, false
		}
		seen |= 1 << slot
		if i = skipSpace(b, i+n+2); i >= len(b) || b[i] != ':' {
			return 0, false
		}
		i = skipSpace(b, i+1)
		var ok bool
		switch m := &members[slot]; {
		case m.String != nil:
			i, ok = sc.str(b, i, m.String)
		case m.Uint != nil:
			i, *m.Uint, ok = scanUint(b, i)
		case m.Raw != nil:
			start := i
			if i < len(b) && b[i] == '"' {
				i, _, ok = scanString(b, i, nil)
			} else {
				i, _, ok = scanUint(b, i)
			}
			if ok {
				*m.Raw = b[start:i]
			}
		case m.Strings != nil:
			list := []string{} // what encoding/json makes of [], not nil
			i, ok = scanArray(b, i, func(i int) (int, bool) {
				var s string
				i, ok := sc.str(b, i, &s)
				list = append(list, s)
				return i, ok
			})
			*m.Strings = list
		case m.Jobs != nil:
			jobs := []BatchJob{}
			var job BatchJob // one, reused: object calls itself here, so these escape
			members := []Member{{Key: "doc", String: &job.Doc}, {Key: "query", String: &job.Query}}
			i, ok = scanArray(b, i, func(i int) (int, bool) {
				job = BatchJob{}
				i, ok := sc.object(b, i, members)
				jobs = append(jobs, job)
				return i, ok
			})
			*m.Jobs = jobs
		}
		var closed bool
		if i, closed, ok = afterValue(b, i, '}', ok); closed || !ok {
			return i, ok
		}
	}
}

// afterValue takes the scan past what follows a member or an element
// that ended at b[i] (valid says whether it scanned): a comma, and then
// i is where the next one starts, or close, and then i is past it.
func afterValue(b []byte, i int, close byte, valid bool) (next int, closed, ok bool) {
	if i = skipSpace(b, i); !valid || i >= len(b) {
		return 0, false, false
	}
	switch b[i] {
	case ',':
		return skipSpace(b, i+1), false, true
	case close:
		return i + 1, true, true
	}
	return 0, false, false
}

// scanArray scans the array at b[i], handing element the offset of
// each element for it to scan, and returns the offset past the array.
func scanArray(b []byte, i int, element func(int) (int, bool)) (int, bool) {
	if i >= len(b) || b[i] != '[' {
		return 0, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return i + 1, true
	}
	for {
		var closed, ok bool
		i, ok = element(i)
		if i, closed, ok = afterValue(b, i, ']', ok); closed || !ok {
			return i, ok
		}
	}
}

// scanUint reads the unsigned integer at b[i] — digits with no sign,
// fraction, exponent or leading zero, that fit a uint64 — and returns
// the offset past it.
func scanUint(b []byte, i int) (end int, v uint64, ok bool) {
	for end = i; end < len(b) && b[end]-'0' < 10; end++ {
	}
	if end == i || b[i] == '0' && end > i+1 {
		return 0, 0, false
	}
	v, err := strconv.ParseUint(string(b[i:end]), 10, 64)
	return end, v, err == nil
}

// str scans the string at b[i] into *dst: one copy out of the body.
func (sc *requestScanner) str(b []byte, i int, dst *string) (int, bool) {
	if sc.scratch == nil {
		sc.scratch = getBuffer()
	}
	sc.scratch.b = sc.scratch.b[:0]
	end, escaped, ok := scanString(b, i, &sc.scratch.b)
	switch {
	case !ok:
		return 0, false
	case escaped:
		*dst = string(sc.scratch.b)
	default:
		*dst = string(b[i+1 : end-1])
	}
	return end, true
}

// plainByte marks the bytes of a JSON string that stand for themselves
// and need no look: ASCII but for the quote, the backslash and the
// control characters (which JSON does not allow raw). hexValue is a hex
// digit's value, negative for any other byte.
var (
	plainByte [256]bool
	hexValue  [256]int8
)

func init() {
	for c := range hexValue {
		plainByte[c] = c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\'
		hexValue[c] = -1
	}
	for v, c := range "0123456789abcdef" {
		hexValue[c] = int8(v)
	}
	for v, c := range "ABCDEF" {
		hexValue[c] = int8(10 + v)
	}
}

// scanString checks the string token at b[i] and returns the offset
// past its closing quote and whether it has escapes. If it has, and
// unescaped is not nil, the string they stand for is appended to
// *unescaped; a token without escapes is its own value and nothing is
// appended. It declines (ok false) what is not a JSON string and what
// encoding/json would decode to something other than what is written:
// invalid UTF-8 and \u escapes that are not a character (a surrogate
// without its pair), both of which become U+FFFD there.
func scanString(b []byte, i int, unescaped *[]byte) (end int, escaped, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return 0, false, false
	}
	i++
	flushed := i // b[flushed:i] is checked and, if escaped, not yet appended
	for i < len(b) {
		c := b[i]
		if plainByte[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			if escaped && unescaped != nil {
				*unescaped = append(*unescaped, b[flushed:i]...)
			}
			return i + 1, escaped, true
		case c == '\\':
			if i+1 >= len(b) {
				return 0, false, false
			}
			r, size := rune(b[i+1]), 2
			switch r {
			case '"', '\\', '/':
			case 'b':
				r = '\b'
			case 'f':
				r = '\f'
			case 'n':
				r = '\n'
			case 'r':
				r = '\r'
			case 't':
				r = '\t'
			case 'u':
				if r, size = hex4(b, i+2), 6; utf16.IsSurrogate(r) {
					// A character only as a high surrogate with its
					// low one right behind it.
					low := rune(-1)
					if i+7 < len(b) && b[i+6] == '\\' && b[i+7] == 'u' {
						low = hex4(b, i+8)
					}
					if r, size = utf16.DecodeRune(r, low), 12; r == utf8.RuneError {
						return 0, false, false
					}
				}
				if r < 0 {
					return 0, false, false
				}
			default:
				return 0, false, false
			}
			if escaped = true; unescaped != nil {
				*unescaped = utf8.AppendRune(append(*unescaped, b[flushed:i]...), r)
			}
			i += size
			flushed = i
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return 0, false, false
			}
			i += size
		default: // a raw control character
			return 0, false, false
		}
	}
	return 0, false, false
}

// hex4 is the value of the four hex digits at b[i:], -1 when they are
// not four hex digits.
func hex4(b []byte, i int) rune {
	if i+4 > len(b) {
		return -1
	}
	h0, h1, h2, h3 := hexValue[b[i]], hexValue[b[i+1]], hexValue[b[i+2]], hexValue[b[i+3]]
	if h0|h1|h2|h3 < 0 {
		return -1
	}
	return rune(h0)<<12 | rune(h1)<<8 | rune(h2)<<4 | rune(h3)
}

// ScanJSON is ScanRequest for a POST /query body. Like its siblings it
// leaves the receiver alone unless it returns true — the contract
// DecodeJSON needs of a type that reads itself.
func (q *QueryRequest) ScanJSON(b []byte) bool {
	var t QueryRequest
	if !ScanRequest(b, Member{Key: "doc", String: &t.Doc}, Member{Key: "query", String: &t.Query}) {
		return false
	}
	*q = t
	return true
}

// ScanJSON is ScanRequest for a POST /documents body. XML is the one
// copy of the document made between the socket and the tree: the
// parser's nodes alias it.
func (d *DocumentRequest) ScanJSON(b []byte) bool {
	var t DocumentRequest
	if !ScanRequest(b, Member{Key: "name", String: &t.Name}, Member{Key: "xml", String: &t.XML}, Member{Key: "version", Uint: &t.Version}) {
		return false
	}
	*d = t
	return true
}

// ScanJSON is ScanRequest for a POST /batch body, either form.
func (q *BatchRequest) ScanJSON(b []byte) bool {
	var t BatchRequest
	if !ScanRequest(b, Member{Key: "doc", String: &t.Doc}, Member{Key: "queries", Strings: &t.Queries}, Member{Key: "jobs", Jobs: &t.Jobs}) {
		return false
	}
	*q = t
	return true
}

// The requests a router sends a backend and the replies to a
// registration are appended like answers: byte for byte what
// json.Marshal writes for the struct (encode_test.go holds them to it).

// AppendQueryRequest appends the POST /query body for (doc, query).
func AppendQueryRequest(dst []byte, doc, query string) []byte {
	dst = append(dst, `{"doc":`...)
	dst = AppendJSONString(dst, doc)
	dst = append(dst, `,"query":`...)
	dst = AppendJSONString(dst, query)
	return append(dst, '}')
}

// AppendJobsRequest appends the grouped POST /batch body for jobs.
func AppendJobsRequest(dst []byte, jobs []BatchJob) []byte {
	dst = append(dst, `{"jobs":[`...)
	for i := range jobs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendQueryRequest(dst, jobs[i].Doc, jobs[i].Query)
	}
	return append(dst, ']', '}')
}

// AppendDocumentRequest appends the POST /documents body registering
// xml under name, at an explicit version when ver is not zero.
func AppendDocumentRequest(dst []byte, name, xml string, ver uint64) []byte {
	dst = append(dst, `{"name":`...)
	dst = AppendJSONString(dst, name)
	dst = append(dst, `,"xml":`...)
	dst = AppendJSONString(dst, xml)
	if ver != 0 {
		dst = append(dst, `,"version":`...)
		dst = strconv.AppendUint(dst, ver, 10)
	}
	return append(dst, '}')
}

// DocumentResponse is the reply to a registration: what POST /documents
// answers on a node, and — with the members from Node on — on the
// cluster router, which adds where the document landed and which ring
// successors took a mirror copy. Members are in the order the map these
// replies used to be marshalled from sorted them, so the bytes did not
// move when the map went.
type DocumentResponse struct {
	Name  string `json:"name"`
	Node  string `json:"node,omitempty"`
	Nodes int    `json:"nodes"`
	// ReplicaErrors maps a mirror that failed to why; Replicas lists
	// the ones that took the copy and is written, as [] if need be,
	// whenever the router replicates at all (non-nil), which
	// encoding/json's omitempty cannot say.
	ReplicaErrors map[string]string `json:"replica_errors,omitempty"`
	Replicas      []string          `json:"replicas,omitempty"`
	Version       uint64            `json:"version"`
}

// AppendDocumentResponse appends r as compact JSON and a newline.
func AppendDocumentResponse(dst []byte, r *DocumentResponse) []byte {
	dst = append(dst, `{"name":`...)
	dst = AppendJSONString(dst, r.Name)
	if r.Node != "" {
		dst = append(dst, `,"node":`...)
		dst = AppendJSONString(dst, r.Node)
	}
	dst = append(dst, `,"nodes":`...)
	dst = strconv.AppendInt(dst, int64(r.Nodes), 10)
	if len(r.ReplicaErrors) > 0 {
		nodes := make([]string, 0, len(r.ReplicaErrors))
		for node := range r.ReplicaErrors {
			nodes = append(nodes, node)
		}
		sort.Strings(nodes)
		dst = append(dst, `,"replica_errors":{`...)
		for i, node := range nodes {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSONString(dst, node)
			dst = append(dst, ':')
			dst = AppendJSONString(dst, r.ReplicaErrors[node])
		}
		dst = append(dst, '}')
	}
	if r.Replicas != nil {
		dst = append(dst, `,"replicas":[`...)
		for i, node := range r.Replicas {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSONString(dst, node)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendUint(dst, r.Version, 10)
	return append(dst, '}', '\n')
}
