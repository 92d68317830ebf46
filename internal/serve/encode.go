package serve

// This file is the one definition of how an answer looks on the wire.
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
	"strconv"
	"sync"
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
			node := d.Node(id)
			dst = append(dst, `{"type":"`...)
			dst = append(dst, node.Type.String()...)
			dst = append(dst, '"')
			if node.Type.HasName() && node.Name != "" {
				dst = append(dst, `,"name":`...)
				dst = AppendJSONString(dst, node.Name)
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
