package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/semantics"
	"repro/internal/store"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// nastyStrings is what a string member is drawn from in the generated
// values: everything encoding/json escapes, and what it must not.
var nastyStrings = []string{
	"", "plain", `quote " and backslash \`, "<tag attr='v'> & more", "tab\tnewline\nreturn\r",
	"bell\a backspace\b formfeed\f escape\x1b nul\x00 del\x7f", "line\u2028sep para\u2029sep",
	"héllo wörld ✓ 日本語 🙂", "invalid \xff\xfe utf8 \xc3", "cut rune \xe2\x82", `"version":99,"value":{"kind":"x"}`,
	`\"version\":1`, "//item[name = 'a']/text()",
}

var nastyNumbers = []float64{0, math.Copysign(0, -1), 1, -3.25, 12, 1e21, 1.5e-7, 1e-7, 1e-6, 999999999999999999999,
	123456789.125, 5e-324, math.MaxFloat64, -1e-9, 1e22}

// populate sets every field reachable from v — exported or embedded,
// through pointers and slices — to a non-zero value when on(), and
// leaves it zero otherwise. Because it walks the types by reflection, a
// member added to a wire struct is populated here the day it is added,
// and an encoder that forgot it stops matching encoding/json. depth
// counts the pointers and slices above v and ends SpanJSON's recursion.
func populate(v reflect.Value, rng *rand.Rand, on func() bool, depth int) {
	if v.Type() == reflect.TypeOf(time.Time{}) {
		v.Set(reflect.ValueOf(time.Unix(1700000000+rng.Int63n(1e6), rng.Int63n(1e9)).UTC()))
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanSet() {
				continue
			}
			// Members without omitempty are always written; populate them
			// regardless so "absent" means absent on the wire.
			tag := v.Type().Field(i).Tag.Get("json")
			if v.Type().Field(i).Anonymous || !strings.Contains(tag, "omitempty") || (depth < 5 && on()) {
				populate(f, rng, on, depth)
			}
		}
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		populate(v.Elem(), rng, on, depth+1)
	case reflect.Slice:
		n := 1 + rng.Intn(3)
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			populate(v.Index(i), rng, on, depth+1)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(reflect.ValueOf("k"), reflect.ValueOf(nastyStrings[rng.Intn(len(nastyStrings))]))
	case reflect.String:
		v.SetString(nastyStrings[1+rng.Intn(len(nastyStrings)-1)])
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(1 + rng.Int63n(1<<40))
	case reflect.Uint64:
		v.SetUint(1 + uint64(rng.Int63n(1<<40)))
	case reflect.Float64:
		v.SetFloat(nastyNumbers[rng.Intn(len(nastyNumbers))])
	case reflect.Interface:
		// SpanJSON.Remote: whatever a remote tier reported.
		v.Set(reflect.ValueOf(map[string]any{"request_id": "remote", "total_ns": 5.0}))
	default:
		panic(fmt.Sprintf("populate: no rule for %s; teach it the new member's type", v.Type()))
	}
}

// generatedLines is the differential corpus: every optional member
// present, every optional member absent, and random mixtures.
func generatedLines() []*BatchLine {
	rng := rand.New(rand.NewSource(18))
	var lines []*BatchLine
	for i := 0; i < 300; i++ {
		on := func() bool { return rng.Intn(2) == 0 }
		switch i {
		case 0:
			on = func() bool { return true }
		case 1:
			on = func() bool { return false }
		}
		l := new(BatchLine)
		populate(reflect.ValueOf(l).Elem(), rng, on, 0)
		if i%7 == 3 {
			l.Index = -l.Index
		}
		lines = append(lines, l)
	}
	return lines
}

// TestEncoderMatchesEncodingJSON is the differential test of the
// struct encoders: for generated QueryResponse and BatchLine values the
// hand-written encoder writes byte for byte what encoding/json writes
// (plus the newline), so it also decodes to the same struct.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	for i, l := range generatedLines() {
		for _, c := range []struct {
			name string
			v    any
			got  []byte
		}{
			{"BatchLine", l, AppendBatchLine(nil, l)},
			{"QueryResponse", &l.QueryResponse, AppendQueryResponse([]byte("prefix"), &l.QueryResponse)[len("prefix"):]},
		} {
			want, err := json.Marshal(c.v)
			if err != nil {
				t.Fatalf("line %d: json.Marshal(%s): %v", i, c.name, err)
			}
			if string(c.got) != string(want)+"\n" {
				t.Fatalf("line %d: %s encodes to\n%s\nencoding/json writes\n%s", i, c.name, c.got, want)
			}
			back, ref := reflect.New(reflect.TypeOf(c.v).Elem()), reflect.New(reflect.TypeOf(c.v).Elem())
			if err := json.Unmarshal(c.got, back.Interface()); err != nil {
				t.Fatalf("line %d: %s does not decode: %v\n%s", i, c.name, err, c.got)
			}
			if err := json.Unmarshal(want, ref.Interface()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back.Interface(), ref.Interface()) {
				t.Fatalf("line %d: %s decodes to %+v, encoding/json's to %+v", i, c.name, back.Interface(), ref.Interface())
			}
		}
	}
}

// TestEncoderNonFiniteNumber: encoding/json refuses NaN and the
// infinities (which is how they used to become an empty 200); the
// encoder writes null and leaves the text to "string".
func TestEncoderNonFiniteNumber(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := f
		resp := QueryResponse{Query: "q", Version: 1, Value: &ValueJSON{Kind: "number", String: semantics.NumberToString(f), Number: &f}}
		got := AppendQueryResponse(nil, &resp)
		if !json.Valid(got) || !bytes.Contains(got, []byte(`"number":null`)) {
			t.Fatalf("%v encodes to %s", f, got)
		}
		var back QueryResponse
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if back.Value.Number != nil || back.Value.String != semantics.NumberToString(f) || back.Value.Kind != "number" {
			t.Fatalf("%v decodes to %+v", f, back.Value)
		}
	}
}

// renderValue is the reference the direct renderer is held to: the
// ValueJSON the handlers used to build for every answer, string-values
// concatenated and clipped the plain way.
func renderValue(d *core.Document, v core.Value) *ValueJSON {
	clip := func(s string) (string, bool) {
		if len(s) <= maxStringBytes {
			return s, false
		}
		cut := maxStringBytes
		for cut > 0 && !utf8.RuneStart(s[cut]) {
			cut--
		}
		return s[:cut], true
	}
	out := &ValueJSON{Kind: kindName(v.Kind)}
	out.String, out.Truncated = clip(semantics.ToString(d, v))
	switch v.Kind {
	case xpath.TypeNumber:
		out.Number = &v.Num
	case xpath.TypeBoolean:
		out.Boolean = &v.Bool
	case xpath.TypeNodeSet:
		n := len(v.Set)
		out.Count = &n
		for i, id := range v.Set {
			if i == maxNodesInResponse {
				break
			}
			nj := NodeJSON{Type: d.Type(id).String()}
			nj.Value, nj.Truncated = clip(d.StringValue(id))
			if d.Type(id).HasName() {
				nj.Name = d.Name(id)
			}
			out.Nodes = append(out.Nodes, nj)
		}
	}
	return out
}

// TestEncoderRendersFromDocument is the differential test of the hot
// path: an answer appended straight from the document is byte for byte
// the answer the struct encoder — and, for finite numbers,
// encoding/json — writes for the reference rendering, with the memo of
// string-values cold and warm.
func TestEncoderRendersFromDocument(t *testing.T) {
	var many strings.Builder
	many.WriteString("<r>")
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&many, `<e n="%d">v%d</e>`, i, i)
	}
	many.WriteString("</r>")
	// 64 KB lands inside a two-byte rune: one byte, then é after é.
	oneChunk := "<a><b>x" + strings.Repeat("é", 40<<10) + "</b></a>"
	// ... and inside a rune of the 33rd of many text nodes, each 2001
	// bytes of an element of its own.
	var chunks strings.Builder
	chunks.WriteString("<a>")
	for i := 0; i < 40; i++ {
		chunks.WriteString("<b>y" + strings.Repeat("é", 1000) + "</b>")
	}
	chunks.WriteString("</a>")
	exact := "<a><b>" + strings.Repeat("z", maxStringBytes) + "</b><c>" + strings.Repeat("z", maxStringBytes-1) + "é</c></a>"
	docs := map[string]string{
		"mixed": `<root xmlns:p="urn:p" id="1"><!-- a "comment" & <more> --><?pi body > here?>` +
			`<p:q attr="a&lt;b&amp;c&quot;d">text &lt;with&gt; "quotes" \ and &amp;` + "  \ttab\nnl</p:q>" +
			`<e>one<f>two</f>three</e><empty/><n>12</n><n>x</n></root>`,
		"many":     many.String(),
		"oneChunk": oneChunk,
		"chunks":   chunks.String(),
		"exact":    exact,
	}
	queries := []string{
		"/", "//*", "//e", "//nope", "//@*", "//comment()", "//processing-instruction()", "//namespace::*", "//text()",
		"/a", "/a/b", "/a/c", "//b[1]", "count(//*)", "sum(//n)", "number(//n[2])", "1 div 0", "-1 div 0", "0 div -1",
		"1 div 3", "1000000000000000000000 * 10", "1000000000000000000000", "0.00000015", "0.000001", "1.5", "-0.5",
		"1 = 1", "1 = 2", "string(//e)", "string(/)", "concat('a\"b', '<&>')", "name(//*[2])", "string(//p:q/@attr)",
	}
	eng := engine.New(engine.Options{})
	for name, xml := range docs {
		for _, warm := range []bool{false, true} {
			d, err := core.ParseString(xml)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sess := eng.NewSession(d)
			if warm {
				for i := 0; i < d.Len(); i++ {
					d.StringValue(xmltree.NodeID(i))
				}
			}
			for _, q := range queries {
				res := sess.Do(q)
				if res.Err != nil {
					continue // p:q on a document without the prefix, and the like
				}
				resp := render(7, &res)
				got := closeAnswer(appendAnswer(nil, nil, &resp, d, &res.Value), nil)
				line := BatchLine{Index: 3, Doc: name, RequestID: "rid", QueryResponse: resp}
				gotLine := closeAnswer(appendAnswer(nil, &line, &line.QueryResponse, d, &res.Value), nil)

				// The reference reads its string-values from a parse of its
				// own, so a cold memo stays cold for the renderer under test.
				ref, _ := core.ParseString(xml)
				resp.Value = renderValue(ref, res.Value)
				line.QueryResponse = resp
				if want := AppendQueryResponse(nil, &resp); string(got) != string(want) {
					t.Fatalf("%s (warm=%v) %q: from the document\n%.300s\nfrom the reference rendering\n%.300s", name, warm, q, got, want)
				}
				if want := AppendBatchLine(nil, &line); string(gotLine) != string(want) {
					t.Fatalf("%s (warm=%v) %q: line from the document\n%.300s\nfrom the reference rendering\n%.300s", name, warm, q, gotLine, want)
				}
				if res.Value.Kind == xpath.TypeNumber && (math.IsNaN(res.Value.Num) || math.IsInf(res.Value.Num, 0)) {
					continue
				}
				want, err := json.Marshal(&resp)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want)+"\n" {
					t.Fatalf("%s (warm=%v) %q: from the document\n%.300s\nencoding/json\n%.300s", name, warm, q, got, want)
				}
			}
		}
	}
}

// FuzzAppendJSONString: arbitrary bytes become a valid JSON string that
// decodes to what encoding/json's own encoding of them decodes to —
// because it is the same bytes. The seeds run under plain `go test`.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range nastyStrings {
		f.Add([]byte(s))
	}
	f.Add([]byte{0xed, 0xa0, 0x80})       // a surrogate half, invalid in UTF-8
	f.Add([]byte{0xf4, 0x90, 0x80, 0x80}) // past U+10FFFF
	f.Add([]byte("\xe2\x80"))             // U+2028 cut short
	f.Fuzz(func(t *testing.T, b []byte) {
		s := string(b)
		got := AppendJSONString([]byte("x"), s)[1:]
		if !json.Valid(got) {
			t.Fatalf("%q encodes to invalid JSON %q", s, got)
		}
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%q encodes to %s, encoding/json writes %s", s, got, want)
		}
		var back, ref string
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if back != ref {
			t.Fatalf("%q decodes to %q, encoding/json's to %q", s, back, ref)
		}
	})
}

// envelopeLines is generatedLines plus the lines a router meets that the
// generator may not draw: an error line, a missing line, and a value
// with each non-finite number.
func envelopeLines() []*BatchLine {
	lines := generatedLines()
	lines = append(lines,
		&BatchLine{Index: 2, Doc: "d", RequestID: "r", QueryResponse: QueryResponse{Query: "//[", Error: "xpath: parse error"}},
		&BatchLine{Index: 3, Doc: "gone", Missing: true, RequestID: "r", QueryResponse: QueryResponse{Query: "q", Error: `unknown document "gone"`}})
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := f
		lines = append(lines, &BatchLine{Index: 4, Doc: "d", QueryResponse: QueryResponse{Query: "1 div 0", Fragment: "f", Strategy: "s", Version: 9,
			Value: &ValueJSON{Kind: "number", String: semantics.NumberToString(f), Number: &f}}})
	}
	return lines
}

// TestScanEnvelopeRoundTrip: the scanner reads back, from the encoder's
// bytes, the envelope the encoder was given — whatever the strings in
// front of the version spell — and its offsets are where a relay cuts:
// in particular '{' + line[Body:End] + "}\n" is the /query body of the
// line's answer, the layout contract one cache entry serves both with.
func TestScanEnvelopeRoundTrip(t *testing.T) {
	unquote := func(tok []byte) string {
		if tok == nil {
			return ""
		}
		var s string
		if err := json.Unmarshal(tok, &s); err != nil {
			t.Fatalf("token %s: %v", tok, err)
		}
		return s
	}
	// encoding/json decodes invalid UTF-8 to U+FFFD; compare decoded forms.
	decoded := func(s string) string {
		b, _ := json.Marshal(s)
		return unquote(b)
	}
	for i, l := range envelopeLines() {
		enc := AppendBatchLine(nil, l)
		env, ok := ScanEnvelope(enc)
		if !ok {
			t.Fatalf("line %d: scanner refuses the encoder's own output %s", i, enc)
		}
		if env.Index != l.Index || unquote(env.Doc) != decoded(l.Doc) || env.Missing != l.Missing ||
			unquote(env.RequestID) != decoded(l.RequestID) || env.Version != l.Version || env.Value != (l.Value != nil) {
			t.Fatalf("line %d: envelope %+v (doc %s, request_id %s) of %+v", i, env, env.Doc, env.RequestID, l)
		}
		if string(enc[:env.IndexEnd]) != `{"index":`+strconv.Itoa(l.Index) || string(enc[env.End:]) != "}\n" || env.Body < env.IndexEnd {
			t.Fatalf("line %d: offsets %d, %d, %d in %s", i, env.IndexEnd, env.Body, env.End, enc)
		}
		if envNoNL, ok := ScanEnvelope(enc[:len(enc)-1]); !ok || envNoNL.End != env.End || envNoNL.Body != env.Body {
			t.Fatalf("line %d: without the newline: %+v, %v", i, envNoNL, ok)
		}
		body := AppendQueryResponse(nil, &l.QueryResponse)
		if proper := "{" + string(enc[env.Body:env.End]) + "}\n"; proper != string(body) {
			t.Fatalf("line %d: the answer proper of\n%s\nis\n%s\nnot the /query body\n%s", i, enc, proper, body)
		}
		env, ok = ScanEnvelope(body)
		if !ok || env.IndexEnd != 0 || env.Body != 1 || env.Doc != nil || env.Version != l.Version || env.Value != (l.Value != nil) || body[env.End] != '}' {
			t.Fatalf("line %d: /query body envelope %+v, %v of %s", i, env, ok, body)
		}
	}
	for _, ok := range []string{`{}`, `{"error":"unknown document \"d\""}` + "\n", `{"index":0,"query":"q","fragment":"","strategy":"","error":"e"}`,
		`{"index":-2,"doc":"d"}`, `{"query":"\\\"","fragment":"f","strategy":"s","version":18446744073709551615,"value":{"kind":"number"}}`} {
		if _, got := ScanEnvelope([]byte(ok)); !got {
			t.Errorf("scanner refuses canonical %s", ok)
		}
	}
}

// TestScanEnvelopeRefusesNonCanonical: anything the encoder would not
// have written is refused, not guessed at.
func TestScanEnvelopeRefusesNonCanonical(t *testing.T) {
	indented, _ := json.MarshalIndent(BatchLine{Index: 1, Doc: "d", QueryResponse: QueryResponse{Query: "q", Version: 2}}, "", "  ")
	for _, bad := range []string{
		"", "{", "}", "null", "[1]", `"s"`, "7", string(indented),
		`{ "index":1,"query":"q"}`, `{"index": 1,"query":"q"}`, `{"index":1 ,"query":"q"}`, `{"index":1,"query":"q"} `,
		` {"index":1,"query":"q"}`, "\n", `{"index":1,"query":"q"}` + "\n\n",
		`{"doc":"d","index":1,"query":"q"}`, `{"index":1,"index":2,"query":"q"}`, `{"query":"q","doc":"d"}`,
		`{"index":1,"missing":false,"query":"q"}`, `{"query":"q","fragment":"","strategy":"","version":0}`,
		`{"index":"1","query":"q"}`, `{"index":1.5,"query":"q"}`, `{"index":,"query":"q"}`, `{"index":-,"query":"q"}`,
		`{"index":99999999999999999999,"query":"q"}`, `{"query":"q","fragment":"","strategy":"","version":99999999999999999999}`,
		`{"index":1,"doc":d}`, `{"index":1,"doc":"d}`, `{"index":1,"doc":"d\"}`, `{"index":1,"doc":"d",}`, `{"index":1,}`, `{"index":1,"doc"}`,
		`{"index":1"doc":"d"}`, `{"foo":1}`, `{"index":1,"foo":1}`, `{"node":"n","index":1}`, `{"query":"q","planned":1}`, `{"index":1,"query":"q"`,
		`{"index":1,"query":"q"]`, `{"index":1,"doc":"d","missing":tru}`, `{"index":1,"doc`, `{"index":1,"`, `{"index":1,"doc":`, `{"index":1,"doc":"`,
	} {
		if env, ok := ScanEnvelope([]byte(bad)); ok {
			t.Errorf("scanner accepts %q as %+v", bad, env)
		}
	}
}

// FuzzScanEnvelope: on arbitrary bytes the scanner does not panic and
// every offset it returns is inside the input; what it accepts has its
// offsets where the layout puts them, and its answer proper,
// '{' + b[Body:End] + '}', is accepted as a /query body with the same
// version and value flag — what a router relays and caches is an answer
// the scanner reads the same way. The seeds run under plain `go test`.
func FuzzScanEnvelope(f *testing.F) {
	for i, l := range envelopeLines() {
		if i%10 == 0 || i >= len(envelopeLines())-5 {
			f.Add(AppendBatchLine(nil, l))
			f.Add(AppendQueryResponse(nil, &l.QueryResponse))
		}
	}
	for _, s := range []string{"{}", `{"index":-2,"doc":"d"}`, `{"error":"unknown document \"d\""}` + "\n", `{"index":1,"doc":"d\"}`, `{"index":1,"`, `{"query":"q","planned":1}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		env, ok := ScanEnvelope(b)
		for _, off := range []int{env.IndexEnd, env.Body, env.End} {
			if off < 0 || off > len(b) {
				t.Fatalf("%q: offset %d out of range in %+v", b, off, env)
			}
		}
		if !ok {
			return
		}
		if b[env.End] != '}' || env.Body < 1 || env.Body > env.End || env.IndexEnd > env.Body ||
			(env.IndexEnd > 0) != bytes.HasPrefix(b, []byte(`{"index":`)) || (env.Body < env.End && b[env.Body] != '"') {
			t.Fatalf("%q: offsets %d, %d, %d", b, env.IndexEnd, env.Body, env.End)
		}
		proper := append(append([]byte{'{'}, b[env.Body:env.End]...), '}')
		penv, pok := ScanEnvelope(proper)
		if !pok || penv.Body != 1 || penv.IndexEnd != 0 || penv.Version != env.Version || penv.Value != env.Value {
			t.Fatalf("%q: answer proper %q reads as %+v, %v; the line as %+v", b, proper, penv, pok, env)
		}
	})
}

// discardWriter is a ResponseWriter that keeps nothing but the size of
// the body.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.n = len(p); return len(p), nil }

// TestAnswerAllocsDoNotGrow is the guard on the hot path's design: what
// /query allocates from the evaluation's outcome to the last Write is
// the same for an answer that renders one node and one that renders a
// hundred, in allocations and (near enough) in bytes.
func TestAnswerAllocsDoNotGrow(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	var xml strings.Builder
	xml.WriteString("<r>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&xml, "<item><name>name number %d &amp; co</name></item>", i)
	}
	xml.WriteString("</r>")
	srv := New(engine.New(engine.Options{}), store.Config{})
	if _, _, err := srv.AddDocument("d", xml.String()); err != nil {
		t.Fatal(err)
	}
	sess, _ := srv.Session("d")
	req := httptest.NewRequest(http.MethodPost, "/query", nil)
	measure := func(query string) (allocs float64, bytes uint64, body int) {
		res := sess.Do(query)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		w := &discardWriter{h: http.Header{}}
		run := func() { srv.writeAnswer(w, req, sess, 1, &res) }
		run() // the pooled buffer grows to the answer's size once
		allocs = testing.AllocsPerRun(200, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 200; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 200, w.n
	}
	one, oneBytes, oneBody := measure("//item[1]/name")
	ten, _, _ := measure("//item[position() <= 10]/name")
	hundred, hundredBytes, hundredBody := measure("//item/name")
	if hundredBody < oneBody+90*len("name number") {
		t.Fatalf("bodies of %d and %d bytes: the 100-node answer is not rendering its nodes", oneBody, hundredBody)
	}
	if one != ten || one != hundred {
		t.Errorf("allocations per answer grow with the nodes rendered: %v for 1, %v for 10, %v for 100", one, ten, hundred)
	}
	if hundredBytes > oneBytes+128 {
		t.Errorf("bytes allocated per answer grow with the nodes rendered: %d for a %d-byte body, %d for a %d-byte body", oneBytes, oneBody, hundredBytes, hundredBody)
	}
}

// TestNonFiniteNumbersOverHTTP is the regression test of the empty 200:
// a query whose value is NaN or an infinity used to make encoding/json
// fail after the header was out. /query must answer it, and /batch must
// still stream exactly one line per job.
func TestNonFiniteNumbersOverHTTP(t *testing.T) {
	srv := New(engine.New(engine.Options{Workers: 2}), store.Config{})
	if _, _, err := srv.AddDocument("d", "<r><a>1</a><a>x</a></r>"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for query, want := range map[string]string{"1 div 0": "Infinity", "-1 div 0": "-Infinity", "number(//a[2])": "NaN", "number('x')": "NaN"} {
		resp, out := postJSON(t, ts.URL+"/query", QueryRequest{Doc: "d", Query: query})
		if resp.StatusCode != http.StatusOK || resp.ContentLength <= 0 {
			t.Fatalf("%s: status %d, Content-Length %d", query, resp.StatusCode, resp.ContentLength)
		}
		val, _ := out["value"].(map[string]any)
		if num, present := val["number"]; val["kind"] != "number" || val["string"] != want || !present || num != nil {
			t.Fatalf("%s: value = %v, want string %q and number null", query, val, want)
		}
	}
	buf, _ := json.Marshal(BatchRequest{Doc: "d", Queries: []string{"1 div 0", "count(//a)", "number('x')"}})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := readBatchLines(t, resp)
	if len(lines) != 3 {
		t.Fatalf("%d lines for 3 jobs: %v", len(lines), lines)
	}
	for _, l := range lines {
		val, _ := l["value"].(map[string]any)
		if l["error"] != nil || val == nil {
			t.Fatalf("line %v", l)
		}
		if nonFinite := l["index"] != 1.0; nonFinite != (val["number"] == nil) {
			t.Fatalf("line %v: number = %v", l["index"], val["number"])
		}
	}
}

// TestRequestDecode: the body is one JSON object and nothing else —
// trailing garbage is a 400 — and the size limit still answers 413;
// responses are compact and carry their length.
func TestRequestDecode(t *testing.T) {
	srv, ts := testServer(t)
	post := func(body string) (*http.Response, string) {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp, b.String()
	}
	const good = `{"doc":"catalog","query":"count(//product)"}`
	resp, body := post(good + " \n\t")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace: status %d: %s", resp.StatusCode, body)
	}
	if resp.ContentLength != int64(len(body)) || strings.Contains(strings.TrimSuffix(body, "\n"), "\n") || strings.Contains(body, `": `) || !strings.HasSuffix(body, "}\n") {
		t.Errorf("response is not one compact line with its Content-Length (%d): %q", resp.ContentLength, body)
	}
	for _, bad := range []string{good + " trailing garbage", good + good, good + "]", "", "   ", `{"doc":"catalog"`} {
		if resp, body := post(bad); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "invalid JSON") {
			t.Errorf("body %q: status %d, %s; want 400 invalid JSON", bad, resp.StatusCode, body)
		}
	}
	srv.maxBody = 64
	resp, body = post(`{"doc":"catalog","query":"count(//product` + strings.Repeat(" ", 200) + `)"}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(body, "exceeds 64 bytes") {
		t.Errorf("oversized body: status %d, %s; want 413", resp.StatusCode, body)
	}
}
