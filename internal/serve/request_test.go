package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// requestSeeds are request bodies on both sides of what ScanRequest
// accepts; testdata/fuzz/FuzzScanRequest adds to them.
var requestSeeds = []string{
	`{"doc":"catalog","query":"count(//product)"}`,
	` { "doc" : "catalog" , "query" : "//a[b = 'c']" } ` + "\n\t\r",
	`{"query":"//a","doc":"d"}`,
	`{}`,
	`{ }`,
	`{"doc":"d"}`,
	`{"name":"d","xml":"<a id=\"1\">x &amp; y<\/a>\n"}`,
	`{"name":"d","xml":"\u003ca\u003e\u00e9\u2028\ud83d\ude00\u003c/a\u003e","version":7}`,
	`{"name":"d","xml":"<a/>","version":0}`,
	`{"name":"d","xml":"<a/>","version":18446744073709551615}`,
	`{"name":"d","xml":"<a/>","version":18446744073709551616}`,
	`{"name":"d","xml":"<a/>","version":01}`,
	`{"name":"d","xml":"<a/>","version":-1}`,
	`{"name":"d","xml":"<a/>","version":1.0}`,
	`{"name":"d","xml":"<a/>","version":1e2}`,
	`{"name":"d","xml":"<a/>","version":"7"}`,
	`{"name":"d","xml":"<a/>","version":null}`,
	`{"doc":"d","queries":["//a","count(//b)",""]}`,
	`{"doc":"d","queries":[]}`,
	`{"doc":"d","queries":[ ]}`,
	`{"doc":"d","queries":["a",]}`,
	`{"doc":"d","queries":[,"a"]}`,
	`{"doc":"d","queries":["a" "b"]}`,
	`{"doc":"d","queries":[1]}`,
	`{"doc":"d","queries":[null]}`,
	`{"doc":"d","queries":null}`,
	`{"doc":"d","queries":"//a"}`,
	`{"jobs":[{"doc":"a","query":"//x"},{"query":"//y","doc":"b"},{}]}`,
	`{"jobs":[]}`,
	`{"jobs":[null]}`,
	`{"jobs":[{"doc":"a","query":"//x","extra":1}]}`,
	`{"jobs":[{"doc":"a","doc":"b"}]}`,
	`{"jobs":[["a"]]}`,
	`{"doc":"d","queries":["//a"],"jobs":[{"doc":"a","query":"//x"}]}`,
	// Trailing garbage and things that are not one object.
	`{"doc":"d","query":"q"} x`,
	`{"doc":"d","query":"q"}{"doc":"d","query":"q"}`,
	`{"doc":"d","query":"q"}]`,
	`{"doc":"d","query":"q"`,
	`{"doc":"d","query":"q",}`,
	`{"doc":"d" "query":"q"}`,
	`{"doc" "d"}`,
	`{"doc":}`,
	`{doc:"d"}`,
	`{'doc':'d'}`,
	``,
	`   `,
	`null`,
	`[]`,
	`"doc"`,
	`7`,
	`[{"doc":"d","query":"q"}]`,
	// Keys encoding/json matches and the scanner must not guess at.
	`{"doc":"first","doc":"second","query":"q"}`,
	`{"Doc":"d","QUERY":"q"}`,
	`{"doc":"d","Doc":"e","query":"q"}`,
	`{"d\u006fc":"d","query":"q"}`,
	`{"doc\"":"d","query":"q"}`,
	`{"doc":"d","query":"q","extra":{"nested":[1,2,{"x":null}]}}`,
	`{"":"d"}`,
	// Values of other types.
	`{"doc":null,"query":"q"}`,
	`{"doc":7,"query":"q"}`,
	`{"doc":["d"],"query":"q"}`,
	`{"doc":{"x":"d"},"query":"q"}`,
	`{"doc":true,"query":"q"}`,
	// Escapes.
	`{"doc":"\"\\\/\b\f\n\r\t","query":"\u0000\u001f\u007f\u00e9\uffff"}`,
	`{"doc":"\ud83d\ude00","query":"\uD83D\uDE00"}`,
	`{"doc":"\ud83d","query":"q"}`,
	`{"doc":"\ud83dx","query":"q"}`,
	`{"doc":"\ud83d\u0041","query":"q"}`,
	`{"doc":"\ude00","query":"q"}`,
	`{"doc":"\ude00\ud83d","query":"q"}`,
	`{"doc":"\ud83d\ud83d\ude00","query":"q"}`,
	`{"doc":"\u12","query":"q"}`,
	`{"doc":"\u12g4","query":"q"}`,
	`{"doc":"\x41","query":"q"}`,
	`{"doc":"\a","query":"q"}`,
	`{"doc":"\`,
	`{"doc":"\u`,
	`{"doc":"\ud83d\u`,
	`{"doc":"d\","query":"q"}`,
	// Raw bytes.
	"{\"doc\":\"tab\there\",\"query\":\"q\"}",
	"{\"doc\":\"line\nbreak\",\"query\":\"q\"}",
	"{\"doc\":\"nul\x00\",\"query\":\"q\"}",
	"{\"doc\":\"del\x7f\",\"query\":\"q\"}",
	"{\"doc\":\"h\u00e9llo \u2713 \U0001F642\",\"query\":\"q\"}",
	"{\"doc\":\"bad \xff utf8\",\"query\":\"q\"}",
	"{\"doc\":\"cut \xe2\x82\",\"query\":\"q\"}",
	"{\"doc\":\"surrogate \xed\xa0\x80\",\"query\":\"q\"}",
	"{\"doc\":\"d\",\"query\":\"q\"}\x00",
	"\ufeff{\"doc\":\"d\",\"query\":\"q\"}",
	"{\"doc\":\"d\",\u00a0\"query\":\"q\"}",
}

// checkScanAgainstJSON holds one body and one request type to the
// scanner's contract: where ScanJSON accepts, json.Unmarshal accepts
// too and fills the very same value; where it declines, the receiver is
// as it was, so the fall-through starts from what json.Unmarshal always
// started from.
func checkScanAgainstJSON[T any, P interface {
	*T
	ScanJSON([]byte) bool
}](t *testing.T, body []byte, prefilled T) {
	t.Helper()
	var want T
	err := json.Unmarshal(body, &want)
	got := prefilled
	before := fmt.Sprintf("%#v", got)
	if !P(&got).ScanJSON(append([]byte(nil), body...)) {
		if after := fmt.Sprintf("%#v", got); after != before {
			t.Fatalf("%q: declined, but left %s in a receiver that held %s", body, after, before)
		}
		return
	}
	if err != nil {
		t.Fatalf("%q: the scanner accepts what encoding/json refuses: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\nscanned %#v\ndecoded %#v", body, got, want)
	}
}

func checkAllRequests(t *testing.T, body []byte) {
	t.Helper()
	checkScanAgainstJSON[QueryRequest](t, body, QueryRequest{Doc: "stale"})
	checkScanAgainstJSON[DocumentRequest](t, body, DocumentRequest{XML: "stale", Version: 3})
	checkScanAgainstJSON[BatchRequest](t, body, BatchRequest{Queries: []string{"stale"}})
	// The relay's view of a registration: name decoded, the rest as
	// tokens that are, byte for byte, where they stand in the body.
	var name string
	var xml, version []byte
	if ScanRequest(body, Member{Key: "name", String: &name}, Member{Key: "xml", Raw: &xml}, Member{Key: "version", Raw: &version}) {
		var want map[string]json.RawMessage
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("%q: raw scan accepts what encoding/json refuses: %v", body, err)
		}
		for key, tok := range map[string][]byte{"xml": xml, "version": version} {
			if !bytes.Equal(tok, want[key]) {
				t.Fatalf("%q: raw %s token %q, encoding/json's %q", body, key, tok, want[key])
			}
		}
	}
}

// TestScanRequest runs the seed bodies, and says which way each of a
// few must go: the scanner is only worth having if the bodies clients
// really send are the ones it accepts.
func TestScanRequest(t *testing.T) {
	for _, body := range requestSeeds {
		checkAllRequests(t, []byte(body))
	}
	var q QueryRequest
	for _, body := range []string{
		`{"doc":"catalog","query":"count(//product)"}`,
		`{"doc": "catalog", "query": "count(//product)"}` + "\n", // what Python's json.dumps and curl -d send
		`{"query":"\u003cx\u003e \"quoted\" \ud83d\ude00","doc":"d"}`,
	} {
		if !q.ScanJSON([]byte(body)) {
			t.Errorf("%s: declined, but this is what clients send", body)
		}
	}
	if want := (QueryRequest{Doc: "d", Query: "<x> \"quoted\" \U0001F600"}); q != want {
		t.Errorf("scanned %+v, want %+v", q, want)
	}
	var d DocumentRequest
	doc := `<a k="v">` + strings.Repeat("<b>text &amp; more</b>\n", 50) + `</a>`
	marshalled, _ := json.Marshal(DocumentRequest{Name: "n", XML: doc, Version: 9})
	if !d.ScanJSON(marshalled) || d.XML != doc || d.Version != 9 || d.Name != "n" {
		t.Errorf("a marshalled registration does not scan back: %+v", d)
	}
	var b BatchRequest
	marshalled, _ = json.Marshal(BatchRequest{Jobs: []BatchJob{{Doc: "a", Query: "//x"}, {Doc: "b", Query: "//y[. > 1]"}}})
	if !b.ScanJSON(marshalled) || len(b.Jobs) != 2 || b.Jobs[1].Query != "//y[. > 1]" {
		t.Errorf("a marshalled jobs batch does not scan back: %+v", b)
	}
}

// FuzzScanRequest: whatever the bytes, the scanner either declines and
// touches nothing, or fills what json.Unmarshal fills.
func FuzzScanRequest(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkAllRequests(t, body) })
}

// TestRequestEncodersMatchEncodingJSON: the requests the router writes
// by appending are the bytes json.Marshal writes for the structs.
func TestRequestEncodersMatchEncodingJSON(t *testing.T) {
	for _, a := range nastyStrings {
		for _, b := range nastyStrings[:4] {
			want, _ := json.Marshal(QueryRequest{Doc: a, Query: b})
			if got := AppendQueryRequest(nil, a, b); !bytes.Equal(got, want) {
				t.Errorf("query request\n%s\nwant\n%s", got, want)
			}
			for _, ver := range []uint64{0, 1, 1<<64 - 1} {
				want, _ := json.Marshal(DocumentRequest{Name: b, XML: a, Version: ver})
				if got := AppendDocumentRequest(nil, b, a, ver); !bytes.Equal(got, want) {
					t.Errorf("document request\n%s\nwant\n%s", got, want)
				}
			}
		}
	}
	for n := 0; n <= 3; n++ {
		jobs := []BatchJob{}
		for i := 0; i < n; i++ {
			jobs = append(jobs, BatchJob{Doc: nastyStrings[i+1], Query: nastyStrings[i+2]})
		}
		want, _ := json.Marshal(struct {
			Jobs []BatchJob `json:"jobs"`
		}{jobs})
		if got := AppendJobsRequest(nil, jobs); !bytes.Equal(got, want) {
			t.Errorf("jobs request\n%s\nwant\n%s", got, want)
		}
	}
}

// TestDocumentResponseBytes pins the registration reply to the bytes
// the map[string]any it replaced marshalled to, on a node and on the
// router, member for member.
func TestDocumentResponseBytes(t *testing.T) {
	asMap := func(r *DocumentResponse, replicating bool) []byte {
		m := map[string]any{"name": r.Name, "nodes": r.Nodes, "version": r.Version}
		if r.Node != "" {
			m["node"] = r.Node
		}
		if replicating {
			m["replicas"] = r.Replicas
		}
		if len(r.ReplicaErrors) > 0 {
			m["replica_errors"] = r.ReplicaErrors
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	for _, c := range []struct {
		r           DocumentResponse
		replicating bool
	}{
		{DocumentResponse{Name: "d", Nodes: 3, Version: 1}, false},
		{DocumentResponse{Name: `d "<&>" é`, Nodes: 0, Version: 1<<64 - 1}, false},
		{DocumentResponse{Name: "d", Node: "127.0.0.1:1", Nodes: 3, Version: 2}, false},
		{DocumentResponse{Name: "d", Node: "n", Nodes: 3, Version: 2, Replicas: []string{}}, true},
		{DocumentResponse{Name: "d", Node: "n", Nodes: 3, Version: 2, Replicas: []string{"b", "c"}}, true},
		{DocumentResponse{Name: "d", Node: "n", Nodes: 3, Version: 2, Replicas: []string{"c"},
			ReplicaErrors: map[string]string{"z": "down", "b": `said "no"`}}, true},
	} {
		if got, want := AppendDocumentResponse(nil, &c.r), asMap(&c.r, c.replicating); !bytes.Equal(got, want) {
			t.Errorf("reply\n%swant\n%s", got, want)
		}
	}
	// And over HTTP, decodable into the struct.
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/documents", "application/json", strings.NewReader(`{"name":"mini","xml":"<a><b/></a>"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	var r DocumentResponse
	if err := json.Unmarshal(body.Bytes(), &r); err != nil || r.Name != "mini" || r.Nodes != 3 || r.Version == 0 {
		t.Fatalf("reply %q decodes to %+v, %v", body.String(), r, err)
	}
	if want := fmt.Sprintf("{\"name\":\"mini\",\"nodes\":3,\"version\":%d}\n", r.Version); body.String() != want || resp.ContentLength != int64(len(want)) {
		t.Errorf("reply %q (Content-Length %d), want %q", body.String(), resp.ContentLength, want)
	}
}

// TestParseErrorSaysWhere: a registration that is not XML is a 400
// whose message carries the scanner's line:column.
func TestParseErrorSaysWhere(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/documents", "application/json", strings.NewReader(`{"name":"broken","xml":"<a>\n  <b></c>\n</a>"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if want := `{"error":"parse broken: xmltree: parse: 2:6: \u003c/c\u003e closes \u003cb\u003e"}` + "\n"; resp.StatusCode != http.StatusBadRequest || body.String() != want {
		t.Errorf("status %d, body %q; want 400 %q", resp.StatusCode, body.String(), want)
	}
}

// registration is a POST /documents body for a document of n records,
// escaped the way encoding/json escapes it (every < and > a \u escape).
func registration(n int) string {
	var xml strings.Builder
	xml.WriteString("<site>\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&xml, "<item id=\"i%d\"><name>name number %d</name><price>%d</price></item>\n", i, i, i)
	}
	xml.WriteString("</site>")
	body, _ := json.Marshal(DocumentRequest{Name: "d", XML: xml.String()})
	return string(body)
}

// TestRegisterAllocsDoNotGrow: a registration through the handler — the
// body read, the envelope scanned, the document unescaped, parsed and
// indexed, the reply written — allocates a number of objects that does
// not depend on the size of the document (the node arena, the source
// string, the index's tables; not a string per node or per escape).
func TestRegisterAllocsDoNotGrow(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	srv := New(engine.New(engine.Options{}), store.Config{})
	srv.SetLogger(obs.NewLogger(io.Discard, slog.LevelError))
	h := srv.Handler()
	measure := func(n int) float64 {
		body := registration(n)
		w := &discardWriter{h: http.Header{}}
		run := func() {
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/documents", strings.NewReader(body)))
		}
		run() // the pooled buffers grow to the body's size once
		if w.n == 0 {
			t.Fatal("no reply")
		}
		return testing.AllocsPerRun(20, run)
	}
	small, large := measure(250), measure(1000)
	t.Logf("allocs per registration: %.0f at 250 records, %.0f at 1000", small, large)
	if large > 1.5*small {
		t.Errorf("allocations per registration grew from %.0f to %.0f over 4× the document", small, large)
	}
}
