package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/workload"
)

// BenchmarkRegister is one POST /documents of workload.Auction(1, 1000)
// through the handler, in process: the body read, the envelope scanned,
// the document unescaped out of its JSON string (encoding/json's
// escaping, as clients and the router send it), parsed and indexed in
// one pass, stored, the reply written.
//
//	go test -bench Register -benchmem -run '^$' ./internal/serve
func BenchmarkRegister(b *testing.B) {
	srv := New(engine.New(engine.Options{}), store.Config{})
	srv.SetLogger(quiet())
	h := srv.Handler()
	body, err := json.Marshal(DocumentRequest{Name: "auction", XML: workload.Auction(1, 1000).XMLString()})
	if err != nil {
		b.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.n = 0
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/documents", bytes.NewReader(body)))
		if w.n == 0 {
			b.Fatal("no reply")
		}
	}
}

// TestReadBodyReusesPresizedBuffer: a body readBody presized from its
// Content-Length goes back to the pool, so the next upload of that size
// (each of eval_heavy's 516 KB registrations, say) is read into the
// same buffer instead of a fresh one.
func TestReadBodyReusesPresizedBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of what is put back")
	}
	body := bytes.Repeat([]byte("x"), 516<<10)
	read := func() *buffer {
		req := httptest.NewRequest(http.MethodPost, "/documents", bytes.NewReader(body))
		buf, ok := readBody(httptest.NewRecorder(), req)
		if !ok || len(buf.b) != len(body) {
			t.Fatalf("readBody = %v, %d bytes; want %d", ok, len(buf.b), len(body))
		}
		return buf
	}
	first := read()
	room := &first.b[0]
	putBuffer(first)
	second := read()
	defer putBuffer(second)
	if &second.b[0] != room {
		t.Fatalf("the second 516 KB body was read into a new %d-byte buffer", cap(second.b))
	}
}

// lyingRegistration is a request as the connection loop reads it off
// the wire: its head declares a 32 MB body, and the ten bytes behind it
// are all the client sends before it closes, so the body reads as ten
// bytes and then io.ErrUnexpectedEOF.
func lyingRegistration(t *testing.T) *http.Request {
	t.Helper()
	raw := "POST /documents HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 33554432\r\n\r\n" + `{"name":"d`
	req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// allocatedBy returns the bytes f allocated, as runtime.MemStats counts
// them for the whole process.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLyingContentLengthBuysNoMemory: a body is read into room for its
// declared length only up to maxPooledBuffer, so a head that declares 32 MB
// in front of ten bytes costs about maxPooledBuffer, not 32 MB, and gets the
// 400 a truncated body always got — through DecodeJSON (the handler)
// and through ReadBody, the router's read half.
func TestLyingContentLengthBuysNoMemory(t *testing.T) {
	const slack = 256 << 10
	srv := New(engine.New(engine.Options{}), store.Config{})
	srv.SetLogger(quiet())
	h := srv.Handler()
	rec := httptest.NewRecorder()
	req := lyingRegistration(t)
	if got := allocatedBy(func() { h.ServeHTTP(rec, req) }); got > maxPooledBuffer+slack {
		t.Errorf("a lying registration allocated %d bytes, want under %d", got, maxPooledBuffer+slack)
	}
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "invalid JSON: unexpected EOF") {
		t.Errorf("handler: %d %s, want 400 invalid JSON: unexpected EOF", rec.Code, rec.Body)
	}

	rec, req = httptest.NewRecorder(), lyingRegistration(t)
	var ok bool
	if got := allocatedBy(func() { _, _, ok = ReadBody(rec, req) }); got > maxPooledBuffer+slack {
		t.Errorf("ReadBody of a lying request allocated %d bytes, want under %d", got, maxPooledBuffer+slack)
	}
	if ok || rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "invalid JSON: unexpected EOF") {
		t.Errorf("ReadBody: ok %v, %d %s, want 400 invalid JSON: unexpected EOF", ok, rec.Code, rec.Body)
	}
}
