package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/workload"
)

// answer is what a client sees of one response, with what differs
// between two servers by nature masked: the Date header's value and
// the minted X-Request-Id, in the headers and in the body.
type answer struct {
	Proto         string
	Status        int
	Header        http.Header
	ContentLength int64
	Chunked       bool
	Close         bool
	Body          string
}

// exchange is every answer to one row's bytes, and whether the server
// then closed the connection or answered a probe on it.
type exchange struct {
	Answers []answer
	Err     string // how reading the next answer failed, if it did
	Closed  bool
	Probe   *answer
}

var digits = regexp.MustCompile(`[0-9][0-9.eE+-]*`) // numbers, however formatted

// talk writes raw to addr and reads one answer per method in methods
// (a 1xx answer counts), then either sees the connection closed or
// sends a probe on it.
func talk(t *testing.T, addr string, raw []byte, methods []string, volatile bool) exchange {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(20 * time.Second))
	go nc.Write(raw) // a server may answer before it has read it all
	br := bufio.NewReader(nc)
	read := func(method string) (*answer, error) {
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		a := &answer{
			Proto: resp.Proto, Status: resp.StatusCode, Header: resp.Header,
			ContentLength: resp.ContentLength, Close: resp.Close,
			Chunked: len(resp.TransferEncoding) > 0 && resp.TransferEncoding[0] == "chunked",
		}
		if id := resp.Header.Get("X-Request-Id"); id != "" {
			body = bytes.ReplaceAll(body, []byte(id), []byte("<id>"))
			resp.Header.Set("X-Request-Id", "<id>")
		}
		if _, ok := resp.Header["Date"]; ok {
			resp.Header.Set("Date", "<date>")
		}
		if volatile { // and so are the lengths of their digit strings
			body = digits.ReplaceAll(body, []byte("0"))
			if a.ContentLength > 0 {
				resp.Header.Set("Content-Length", "<n>")
				a.ContentLength = 0
			}
		}
		a.Body = string(body)
		return a, nil
	}
	var ex exchange
	for _, m := range methods {
		a, err := read(m)
		if err != nil {
			ex.Err = errKind(err)
			ex.Closed = true
			return ex
		}
		ex.Answers = append(ex.Answers, *a)
	}
	if last := ex.Answers[len(ex.Answers)-1]; last.Close {
		if _, err := br.ReadByte(); err == io.EOF {
			ex.Closed = true
		} else {
			ex.Err = fmt.Sprintf("after Connection: close: %v", err)
		}
		return ex
	}
	io.WriteString(nc, "GET /healthz HTTP/1.1\r\nHost: probe\r\n\r\n")
	volatile = true
	if a, err := read(http.MethodGet); err != nil {
		ex.Err = "probe: " + errKind(err)
	} else {
		ex.Probe = a
	}
	return ex
}

// quiet is a logger that drops everything.
func quiet() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func errKind(err error) string {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return "EOF"
	}
	return err.Error()
}

// compareServer is the surface for one side of a comparison, set up
// alike on both: one worker (so /batch lines come in order), a body
// bound of 2 MB (so a 413 is cheap to provoke), and two paths that
// panic, one with http.ErrAbortHandler.
func compareServer(t *testing.T) http.Handler {
	srv := New(engine.New(engine.Options{CacheSize: 64, Workers: 1}), store.Config{})
	srv.SetLogger(quiet())
	srv.SetMaxBody(2 << 20)
	if _, _, err := srv.AddDocument("catalog", workload.Catalog(12).XMLString()); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/panic":
			panic("planted panic")
		case "/abort":
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, r)
	})
}

// listen serves h on a loopback port through net/http's server (the
// bounds xpathserve set before the loop) or through a Loop.
func listen(t *testing.T, h http.Handler, loop bool, logTo io.Writer) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if loop {
		l := NewLoop(h, slog.New(slog.NewTextHandler(logTo, nil)))
		go l.Serve(ln)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			l.Shutdown(ctx)
		})
	} else {
		hs := &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout, ErrorLog: log.New(logTo, "", 0)}
		go hs.Serve(ln)
		t.Cleanup(func() { hs.Close() })
	}
	return ln.Addr().String()
}

func post(target, body string, extra ...string) string {
	return "POST " + target + " HTTP/1.1\r\nHost: x\r\n" + strings.Join(extra, "") +
		fmt.Sprintf("Content-Length: %d\r\n\r\n", len(body)) + body
}

func get(target string, extra ...string) string {
	return "GET " + target + " HTTP/1.1\r\nHost: x\r\n" + strings.Join(extra, "") + "\r\n"
}

// TestConnAnswersAsNetHTTP sends the same raw bytes to the server's
// surface behind net/http's server and behind the Loop, and asserts a
// client sees the same thing from both: status, headers (so framing:
// Content-Length or chunked, Connection), body bytes, and whether the
// connection stays open for another request.
func TestConnAnswersAsNetHTTP(t *testing.T) {
	var loopLog, stdLog syncBuffer
	std := listen(t, compareServer(t), false, &stdLog)
	loop := listen(t, compareServer(t), true, &loopLog)

	bigXML := `{"name":"big","xml":"<a>` + strings.Repeat("<b>x</b>", 150_000) + `</a>"}`
	tooBig := func(n int) string {
		return `{"name":"huge","xml":"<a>` + strings.Repeat("x", n) + `</a>"}`
	}
	rows := []struct {
		name     string
		raw      string
		methods  []string // one per expected answer; default one GET
		volatile bool     // numbers in the body are timings
	}{
		{name: "query", raw: get("/query?doc=catalog&q=count(//product)")},
		{name: "query again", raw: get("/query?doc=catalog&q=count(//product)")},
		{name: "query trace", raw: get("/query?doc=catalog&q=count(//product)&trace=1"), volatile: true},
		{name: "query post", raw: post("/query", `{"doc":"catalog","query":"//product[1]/name"}`)},
		{name: "batch", raw: post("/batch", `{"doc":"catalog","queries":["count(//product)","//name","sum(//price)"]}`)},
		{name: "batch jobs", raw: post("/batch", `{"jobs":[{"doc":"catalog","query":"1+1"},{"doc":"catalog","query":"//name"}]}`)},
		{name: "batch jobs unknown document", raw: post("/batch", `{"jobs":[{"doc":"nope","query":"1"}]}`)},
		{name: "documents post", raw: post("/documents", `{"name":"mini","xml":"<a><b/></a>"}`)},
		{name: "documents post over 1 MB", raw: post("/documents", bigXML)},
		{name: "documents get", raw: get("/documents?name=mini"), volatile: true},
		{name: "documents list", raw: get("/documents"), volatile: true},
		{name: "documents delete", raw: "DELETE /documents?name=mini HTTP/1.1\r\nHost: x\r\n\r\n"},
		{name: "stats", raw: get("/stats"), volatile: true},
		{name: "metrics", raw: get("/metrics"), volatile: true},
		{name: "healthz", raw: get("/healthz"), volatile: true},
		{name: "400 malformed JSON", raw: post("/query", `{"doc":`)},
		{name: "404", raw: get("/nope")},
		{name: "404 document", raw: get("/query?doc=nope&q=1")},
		{name: "405", raw: "DELETE /query HTTP/1.1\r\nHost: x\r\n\r\n"},
		{name: "413 drained", raw: post("/documents", tooBig(2<<20+100<<10))},
		{name: "413 past the drain", raw: post("/documents", tooBig(3<<20))},
		{name: "422", raw: get("/query?doc=catalog&q=count(")},
		{name: "HEAD", raw: "HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n", methods: []string{"HEAD"}},
		{name: "HEAD metrics", raw: "HEAD /metrics HTTP/1.1\r\nHost: x\r\n\r\n", methods: []string{"HEAD"}, volatile: true},
		{name: "expect 100-continue", raw: post("/query", `{"doc":"catalog","query":"1"}`, "Expect: 100-continue\r\n"), methods: []string{"POST", "POST"}},
		{name: "expect other", raw: post("/query", `{"doc":"catalog","query":"1"}`, "Expect: teapot\r\n")},
		{name: "HTTP/1.0", raw: "GET /healthz HTTP/1.0\r\n\r\n", volatile: true},
		{name: "HTTP/1.0 keep-alive", raw: "GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", volatile: true},
		{name: "HTTP/1.0 batch", raw: "POST /batch HTTP/1.0\r\nContent-Length: 38\r\n\r\n" + `{"doc":"catalog","queries":["1","2"]}` + "\n"},
		{name: "Connection: close", raw: get("/healthz", "Connection: close\r\n"), volatile: true},
		{name: "pipelined", raw: get("/query?doc=catalog&q=1") + get("/query?doc=catalog&q=2"), methods: []string{"GET", "GET"}},
		{name: "pipelined after POST with CRLF", raw: post("/query", `{"doc":"catalog","query":"3"}`) + "\r\n" + get("/query?doc=catalog&q=4"), methods: []string{"POST", "GET"}},
		{name: "chunked request body", raw: "POST /query HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n10\r\n{\"doc\":\"catalog\"\r\n11\r\n,\"query\":\"1 + 2\"}\r\n0\r\n\r\n"},
		{name: "unread body", raw: post("/healthz", strings.Repeat("x", 100<<10)), volatile: true},
		{name: "missing Host", raw: "GET /healthz HTTP/1.1\r\n\r\n"},
		{name: "malformed Host", raw: "GET /healthz HTTP/1.1\r\nHost: a b\r\n\r\n"},
		{name: "invalid header name", raw: "GET /healthz HTTP/1.1\r\nHost: x\r\nBad Name: v\r\n\r\n"},
		{name: "invalid header value", raw: "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Bad: a\x01b\r\n\r\n"},
		{name: "header past 1 MB", raw: get("/healthz", "X-Big: "+strings.Repeat("a", 1<<20+8<<10)+"\r\n")},
		{name: "Content-Length with Transfer-Encoding", raw: "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"},
		{name: "unknown transfer coding", raw: "POST /query HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip\r\n\r\n"},
		{name: "HTTP/2.0 request line", raw: "GET /healthz HTTP/2.0\r\nHost: x\r\n\r\n"},
		{name: "garbage", raw: "\x00\x01\x02 nonsense\r\n\r\n"},
		{name: "OPTIONS *", raw: "OPTIONS * HTTP/1.1\r\nHost: x\r\n\r\n"},
		{name: "handler panic", raw: get("/panic")},
		{name: "handler abort", raw: get("/abort")},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			methods := row.methods
			if methods == nil {
				methods = []string{strings.Fields(row.raw + " GET")[0]}
			}
			want := talk(t, std, []byte(row.raw), methods, row.volatile)
			got := talk(t, loop, []byte(row.raw), methods, row.volatile)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("loop:\n%s\nnet/http:\n%s", show(got), show(want))
				for i := range min(len(got.Answers), len(want.Answers)) {
					g, w := strings.Split(got.Answers[i].Body, "\n"), strings.Split(want.Answers[i].Body, "\n")
					for j := range min(len(g), len(w)) {
						if g[j] != w[j] {
							t.Logf("line %d: loop %q, net/http %q", j, g[j], w[j])
						}
					}
				}
			}
		})
	}
	if !strings.Contains(loopLog.String(), "planted panic") {
		t.Errorf("the loop did not log the handler's panic:\n%s", loopLog.String())
	}
	if strings.Contains(loopLog.String(), "abort handler") {
		t.Errorf("the loop logged http.ErrAbortHandler:\n%s", loopLog.String())
	}
}

func show(ex exchange) string {
	var b strings.Builder
	for _, a := range ex.Answers {
		fmt.Fprintf(&b, "  %s %d cl=%d chunked=%v close=%v\n", a.Proto, a.Status, a.ContentLength, a.Chunked, a.Close)
		keys := make([]string, 0, len(a.Header))
		for k := range a.Header {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "    %s: %q\n", k, a.Header[k])
		}
		body := a.Body
		if len(body) > 300 {
			body = body[:300] + "…"
		}
		fmt.Fprintf(&b, "    body %q\n", body)
	}
	fmt.Fprintf(&b, "  err=%q closed=%v", ex.Err, ex.Closed)
	if ex.Probe != nil {
		fmt.Fprintf(&b, " probe=%d %q", ex.Probe.Status, ex.Probe.Header)
	}
	return b.String()
}

// TestConnHangUpCancelsBatch: a client that hangs up in the middle of a
// /batch stops it — the query in flight is cancelled and at most one
// more is started — without ever writing a byte after its request.
func TestConnHangUpCancelsBatch(t *testing.T) {
	srv := New(engine.New(engine.Options{CacheSize: 16, Workers: 1}), store.Config{})
	srv.SetLogger(quiet())
	if _, _, err := srv.AddDocument("big", slowBatchDoc()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	body := `{"doc":"big","queries":["1","` + slowBatchQuery + `","` + slowBatchQuery + `","` + slowBatchQuery + `"]}`
	io.WriteString(nc, post("/batch", body))
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("first line: %v", err)
	}
	for end := time.Now().Add(5 * time.Second); srv.eng.Stats().InFlight == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("the slow query never started")
		}
	}
	started := srv.eng.Stats().Queries
	nc.Close()
	for end := time.Now().Add(5 * time.Second); srv.eng.Stats().InFlight != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("the batch outlived its client: %+v", srv.eng.Stats())
		}
	}
	if after := srv.eng.Stats().Queries; after > started+1 {
		t.Fatalf("%d queries started after the hang-up, want at most 1", after-started)
	}
}

// TestConnDropsStalledHeader: a request head not finished within
// headerTimeout gets its connection closed, and an idle connection is
// left alone for as long.
func TestConnDropsStalledHeader(t *testing.T) {
	t.Parallel()
	_, ts := testServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoop(ts.Config.Handler, quiet())
	go l.Serve(ln)
	defer l.Shutdown(context.Background())

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	io.WriteString(idle, get("/healthz"))
	ibr := bufio.NewReader(idle)
	if resp, err := http.ReadResponse(ibr, nil); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	start := time.Now()
	io.WriteString(stalled, "GET /healthz HTTP/1.1\r\nHost: x\r\n")
	stalled.SetReadDeadline(time.Now().Add(headerTimeout + 5*time.Second))
	n, err := stalled.Read(make([]byte, 1))
	if err != io.EOF {
		t.Fatalf("stalled head: read %d, %v; want the connection closed", n, err)
	}
	if took := time.Since(start); took < headerTimeout-time.Second {
		t.Fatalf("stalled head dropped after %v, before the %v bound", took, headerTimeout)
	}
	io.WriteString(idle, get("/healthz"))
	if resp, err := http.ReadResponse(ibr, nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("idle connection after %v: %v", time.Since(start), err)
	}
}

// fuzzMaxBody is the body bound of FuzzServeConn's server: small, so
// that mutations reach past it.
const fuzzMaxBody = 1 << 10

// fuzzConnBound is what FuzzServeConn lets one exchange allocate:
// eight times the head bound (textproto grows a long header line by
// doubling, as read and again as parsed: a head at the bound allocates
// about six times its length), the body bound of its server, and 1 MB
// for the answers. A head twice the bound long is a seed: past the
// bound nothing more is read.
const fuzzConnBound = 8*maxHeaderBytes + fuzzMaxBody + 1<<20

// pipeConn is a served connection over two net.Pipes, so that the
// client can end its input (as a half-close would) and still read every
// answer.
type pipeConn struct {
	net.Conn          // where answers go
	in       net.Conn // where requests come from
}

func (c pipeConn) Read(p []byte) (int, error) { return c.in.Read(p) }

func (c pipeConn) SetReadDeadline(t time.Time) error { return c.in.SetReadDeadline(t) }

func (c pipeConn) Close() error {
	c.in.Close()
	return c.Conn.Close()
}

// FuzzServeConn writes arbitrary bytes — one request or several,
// pipelined — to the loop over net.Pipe. Whatever they are, nothing
// panics, the exchange allocates no more than fuzzConnBound, and what
// comes back is a sequence of well-formed answers and then a closed
// connection.
func FuzzServeConn(f *testing.F) {
	for _, seed := range []string{
		get("/query?doc=catalog&q=count(//product)"),
		post("/batch", `{"doc":"catalog","queries":["1","//name"]}`),
		get("/query?doc=catalog&q=1") + get("/stats"),
		"GET /healthz HTTP/1.1\r\n\r\n",
		"GET /healthz HTTP/1.1\r\nHost: x\r\nBad Name: v\r\n\r\n",
		"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Bad: a\x01b\r\n\r\n",
		"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"POST /query HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n{\"doc\r\n0\r\n\r\n",
		"POST /query HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip\r\n\r\n",
		post("/query", `{"doc":"catalog","query":"1"}`, "Expect: 100-continue\r\n"),
		post("/query", `{"doc":"catalog","query":"1"}`, "Expect: teapot\r\n"),
		"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
		"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n" + get("/healthz"),
		post("/documents", `{"name":"d","xml":"<a/>"}`) + "\r\n" + get("/documents"),
		post("/documents", strings.Repeat("x", 2*fuzzMaxBody)),
		"GET /peer HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: xpath-peer/1\r\n\r\n" + get("/healthz"), // no codec but HTTP/1.1
		"OPTIONS * HTTP/1.1\r\nHost: x\r\n\r\n",
		"\x00\x01\x02 nonsense\r\n\r\n",
		get("/healthz", "X-Big: "+strings.Repeat("a", 2*maxHeaderBytes)+"\r\n"),
	} {
		f.Add([]byte(seed))
	}
	srv := New(engine.New(engine.Options{CacheSize: 16, Workers: 1}), store.Config{})
	srv.SetLogger(quiet())
	srv.SetMaxBody(fuzzMaxBody)
	if _, _, err := srv.AddDocument("catalog", workload.Catalog(3).XMLString()); err != nil {
		f.Fatal(err)
	}
	srv.conns.h = srv.Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		// The methods of the requests in data, as the server will read
		// them: a HEAD answer has no body to read.
		var methods []string
		for rd := bufio.NewReader(bytes.NewReader(data)); ; {
			r, err := http.ReadRequest(rd)
			if err != nil {
				break
			}
			methods = append(methods, r.Method)
			io.Copy(io.Discard, r.Body)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		inC, inS := net.Pipe()
		outS, outC := net.Pipe()
		defer outC.Close()
		c := srv.conns.newConn(pipeConn{Conn: outS, in: inS})
		if !srv.conns.add(c) {
			t.Fatal("the loop is closed")
		}
		go c.serve()
		go func() {
			inC.Write(data)
			inC.Close()
		}()
		outC.SetDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(outC)
		for i := 0; ; {
			if _, err := br.Peek(1); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("reading answers: %v", err)
			}
			method := http.MethodGet
			if i < len(methods) {
				method = methods[i]
			}
			resp, err := http.ReadResponse(br, &http.Request{Method: method})
			if err != nil {
				t.Fatalf("malformed answer: %v", err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatalf("malformed answer body: %v", err)
			}
			if resp.StatusCode >= 200 {
				i++
			}
			if resp.Close { // what follows, if anything, is the body of an answer to HEAD
				io.Copy(io.Discard, br)
				break
			}
		}
		select {
		case <-c.done:
		case <-time.After(10 * time.Second):
			stacks := make([]byte, 1<<20)
			t.Fatalf("the connection is still served after its client left:\n%s", stacks[:runtime.Stack(stacks, true)])
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > fuzzConnBound {
			t.Fatalf("one exchange of %d bytes allocated %d bytes, past %d", len(data), n, fuzzConnBound)
		}
	})
}
