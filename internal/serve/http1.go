package serve

// This file is the HTTP/1.1 codec of the connection loop (conn.go): a
// request is read by net/http's own http.ReadRequest, checked as
// net/http's server checks it, and answered through httpWriter, which
// frames the answer as net/http's server would and puts it on the wire
// in one write. What a client could tell apart is listed in CHANGES.md
// under the change that introduced the loop; the comparison is
// TestConnAnswersAsNetHTTP.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

const (
	// maxHeaderBytes is how much of a request's head is read before it
	// is answered 431: net/http's DefaultMaxHeaderBytes and the 4 KB of
	// slack its server adds.
	maxHeaderBytes = http.DefaultMaxHeaderBytes + 4096
	// maxUnreadBody is how much of a body its handler left unread is
	// drained to keep the connection; past it the connection closes.
	maxUnreadBody = 256 << 10
	// bufferBeforeChunking is the longest answer that gets a
	// Content-Length its handler did not set; a longer one, or one
	// flushed before its end, is chunked.
	bufferBeforeChunking = 2048
	// headroom is the room held in front of an answer's body for its
	// head, so head and body leave in one write.
	headroom = 512
	// flushAt is how many answer bytes a writer holds before a Write
	// goes to the wire without waiting for Flush.
	flushAt = 32 << 10
	// rstAvoidanceDelay is how long a connection closed with request
	// bytes unread lingers half-closed, so the client reads the answer
	// before the reset its unread bytes provoke.
	rstAvoidanceDelay = 500 * time.Millisecond
)

// errorHeaders ends the head of an answer the loop writes itself.
const errorHeaders = "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"

// serveHTTP reads, checks and answers one HTTP/1.1 request, reporting
// whether the connection may serve another.
func (c *conn) serveHTTP() bool {
	c.lr.remain = maxHeaderBytes
	if c.lastMethod == http.MethodPost { // RFC 7230 §3.5: a CRLF after a POST body
		peek, _ := c.br.Peek(4)
		c.br.Discard(leadingCRLF(peek))
	}
	req, err := http.ReadRequest(c.br)
	if err != nil {
		c.refuse(err)
		return false
	}
	c.lr.remain = math.MaxInt64
	c.lastMethod = req.Method
	if code, text := check(req); code != 0 {
		fmt.Fprintf(c.nc, "HTTP/1.1 %d %s: %s%s%d %s: %s", code, http.StatusText(code), text, errorHeaders, code, http.StatusText(code), text)
		return false
	}

	ctx, cancel := c.begin(req.Body == http.NoBody)
	w := &c.hw
	w.reset(req, cancel)
	if req.Body != http.NoBody {
		w.body = reqBody{w: w, rc: req.Body}
		req.Body = &w.body
	}
	if expect := req.Header.Get("Expect"); expect != "" {
		if !hasToken(expect, "100-continue") {
			w.header.Set("Connection", "close")
			w.WriteHeader(http.StatusExpectationFailed)
			w.finish()
			c.end()
			return false
		}
		if req.ProtoAtLeast(1, 1) && req.ContentLength != 0 {
			w.body.cont, w.body.expect = true, true
		}
	}
	req.RemoteAddr = c.remote
	r := req.WithContext(ctx)
	if r.RequestURI == "*" && r.Method == http.MethodOptions {
		optionsStar(w, r)
	} else {
		c.l.h.ServeHTTP(w, r)
	}
	if w.hijacked {
		c.end()
		return false
	}
	w.finish()
	if w.tooBig {
		c.closeWriteAndWait()
	}
	return c.end() && w.reuse()
}

// refuse answers a request http.ReadRequest could not read, as
// net/http's server does: 431 past the head bound, 501 for a transfer
// coding it does not know, nothing when the connection ended or failed,
// else 400.
func (c *conn) refuse(err error) {
	switch {
	case c.lr.remain <= 0:
		const text = "431 Request Header Fields Too Large"
		io.WriteString(c.nc, "HTTP/1.1 "+text+errorHeaders+text)
		c.closeWriteAndWait()
	case strings.HasPrefix(err.Error(), "unsupported transfer encoding"):
		code := http.StatusNotImplemented
		fmt.Fprintf(c.nc, "HTTP/1.1 %d %s%sUnsupported transfer encoding", code, http.StatusText(code), errorHeaders)
	case isCommonNetReadError(err):
	default:
		const text = "400 Bad Request"
		io.WriteString(c.nc, "HTTP/1.1 "+text+errorHeaders+text)
	}
}

func isCommonNetReadError(err error) bool {
	if err == io.EOF {
		return true
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return true
	}
	oe, ok := err.(*net.OpError)
	return ok && oe.Op == "read"
}

// check is net/http's server's look at a request http.ReadRequest
// accepted: the protocol version, Host on HTTP/1.1, and header names
// and values. http.ReadRequest moves the Host header to r.Host, so a
// request whose Host is empty is taken for one without.
func check(r *http.Request) (int, string) {
	if r.ProtoMajor != 1 {
		return http.StatusHTTPVersionNotSupported, "unsupported protocol version"
	}
	if r.ProtoAtLeast(1, 1) && r.Host == "" && r.Method != http.MethodConnect {
		return http.StatusBadRequest, "missing required Host header"
	}
	for i := 0; i < len(r.Host); i++ {
		if !validHostByte[r.Host[i]] {
			return http.StatusBadRequest, "malformed Host header"
		}
	}
	for k, vv := range r.Header {
		if !validHeaderName(k) {
			return http.StatusBadRequest, "invalid header name"
		}
		for _, v := range vv {
			for i := 0; i < len(v); i++ {
				if b := v[i]; (b < ' ' && b != '\t') || b == 0x7f {
					return http.StatusBadRequest, "invalid header value"
				}
			}
		}
	}
	return 0, ""
}

// optionsStar answers OPTIONS *, as net/http's server does.
func optionsStar(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Length", "0")
	if r.ContentLength != 0 {
		io.Copy(io.Discard, http.MaxBytesReader(w, r.Body, 4<<10))
	}
}

// closeWriteAndWait half-closes a connection whose client may still be
// sending, and waits a little before it is closed.
func (c *conn) closeWriteAndWait() {
	if tc, ok := c.nc.(interface{ CloseWrite() error }); ok {
		tc.CloseWrite()
		time.Sleep(rstAvoidanceDelay)
	}
}

func leadingCRLF(b []byte) int {
	n := 0
	for _, c := range b {
		if c != '\r' && c != '\n' {
			break
		}
		n++
	}
	return n
}

// reqBody is the body of a request on the loop: http.ReadRequest's
// body, which notes its end for the hang-up watch, sends 100 Continue
// on the first read when the client expects it, and leaves the unread
// rest to httpWriter (net/http's body would drain all of it on Close).
type reqBody struct {
	w      *httpWriter
	rc     io.ReadCloser
	n      int64 // bytes read
	cont   bool  // 100 Continue is owed before the first read
	expect bool  // the client expected 100 Continue
	eof    bool
	closed bool
}

func (b *reqBody) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	if b.cont {
		b.cont = false
		io.WriteString(b.w.c.nc, "HTTP/1.1 100 Continue\r\n\r\n")
	}
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if err == io.EOF && !b.eof {
		b.eof = true
		b.w.c.readBody()
	}
	return n, err
}

func (b *reqBody) Close() error {
	b.closed = true
	return nil
}

// drain reads what is left of the body, up to maxUnreadBody, and
// reports whether it got to the end; tooBig says there was more, and
// then nothing is read when the declared length already says so.
func (b *reqBody) drain() (ok, tooBig bool) {
	if b.eof {
		return true, false
	}
	if cl := b.w.req.ContentLength; cl > 0 && cl-b.n >= maxUnreadBody {
		return false, true
	}
	_, err := io.CopyN(io.Discard, b.rc, maxUnreadBody+1)
	if err != io.EOF {
		return false, err == nil
	}
	b.eof = true
	b.w.c.readBody()
	return true, false
}

// httpWriter is the http.ResponseWriter of a request on the loop. It
// holds the answer until the handler returns, flushes, or has written
// flushAt bytes, and then puts the head (built as net/http's
// chunkWriter builds it) and what is held on the wire in one write: a
// /query answer is one write. A failed write cancels the request: the
// client is gone.
type httpWriter struct {
	c      *conn
	req    *http.Request
	body   reqBody
	header http.Header
	cancel context.CancelFunc

	status      int
	wroteHeader bool
	cl          int64 // the answer's Content-Length, -1 when none
	written     int64 // body bytes the handler wrote
	buf         []byte
	head        []byte // the head, then a chunk's header, before they go into buf's headroom
	committed   bool   // the head is built
	sent        bool   // the head is on the wire
	chunking    bool
	closeAfter  bool // close the connection after the answer
	tooBig      bool // ... having left more than maxUnreadBody of the body unread
	done        bool // the handler returned
	hijacked    bool
	err         error // the first write error; later output is dropped

	is11, isHEAD, wants10KeepAlive, wantsClose bool
}

func (w *httpWriter) reset(req *http.Request, cancel context.CancelFunc) {
	clear(w.header)
	connection := req.Header.Get("Connection")
	*w = httpWriter{
		c: w.c, req: req, header: w.header, cancel: cancel,
		cl: -1, buf: w.buf[:0], head: w.head[:0],
		is11:             req.ProtoAtLeast(1, 1),
		isHEAD:           req.Method == http.MethodHead,
		wants10KeepAlive: req.ProtoMajor == 1 && req.ProtoMinor == 0 && hasToken(connection, "keep-alive"),
		wantsClose:       req.Close || hasToken(connection, "close"),
	}
	if cap(w.buf) < headroom {
		w.buf = make([]byte, 0, 4096)
	}
	w.buf = w.buf[:headroom]
}

func (w *httpWriter) Header() http.Header { return w.header }

func (w *httpWriter) WriteHeader(code int) {
	if w.hijacked || w.wroteHeader {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if code < 200 && code != http.StatusSwitchingProtocols {
		return // informational answers are not relayed
	}
	w.body.cont = false // no 100 Continue once the answer is on its way
	w.wroteHeader, w.status = true, code
	if cl := w.header.Get("Content-Length"); cl != "" {
		if v, err := strconv.ParseInt(cl, 10, 64); err == nil && v >= 0 {
			w.cl = v
		} else {
			w.c.l.logger().Warn("invalid Content-Length", "value", cl)
			w.header.Del("Content-Length")
		}
	}
}

func (w *httpWriter) Write(p []byte) (int, error) {
	if w.hijacked {
		return 0, http.ErrHijacked
	}
	w.body.cont = false
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if !bodyAllowedForStatus(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.written += int64(len(p))
	if w.cl != -1 && w.written > w.cl {
		return 0, http.ErrContentLength
	}
	if w.err != nil {
		return 0, w.err
	}
	if len(w.buf)-headroom+len(p) <= flushAt {
		w.buf = append(w.buf, p...)
		return len(p), nil
	}
	w.send(p, false) // too much to hold: what is held, then p, without copying it
	if w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

// Flush puts the head and what is held on the wire; from here on an
// answer without a Content-Length is chunked.
func (w *httpWriter) Flush() {
	if w.hijacked {
		return
	}
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	w.send(nil, false)
}

// Hijack hands the connection over — what a cut fault uses to sever
// it. The connection is not served again.
func (w *httpWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if w.hijacked {
		return nil, nil, http.ErrHijacked
	}
	if w.wroteHeader {
		w.send(nil, false)
	}
	w.hijacked = true
	w.c.hijack()
	return w.c.nc, bufio.NewReadWriter(w.c.br, bufio.NewWriter(w.c.nc)), nil
}

// finish ends the answer once the handler has returned.
func (w *httpWriter) finish() {
	w.done = true
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	w.send(nil, true)
	// A body its handler did not read, of an answer that left before
	// the handler returned.
	if !w.closeAfter && w.req.ContentLength != 0 && !w.body.expect {
		if ok, tooBig := w.body.drain(); !ok {
			w.closeAfter, w.tooBig = true, tooBig
		}
	}
}

// reuse reports whether the connection may serve another request.
func (w *httpWriter) reuse() bool {
	short := !w.isHEAD && w.cl != -1 && bodyAllowedForStatus(w.status) && w.cl != w.written
	return !w.closeAfter && !short && w.err == nil
}

// send puts what is held, then p, on the wire, after the head if it has
// not gone yet, and ends a chunked body when final.
func (w *httpWriter) send(p []byte, final bool) {
	if !w.committed {
		w.commit()
	}
	held := w.buf[headroom:]
	if w.isHEAD || !bodyAllowedForStatus(w.status) {
		held, p = nil, nil
		w.buf = w.buf[:headroom]
	}
	prefix := w.head[:0]
	if !w.sent {
		prefix = w.head
		w.sent = true
	}
	n := len(held) + len(p)
	if w.chunking && n > 0 {
		prefix = append(strconv.AppendInt(prefix, int64(n), 16), "\r\n"...)
		if p == nil {
			w.buf = append(w.buf, "\r\n"...)
		}
	}
	if final && w.chunking && p == nil {
		w.buf = append(w.buf, "0\r\n\r\n"...)
	}
	w.head = prefix[:0]
	out := w.buf[headroom:]
	if len(prefix) <= headroom {
		out = w.buf[headroom-len(prefix):]
		copy(out, prefix)
		prefix = nil
	}
	switch {
	case p != nil:
		bufs := net.Buffers{prefix, out, p}
		if w.chunking {
			bufs = append(bufs, []byte("\r\n"))
		}
		if w.err == nil {
			if _, err := bufs.WriteTo(w.c.nc); err != nil {
				w.fail(err)
			}
		}
	case prefix != nil:
		w.write(prefix)
		w.write(out)
	default:
		w.write(out)
	}
	w.buf = w.buf[:headroom]
}

func (w *httpWriter) write(b []byte) {
	if w.err == nil && len(b) > 0 {
		if _, err := w.c.nc.Write(b); err != nil {
			w.fail(err)
		}
	}
}

func (w *httpWriter) fail(err error) {
	w.err = err
	w.cancel()
}

// commit builds the answer's head into w.head and settles its framing,
// by net/http's rules (chunkWriter.writeHeader): a Content-Length for a
// finished short answer, chunked past bufferBeforeChunking or once
// flushed, Connection: close where the request, the handler, an unread
// body or a drain asks for it, a Date, and a sniffed Content-Type when
// the handler set none.
func (w *httpWriter) commit() {
	w.committed = true
	h := w.header
	keepAlives := !w.c.draining.Load()
	var excl exclude
	var autoCL bool
	var contentType, connection, transferEncoding string

	te := h.Get("Transfer-Encoding")
	hasTE := te != ""
	_, hasCLHeader := h["Content-Length"]
	if w.done && !hasTE && bodyAllowedForStatus(w.status) && !hasCLHeader && w.written <= bufferBeforeChunking && (!w.isHEAD || w.written > 0) {
		w.cl, autoCL = w.written, true
	}
	hasCL := w.cl != -1
	if w.wants10KeepAlive && (w.isHEAD || hasCL || !bodyAllowedForStatus(w.status)) {
		if _, set := h["Connection"]; !set {
			connection = "keep-alive"
		}
	} else if !w.is11 || w.wantsClose {
		w.closeAfter = true
	}
	if h.Get("Connection") == "close" || !keepAlives {
		w.closeAfter = true
	}
	if w.body.expect && !w.body.eof {
		w.closeAfter = true
	}
	if w.req.ContentLength != 0 && !w.closeAfter && !w.body.expect {
		if ok, tooBig := w.body.drain(); tooBig {
			w.closeAfter, w.tooBig = true, true
			excl |= exclConnection
			connection = "close"
		} else if !ok {
			w.closeAfter = true
		}
	}
	if bodyAllowedForStatus(w.status) {
		_, haveType := h["Content-Type"]
		if held := w.buf[headroom:]; !haveType && !hasTE && h.Get("Content-Encoding") == "" && len(held) > 0 {
			contentType = http.DetectContentType(held)
		}
	} else {
		excl |= exclContentLength | exclTransferEncoding
		if w.status == http.StatusNotModified {
			excl |= exclContentType
		}
	}
	if hasCL && hasTE && te != "identity" {
		w.c.l.logger().Warn("answer with both Transfer-Encoding and Content-Length", "transfer_encoding", te, "content_length", w.cl)
		excl |= exclContentLength
		hasCL, w.cl = false, -1
	}
	switch {
	case w.isHEAD || !bodyAllowedForStatus(w.status) || w.status == http.StatusNoContent, hasCL:
		excl |= exclTransferEncoding
	case w.is11:
		if te == "identity" {
			w.closeAfter = true
			excl |= exclTransferEncoding
		} else {
			w.chunking, transferEncoding = true, "chunked"
			if te == "chunked" {
				excl |= exclTransferEncoding
			}
		}
	default:
		w.closeAfter = true
		excl |= exclTransferEncoding
	}
	if w.chunking {
		excl |= exclContentLength
	}
	if w.closeAfter && (!keepAlives || !hasToken(h.Get("Connection"), "close")) {
		excl |= exclConnection
		if w.is11 {
			connection = "close"
		}
	}

	b := appendStatusLine(w.head[:0], w.is11, w.status)
	b = appendHeader(b, h, excl)
	if _, ok := h["Date"]; !ok {
		b = w.c.l.appendDate(append(b, "Date: "...))
		b = append(b, "\r\n"...)
	}
	if autoCL {
		b = append(strconv.AppendInt(append(b, "Content-Length: "...), w.cl, 10), "\r\n"...)
	}
	for _, kv := range [...][2]string{{"Content-Type", contentType}, {"Connection", connection}, {"Transfer-Encoding", transferEncoding}} {
		if kv[1] != "" {
			b = append(append(append(append(b, kv[0]...), ": "...), kv[1]...), "\r\n"...)
		}
	}
	w.head = append(b, "\r\n"...)
}

func bodyAllowedForStatus(status int) bool {
	return (status < 100 || status > 199) && status != http.StatusNoContent && status != http.StatusNotModified
}

func appendStatusLine(b []byte, is11 bool, code int) []byte {
	if is11 {
		b = append(b, "HTTP/1.1 "...)
	} else {
		b = append(b, "HTTP/1.0 "...)
	}
	if text := http.StatusText(code); text != "" {
		b = append(append(strconv.AppendInt(b, int64(code), 10), ' '), text...)
	} else {
		b = fmt.Appendf(b, "%03d status code %d", code, code)
	}
	return append(b, "\r\n"...)
}

// exclude is the set of the handler's headers an answer's head leaves
// out.
type exclude uint8

const (
	exclContentLength exclude = 1 << iota
	exclTransferEncoding
	exclConnection
	exclContentType
)

func (e exclude) has(key string) bool {
	switch key {
	case "Content-Length":
		return e&exclContentLength != 0
	case "Transfer-Encoding":
		return e&exclTransferEncoding != 0
	case "Connection":
		return e&exclConnection != 0
	case "Content-Type":
		return e&exclContentType != 0
	}
	return false
}

// appendHeader writes h's lines as http.Header.WriteSubset does: keys
// sorted, invalid names dropped, a value's line breaks turned to spaces
// and its ends trimmed.
func appendHeader(b []byte, h http.Header, excl exclude) []byte {
	type field struct {
		k  string
		vv []string
	}
	var small [16]field
	fields := small[:0]
	for k, vv := range h {
		if !excl.has(k) && validHeaderName(k) && !strings.HasPrefix(k, http.TrailerPrefix) {
			fields = append(fields, field{k, vv})
		}
	}
	for i := 1; i < len(fields); i++ { // a handful: insertion sort
		for j := i; j > 0 && fields[j].k < fields[j-1].k; j-- {
			fields[j], fields[j-1] = fields[j-1], fields[j]
		}
	}
	for _, f := range fields {
		for _, v := range f.vv {
			b = append(append(append(append(b, f.k...), ": "...), cleanValue(v)...), "\r\n"...)
		}
	}
	return b
}

// cleanValue is a header value as it may go on the wire.
func cleanValue(v string) string {
	for i := 0; i < len(v); i++ {
		if v[i] == '\r' || v[i] == '\n' {
			v = strings.NewReplacer("\r\n", " ", "\r", " ", "\n", " ").Replace(v)
			break
		}
	}
	if n := len(v); n > 0 && (v[0] == ' ' || v[0] == '\t' || v[n-1] == ' ' || v[n-1] == '\t') {
		v = strings.Trim(v, " \t")
	}
	return v
}

// dateLine is the Date header's value, formatted once a second.
type dateLine struct {
	sec int64
	b   []byte
}

func (l *Loop) appendDate(b []byte) []byte {
	now := time.Now()
	d := l.date.Load()
	if d == nil || d.sec != now.Unix() {
		d = &dateLine{sec: now.Unix(), b: now.UTC().AppendFormat(nil, http.TimeFormat)}
		l.date.Store(d)
	}
	return append(b, d.b...)
}

// hasToken reports whether token is in v, a header value, ASCII
// case-insensitively and between token boundaries (net/http's rule).
func hasToken(v, token string) bool {
	for sp := 0; sp+len(token) <= len(v); sp++ {
		if sp > 0 && !isTokenBoundary(v[sp-1]) {
			continue
		}
		if end := sp + len(token); end != len(v) && !isTokenBoundary(v[end]) {
			continue
		}
		if strings.EqualFold(v[sp:sp+len(token)], token) {
			return true
		}
	}
	return false
}

func isTokenBoundary(b byte) bool { return b == ' ' || b == ',' || b == '\t' }

func validHeaderName(k string) bool {
	if k == "" {
		return false
	}
	for i := 0; i < len(k); i++ {
		if !tokenByte[k[i]] {
			return false
		}
	}
	return true
}

// tokenByte and validHostByte are the byte classes of httpguts, which
// net/http checks header names and the Host header against.
var tokenByte, validHostByte = func() (t, h [256]bool) {
	for c := '0'; c <= '9'; c++ {
		t[c], h[c] = true, true
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], h[c] = true, true
		t[c-'a'+'A'], h[c-'a'+'A'] = true, true
	}
	for _, c := range "!#$%&'*+-.^_`|~" {
		t[c] = true
	}
	for _, c := range "!$%&()*+,-.:;=[']_~" {
		h[c] = true
	}
	return t, h
}()
