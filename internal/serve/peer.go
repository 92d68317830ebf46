package serve

// This file is the peer hop, the wire between a cluster router
// (internal/cluster) and the backends behind it: the frame codec, the
// server half (PeerHandler, Server.Handler) and, in peer_transport.go,
// the client half (PeerTransport). Clients that are not routers — curl,
// the benchmark's load generator — keep plain HTTP; nothing here
// changes what an endpoint answers.
//
// A router opens a peer connection with one GET /peer carrying
// "Upgrade: xpath-peer/1" on the backend's ordinary port; the backend
// answers 101 and its connection loop switches codecs (conn.go). From
// then on the connection carries one request at a time, as frames:
//
//	frame    = kind(1 byte) length(4 bytes, big-endian) payload(length bytes)
//	request  'Q'  uvarint-prefixed method, target (path?query) and
//	              X-Request-Id ("" for none), then the body
//	head     'H'  status (2 bytes), declared body length (8 bytes,
//	              two's complement; -1 when the handler set no
//	              Content-Length)
//	body     'B'  body bytes: one frame per Flush (a /batch burst), at
//	              most maxBodyFrame
//	end      'E'  empty: the response is complete and the connection
//	              is free for the next request
//
// The backend dispatches each request frame to the same surface a plain
// HTTP request reaches — fault injector, obs.Middleware, MaxBytesReader,
// mux — so every endpoint, bound, metric, log line and trace is the
// same over both. A frame the decoder cannot read is ErrFrame and
// closes the connection; so does a request frame longer than the body
// bound plus maxRequestMeta.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/obs"
)

// peerProtocol is the Upgrade token of a peer connection, and peerPath
// the path the upgrade is asked on.
const (
	peerProtocol = "xpath-peer/1"
	peerPath     = "/peer"
)

// Frame kinds.
const (
	frameRequest byte = 'Q'
	frameHead    byte = 'H'
	frameBody    byte = 'B'
	frameEnd     byte = 'E'
)

const (
	frameHeaderLen = 5  // kind + length
	headPayloadLen = 10 // status + declared length
	// maxBodyFrame bounds one body frame; a larger Write is split.
	maxBodyFrame = 1 << 20
	// maxRequestMeta bounds a request frame's method, target and ID
	// together (net/http's default header bound is 1 MB; a peer target
	// is a path and a short query).
	maxRequestMeta = 64 << 10
	// flushAt is how many response bytes a writer holds before a Write
	// goes to the wire without waiting for Flush.
	flushAt = 32 << 10
)

// ErrFrame is the error of a peer frame that cannot be decoded:
// truncated, oversized, of an unknown kind, or out of order.
var ErrFrame = errors.New("serve: malformed peer frame")

func frameError(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFrame, fmt.Sprintf(format, args...))
}

func appendFrameHeader(dst []byte, kind byte, n int) []byte {
	return binary.BigEndian.AppendUint32(append(dst, kind), uint32(n))
}

// readFrameHeader reads the next frame's kind and payload length. Input
// that ends before the frame's first byte is io.EOF — a clean end —
// and inside its header ErrFrame; any other read error is returned as
// it is.
func readFrameHeader(br *bufio.Reader) (byte, int64, error) {
	h, err := br.Peek(frameHeaderLen)
	if err == io.EOF && len(h) > 0 {
		return 0, 0, frameError("truncated frame header")
	}
	if err != nil {
		return 0, 0, err
	}
	kind, n := h[0], int64(binary.BigEndian.Uint32(h[1:]))
	br.Discard(frameHeaderLen)
	return kind, n, nil
}

// unexpectedEOF turns an end of input inside a frame into ErrFrame.
func unexpectedEOF(err error, what string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return frameError("truncated %s", what)
	}
	return err
}

// peerRequest is one decoded request frame. The body shares the frame's
// buffer, which is pooled when it is small (release puts it back).
type peerRequest struct {
	method, target, id string
	body               []byte
	buf                *buffer
}

func (r *peerRequest) release() {
	if r.buf != nil {
		putBuffer(r.buf)
		r.buf = nil
	}
}

// readRequest decodes one request frame whose body is at most maxBody
// bytes. A frame declaring more than maxBody+maxRequestMeta is refused
// before any of its payload is read, so nothing is allocated past that
// bound.
func readRequest(br *bufio.Reader, maxBody int64) (peerRequest, error) {
	kind, n, err := readFrameHeader(br)
	if err != nil {
		return peerRequest{}, err
	}
	if kind != frameRequest {
		return peerRequest{}, frameError("%q frame where a request was due", kind)
	}
	if bound := maxBody + maxRequestMeta; n > bound {
		return peerRequest{}, frameError("request frame of %d bytes exceeds the %d-byte bound", n, bound)
	}
	var req peerRequest
	var payload []byte
	if n <= maxPooledBuffer {
		req.buf = getBuffer()
		if int64(cap(req.buf.b)) < n {
			req.buf.b = make([]byte, n)
		}
		payload = req.buf.b[:n]
		req.buf.b = payload
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(br, payload); err != nil {
		req.release()
		return peerRequest{}, unexpectedEOF(err, "request frame")
	}
	method, rest, ok := frameString(payload)
	target, rest, ok2 := frameString(rest)
	id, rest, ok3 := frameString(rest)
	if !ok || !ok2 || !ok3 || len(method) == 0 || len(target) == 0 || len(payload)-len(rest) > maxRequestMeta {
		req.release()
		return peerRequest{}, frameError("malformed request frame")
	}
	req.method, req.target, req.id, req.body = internMethod(method), string(target), string(id), rest
	return req, nil
}

// frameString splits a uvarint-prefixed string off the front of b.
func frameString(b []byte) (s, rest []byte, ok bool) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, nil, false
	}
	return b[k : k+int(n)], b[k+int(n):], true
}

func appendFrameString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// frameStringLen is len(appendFrameString(nil, s)).
func frameStringLen(s string) int {
	n := 1
	for v := len(s); v >= 0x80; v >>= 7 {
		n++
	}
	return n + len(s)
}

// internMethod returns the methods peers send without allocating.
func internMethod(b []byte) string {
	switch string(b) {
	case http.MethodGet:
		return http.MethodGet
	case http.MethodPost:
		return http.MethodPost
	case http.MethodDelete:
		return http.MethodDelete
	}
	return string(b)
}

// readHead decodes a response's head frame: the status and the declared
// body length (-1 when unknown).
func readHead(br *bufio.Reader) (status int, declared int64, err error) {
	kind, n, err := readFrameHeader(br)
	if err != nil {
		return 0, 0, err
	}
	if kind != frameHead || n != headPayloadLen {
		return 0, 0, frameError("%q frame of %d bytes where a head was due", kind, n)
	}
	p, err := br.Peek(headPayloadLen)
	if err != nil {
		return 0, 0, unexpectedEOF(err, "head frame")
	}
	status, declared = int(binary.BigEndian.Uint16(p)), int64(binary.BigEndian.Uint64(p[2:]))
	br.Discard(headPayloadLen)
	if status < 100 || status > 999 || declared < -1 {
		return 0, 0, frameError("head frame with status %d, length %d", status, declared)
	}
	return status, declared, nil
}

// upgradeResponse switches a connection to frames.
const upgradeResponse = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + peerProtocol + "\r\n\r\n"

// PeerHandler returns h behind the peer upgrade: a GET /peer asking for
// it gets the connection switched to frames, each dispatched to h, and
// every other request goes to h as it is. Server.Handler is this around
// the server's own surface, with its body bound and its drain;
// PeerHandler is for anything else that must answer a cluster router —
// a fake peer in a test — and bounds request bodies at
// DefaultMaxBodyBytes.
//
// A Loop that serves a PeerHandler answers the upgrade itself and
// speaks frames on the connection it already serves. Behind another
// http.Server (httptest in the cluster tests) the handler hijacks the
// connection and serves the frames on the request's goroutine,
// registered with its own Loop (Server.Handler's: the server's) so
// that a drain reaches it.
func PeerHandler(h http.Handler) http.Handler {
	return &peerHandler{next: h, maxBody: DefaultMaxBodyBytes, conns: &Loop{}}
}

type peerHandler struct {
	next    http.Handler
	maxBody int64
	conns   *Loop
}

func (h *peerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !isPeerUpgrade(r) {
		h.next.ServeHTTP(w, r)
		return
	}
	nc, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, "peer upgrade: %v", err)
		return
	}
	if _, err := io.WriteString(nc, upgradeResponse); err != nil {
		nc.Close()
		return
	}
	c := h.conns.newConn(nc, brw.Reader)
	c.up, c.peer, c.host, c.remote = h, true, r.Host, r.RemoteAddr
	c.enter(phaseIdle)
	// Hijacked, the connection outlives nothing of r but its values.
	c.base = context.WithoutCancel(r.Context())
	if !h.conns.add(c) {
		nc.Close()
		return
	}
	c.serve()
}

// serveFrame reads one request frame, runs it and answers it,
// reporting whether the connection may serve another.
func (c *conn) serveFrame() bool {
	req, err := readRequest(c.br, c.up.maxBody)
	if err != nil { // the router hung up, a drain closed it, or a bad frame
		return false
	}
	ctx, cancel := c.begin(true) // the body came in the frame
	clean := c.dispatch(ctx, cancel, req)
	return c.end() && clean
}

// dispatch serves one request frame on the handler's surface and sends
// the rest of the response and the end frame, reporting whether the
// connection may serve another: not after a handler that hijacked it (a
// cut fault) or whose response could not be written. A handler that
// panics — http.ErrAbortHandler is a refuse fault — unwinds to serve,
// which closes the connection.
func (c *conn) dispatch(ctx context.Context, cancel context.CancelFunc, pr peerRequest) bool {
	defer pr.release()
	w := &c.fw
	w.reset(cancel)
	if r, err := c.request(ctx, &pr); err != nil {
		HTTPError(w, http.StatusBadRequest, "peer request: %v", err)
	} else {
		c.up.next.ServeHTTP(w, r)
	}
	w.finish()
	return w.err == nil && !w.hijacked
}

// request builds the *http.Request a handler sees for a frame.
func (c *conn) request(ctx context.Context, pr *peerRequest) (*http.Request, error) {
	u, err := url.ParseRequestURI(pr.target)
	if err != nil {
		return nil, err
	}
	h := make(http.Header, 1)
	if pr.id != "" {
		h[obs.HeaderRequestID] = []string{pr.id}
	}
	var body io.ReadCloser = http.NoBody
	if len(pr.body) > 0 {
		body = io.NopCloser(bytes.NewReader(pr.body))
	}
	r := &http.Request{
		Method: pr.method, URL: u, RequestURI: pr.target,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h, Body: body, ContentLength: int64(len(pr.body)),
		Host: c.host, RemoteAddr: c.remote,
	}
	return r.WithContext(ctx), nil
}

// frameWriter is the http.ResponseWriter of a peer request: WriteHeader
// appends the head frame, Write appends to the open body frame, Flush
// closes it and puts what is held on the wire, finish adds the end
// frame. A /query answer — head, one body frame, end — leaves in one
// write. A failed write cancels the request: the router is gone.
type frameWriter struct {
	c        *conn
	header   http.Header
	status   int
	out      []byte // frames not yet written
	open     int    // offset in out of the open body frame's header, -1 when none
	err      error  // the first write error; later output is dropped
	cancel   context.CancelFunc
	hijacked bool
}

func (w *frameWriter) reset(cancel context.CancelFunc) {
	clear(w.header)
	w.status, w.out, w.open, w.err, w.cancel, w.hijacked = 0, w.out[:0], -1, nil, cancel, false
}

func (w *frameWriter) Header() http.Header { return w.header }

// WriteHeader appends the head frame, carrying the Content-Length the
// handler set (the router sizes its read by it).
func (w *frameWriter) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if w.status != 0 || w.hijacked || code < 200 {
		return // informational responses are not relayed
	}
	w.status = code
	declared := int64(-1)
	if cl := w.header.Get("Content-Length"); cl != "" {
		if v, err := strconv.ParseInt(cl, 10, 64); err == nil && v >= 0 {
			declared = v
		}
	}
	w.out = appendFrameHeader(w.out, frameHead, headPayloadLen)
	w.out = binary.BigEndian.AppendUint16(w.out, uint16(code))
	w.out = binary.BigEndian.AppendUint64(w.out, uint64(declared))
}

func (w *frameWriter) Write(p []byte) (int, error) {
	if w.hijacked {
		return 0, http.ErrHijacked
	}
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if w.err != nil {
		return 0, w.err
	}
	if len(w.out)+len(p) <= flushAt {
		if w.open < 0 {
			w.open = len(w.out)
			w.out = appendFrameHeader(w.out, frameBody, 0)
		}
		w.out = append(w.out, p...)
		return len(p), nil
	}
	// A large write: what is held goes first, then p in frames of its
	// own, without copying it.
	w.closeFrame()
	w.send()
	for rest := p; len(rest) > 0 && w.err == nil; {
		k := min(len(rest), maxBodyFrame)
		bufs := net.Buffers{appendFrameHeader(w.out[:0], frameBody, k), rest[:k]}
		if _, err := bufs.WriteTo(w.c.nc); err != nil {
			w.fail(err)
		}
		rest = rest[k:]
	}
	if w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

// Flush puts every frame held on the wire: one body frame per burst.
func (w *frameWriter) Flush() {
	if w.hijacked {
		return
	}
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	w.closeFrame()
	w.send()
}

// Hijack hands the connection over — what a cut fault uses to sever it.
// The connection is not served again.
func (w *frameWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	w.hijacked = true
	w.c.hijack()
	return w.c.nc, bufio.NewReadWriter(w.c.br, bufio.NewWriter(w.c.nc)), nil
}

func (w *frameWriter) finish() {
	if w.hijacked {
		return
	}
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	w.closeFrame()
	w.out = appendFrameHeader(w.out, frameEnd, 0)
	w.send()
}

// closeFrame patches the open body frame's length in (or drops it when
// nothing was written to it).
func (w *frameWriter) closeFrame() {
	if w.open < 0 {
		return
	}
	if n := len(w.out) - w.open - frameHeaderLen; n == 0 {
		w.out = w.out[:w.open]
	} else {
		binary.BigEndian.PutUint32(w.out[w.open+1:], uint32(n))
	}
	w.open = -1
}

func (w *frameWriter) send() {
	if w.err == nil && len(w.out) > 0 {
		if _, err := w.c.nc.Write(w.out); err != nil {
			w.fail(err)
		}
	}
	w.out = w.out[:0]
}

func (w *frameWriter) fail(err error) {
	w.err = err
	w.cancel()
}
