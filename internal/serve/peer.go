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
// answers 101 and hijacks the connection. From then on the connection
// carries one request at a time, as frames:
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
	"os"
	"strconv"
	"sync"
	"time"

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

// PeerHandler returns h behind the peer upgrade: a GET /peer asking for
// it gets the connection switched to frames, each dispatched to h, and
// every other request goes to h as it is. Server.Handler is this around
// the server's own surface, with its body bound and its shutdown drain;
// PeerHandler is for anything else that must answer a cluster router —
// a fake peer in a test — and bounds request bodies at
// DefaultMaxBodyBytes.
func PeerHandler(h http.Handler) http.Handler {
	return &peerHandler{next: h, maxBody: DefaultMaxBodyBytes, conns: &peerConns{}}
}

type peerHandler struct {
	next    http.Handler
	maxBody int64
	conns   *peerConns
}

func (h *peerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != peerPath || r.Method != http.MethodGet || r.Header.Get("Upgrade") != peerProtocol {
		h.next.ServeHTTP(w, r)
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, "peer upgrade: %v", err)
		return
	}
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+peerProtocol+"\r\n\r\n"); err != nil {
		conn.Close()
		return
	}
	c := &peerConn{
		h: h, conn: conn, br: brw.Reader,
		// Hijacked, the connection outlives nothing of r but its values.
		base: context.WithoutCancel(r.Context()),
		host: r.Host, remote: r.RemoteAddr,
		done: make(chan struct{}),
	}
	c.w.c = c
	c.w.header = http.Header{}
	if !h.conns.add(c) {
		conn.Close()
		return
	}
	c.serve()
}

// peerConns is the set of peer connections a handler hijacked, which
// http.Server.Shutdown does not track: close drains them. While there
// are any, a watchdog ticks every watchAfter (peerConn.tick).
type peerConns struct {
	mu       sync.Mutex
	conns    map[*peerConn]struct{}
	closed   bool // a drain has begun: no new connection is served
	watchdog bool // the watchdog runs
}

// watchAfter is about how long a peer request runs before its
// connection is watched for the router hanging up.
const watchAfter = 10 * time.Millisecond

func (p *peerConns) add(c *peerConn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	if p.conns == nil {
		p.conns = map[*peerConn]struct{}{}
	}
	p.conns[c] = struct{}{}
	if !p.watchdog {
		p.watchdog = true
		go p.watch()
	}
	return true
}

// watch is the watchdog: it ticks every connection until none is left.
func (p *peerConns) watch() {
	t := time.NewTicker(watchAfter)
	defer t.Stop()
	for range t.C {
		p.mu.Lock()
		if len(p.conns) == 0 {
			p.watchdog = false
			p.mu.Unlock()
			return
		}
		for c := range p.conns {
			c.tick()
		}
		p.mu.Unlock()
	}
}

func (p *peerConns) remove(c *peerConn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// close closes every idle connection at once and each busy one as its
// request ends, and returns when all have closed. If ctx ends first the
// rest are closed mid-request and ctx's error is returned. With keep
// set, connections opened later are served; otherwise they are
// refused.
func (p *peerConns) close(ctx context.Context, keep bool) error {
	p.mu.Lock()
	p.closed = !keep
	conns := make([]*peerConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.drain()
	}
	for _, c := range conns {
		select {
		case <-c.done:
		case <-ctx.Done():
			for _, c := range conns {
				c.conn.Close()
			}
			return ctx.Err()
		}
	}
	return nil
}

// peerConn is the server side of one peer connection. serve, on the
// goroutine that answered the upgrade, reads a request frame, runs it
// and answers it, one request at a time: no goroutine is handed a
// request (a handoff per call cost as much CPU as the rest of the hop).
// A request learns that its router hung up — cancelled, or timed out —
// through its context: cancelled when a write fails, and, once the
// request has run for about watchAfter, as soon as a read of the
// connection sees it close (watchHangUp, started by the handler's
// watchdog). net/http reads in the background during every request; a
// call that answers in microseconds does not need to, and arming a
// timer per call costs the hop a wakeup of the runtime's poller.
type peerConn struct {
	h            *peerHandler
	conn         net.Conn
	br           *bufio.Reader
	base         context.Context
	host, remote string
	w            frameWriter // reused: a connection serves one request at a time
	done         chan struct{}

	mu       sync.Mutex
	active   bool               // a request is being served
	draining bool               // close once the active request ends
	cancel   context.CancelFunc // the active request's
	seq      uint64             // requests begun
	seen     uint64             // the seq the watchdog saw active at its last tick
	watching chan struct{}      // closed when watchHangUp's read returns; nil when none runs
}

func (c *peerConn) serve() {
	defer func() {
		c.h.conns.remove(c)
		c.conn.Close()
		close(c.done)
	}()
	for {
		req, err := readRequest(c.br, c.h.maxBody)
		if err != nil { // the router hung up, a drain closed it, or a bad frame
			return
		}
		ctx, cancel, ok := c.begin()
		if !ok {
			req.release()
			return
		}
		clean := c.dispatch(ctx, cancel, req)
		if !c.end() || !clean {
			return
		}
	}
}

// begin marks a request active, unless a drain has begun.
func (c *peerConn) begin() (context.Context, context.CancelFunc, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return nil, nil, false
	}
	ctx, cancel := context.WithCancel(c.base)
	c.active, c.cancel = true, cancel
	c.seq++
	return ctx, cancel, true
}

// end marks the active request done and stops watching the connection,
// reporting whether it may serve another: not once a drain has begun.
func (c *peerConn) end() bool {
	c.mu.Lock()
	c.cancel()
	watching := c.watching
	c.active, c.cancel, c.watching = false, nil, nil
	draining := c.draining
	c.mu.Unlock()
	if watching != nil { // interrupt its read: the connection is ours again
		c.conn.SetReadDeadline(aLongTimeAgo)
		<-watching
		c.conn.SetReadDeadline(time.Time{})
	}
	return !draining
}

// tick is the watchdog's look at the connection: a request it finds
// active at two ticks in a row has run at least watchAfter, and gets
// watchHangUp.
func (c *peerConn) tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.active || c.watching != nil || c.seen != c.seq {
		c.seen = c.seq
		return
	}
	c.watching = make(chan struct{})
	go c.watchHangUp(c.watching, c.cancel)
}

// watchHangUp reads the connection while a long request runs. The
// router sends nothing until the end frame, so the read returns only
// when the router closes the connection — which cancels the request —
// or when end interrupts it. A byte that does arrive stays buffered for
// serve.
func (c *peerConn) watchHangUp(watching chan struct{}, cancel context.CancelFunc) {
	defer close(watching)
	if _, err := c.br.Peek(1); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		cancel()
	}
}

// drain closes the connection now if it is idle, else once its request
// ends.
func (c *peerConn) drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining = true
	if !c.active {
		c.conn.Close()
	}
}

// dispatch serves one request frame on the handler's surface and sends
// the rest of the response and the end frame, reporting whether the
// connection may serve another: not after a handler that hijacked it (a
// cut fault) or whose response could not be written. A handler that
// panics — http.ErrAbortHandler is a refuse fault — unwinds through
// serve, which closes the connection, to net/http's recovery, as the
// panic of a plain request does.
func (c *peerConn) dispatch(ctx context.Context, cancel context.CancelFunc, pr peerRequest) bool {
	defer pr.release()
	w := &c.w
	w.reset(cancel)
	if r, err := c.request(ctx, &pr); err != nil {
		HTTPError(w, http.StatusBadRequest, "peer request: %v", err)
	} else {
		c.h.next.ServeHTTP(w, r)
	}
	w.finish()
	return w.err == nil && !w.hijacked
}

// request builds the *http.Request a handler sees for a frame.
func (c *peerConn) request(ctx context.Context, pr *peerRequest) (*http.Request, error) {
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
	c        *peerConn
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
		if _, err := bufs.WriteTo(w.c.conn); err != nil {
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
	return w.c.conn, bufio.NewReadWriter(w.c.br, bufio.NewWriter(w.c.conn)), nil
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
		if _, err := w.c.conn.Write(w.out); err != nil {
			w.fail(err)
		}
	}
	w.out = w.out[:0]
}

func (w *frameWriter) fail(err error) {
	w.err = err
	w.cancel()
}
