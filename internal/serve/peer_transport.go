package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

const (
	// maxIdlePeerConns is how many idle connections a PeerTransport
	// keeps per peer (net/http's MaxIdleConnsPerHost, as the cluster set
	// it); more may be open while calls are in flight.
	maxIdlePeerConns = 16
	// peerIdleTimeout closes a pooled connection nobody used for this
	// long.
	peerIdleTimeout = 90 * time.Second
	// inlineBody is the largest request body copied into the request
	// frame's buffer (one write); a larger one follows it unbuffered.
	inlineBody = 32 << 10
)

// aLongTimeAgo is the deadline that interrupts a connection's pending
// read or write at once.
var aLongTimeAgo = time.Unix(1, 0)

// PeerTransport is the http.RoundTripper a cluster router reaches its
// backends with: each request travels as frames (see peer.go) over a
// connection upgraded once and pooled, instead of as an HTTP/1.1
// exchange. The caller's goroutine writes the request and reads the
// response; there is no per-connection reader or writer goroutine.
//
// Deadlines: the dial, the upgrade and the wait for the head frame are
// bounded by the transport's timeout and the request context's
// deadline, whichever is sooner; past the head only the context's
// deadline holds, so a streamed /batch response may take as long as its
// caller lets it. Cancelling the context interrupts the connection
// (context.AfterFunc). A connection goes back to the pool only when its
// response ended with a clean end frame and was never interrupted.
//
// A call that fails on a pooled connection before any byte of its
// response arrived is retried once, on a fresh connection, and the
// other pooled connections to that peer are closed: without a
// background reader, a connection the peer closed while it sat idle (a
// restart, a drain) is only found out by using it. A peer that refuses
// the upgrade fails the call; there is no HTTP/1.1 fallback.
type PeerTransport struct {
	timeout time.Duration
	dialer  net.Dialer

	mu   sync.Mutex
	idle map[string][]*peerClientConn // by host:port, most recently used last
}

// NewPeerTransport returns a transport whose dial, upgrade and head
// frame are bounded by timeout.
func NewPeerTransport(timeout time.Duration) *PeerTransport {
	return &PeerTransport{
		timeout: timeout,
		dialer:  net.Dialer{Timeout: timeout},
		idle:    map[string][]*peerClientConn{},
	}
}

// peerClientConn is the client side of one upgraded connection.
type peerClientConn struct {
	t      *PeerTransport
	key    string
	conn   net.Conn
	br     *bufio.Reader
	wbuf   []byte // request frame scratch
	idleAt time.Time
}

// RoundTrip sends req as a request frame and returns the response as
// soon as its head frame has arrived; the body reads the body frames.
func (t *PeerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	body, n, getBody := req.Body, req.ContentLength, req.GetBody
	if body == http.NoBody {
		body = nil
	}
	defer func() {
		if body != nil {
			body.Close()
		}
	}()
	if body == nil {
		n = 0
	} else if n < 0 { // unknown length: hold it, so the frame can declare it
		b, err := io.ReadAll(body)
		if err != nil {
			return nil, err
		}
		body, n = io.NopCloser(bytes.NewReader(b)), int64(len(b))
		getBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(b)), nil }
	}
	key := peerAddr(req.URL)
	for {
		c := t.get(key)
		reused := c != nil
		if c == nil {
			var err error
			if c, err = t.dial(ctx, req.URL, key); err != nil {
				return nil, err
			}
		}
		resp, retry, err := c.roundTrip(req, body, n)
		if err == nil {
			return resp, nil
		}
		c.close()
		if !reused || !retry || ctx.Err() != nil || (body != nil && getBody == nil) {
			return nil, err
		}
		t.dropIdle(key) // pooled beside a dead one: suspect too; the retry dials
		if body != nil {
			body.Close()
			if body, err = getBody(); err != nil {
				body = nil
				return nil, err
			}
		}
	}
}

// peerAddr is the host:port a URL's peer listens on.
func peerAddr(u *url.URL) string {
	if u.Port() != "" {
		return u.Host
	}
	if u.Scheme == "https" {
		return net.JoinHostPort(u.Hostname(), "443")
	}
	return net.JoinHostPort(u.Hostname(), "80")
}

// dropIdle closes the pooled connections to key.
func (t *PeerTransport) dropIdle(key string) {
	t.mu.Lock()
	idle := t.idle[key]
	delete(t.idle, key)
	t.mu.Unlock()
	for _, c := range idle {
		c.close()
	}
}

// get pops the most recently pooled connection to key, if any.
func (t *PeerTransport) get(key string) *peerClientConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	idle := t.idle[key]
	if len(idle) == 0 {
		return nil
	}
	c := idle[len(idle)-1]
	idle[len(idle)-1] = nil
	t.idle[key] = idle[:len(idle)-1]
	if time.Since(c.idleAt) > peerIdleTimeout {
		// Everything under it has been idle longer still.
		for _, old := range t.idle[key] {
			old.close()
		}
		delete(t.idle, key)
		c.close()
		return nil
	}
	return c
}

// put pools a connection whose response ended cleanly.
func (t *PeerTransport) put(c *peerClientConn) {
	c.idleAt = time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	idle := t.idle[c.key]
	if len(idle) >= maxIdlePeerConns {
		c.close()
		return
	}
	t.idle[c.key] = append(idle, c)
}

// dial opens a connection to the peer and upgrades it.
func (t *PeerTransport) dial(ctx context.Context, u *url.URL, key string) (*peerClientConn, error) {
	var conn net.Conn
	var err error
	if u.Scheme == "https" {
		d := tls.Dialer{NetDialer: &t.dialer, Config: &tls.Config{ServerName: u.Hostname()}}
		conn, err = d.DialContext(ctx, "tcp", key)
	} else {
		conn, err = t.dialer.DialContext(ctx, "tcp", key)
	}
	if err != nil {
		return nil, err
	}
	c := &peerClientConn{t: t, key: key, conn: conn, br: bufio.NewReaderSize(conn, 16<<10)}
	if err := c.upgrade(ctx, u.Host); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// deadline is the bound on the dial, upgrade and head frame of a call
// under ctx.
func (t *PeerTransport) deadline(ctx context.Context) time.Time {
	d := time.Now().Add(t.timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(d) {
		return dl
	}
	return d
}

// upgrade asks the peer to switch the connection to frames.
func (c *peerClientConn) upgrade(ctx context.Context, host string) error {
	c.conn.SetDeadline(c.t.deadline(ctx))
	stop := context.AfterFunc(ctx, c.interrupt)
	defer stop()
	if _, err := io.WriteString(c.conn, "GET "+peerPath+" HTTP/1.1\r\nHost: "+host+"\r\nConnection: Upgrade\r\nUpgrade: "+peerProtocol+"\r\n\r\n"); err != nil {
		return err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != peerProtocol {
		return fmt.Errorf("peer refused the %s upgrade: %s", peerProtocol, resp.Status)
	}
	return nil
}

func (c *peerClientConn) interrupt() { c.conn.SetDeadline(aLongTimeAgo) }

func (c *peerClientConn) close() { c.conn.Close() }

// contextErr reports a connection deadline that is the context's own —
// its deadline, which the connection may reach before the context's
// timer fires, or its cancellation (interrupt) — as the context's error.
func contextErr(ctx context.Context, err error) error {
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		<-ctx.Done()
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// roundTrip sends one request on c and reads its head frame. retry
// reports a failure that happened before any byte of a response
// arrived, for a reason a connection the peer closed while idle would
// give.
func (c *peerClientConn) roundTrip(req *http.Request, body io.Reader, n int64) (resp *http.Response, retry bool, err error) {
	ctx := req.Context()
	head := c.t.deadline(ctx)
	c.conn.SetDeadline(head)
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, c.interrupt)
	}
	defer func() {
		if err != nil && stop != nil {
			stop()
		}
	}()
	if err := c.writeRequest(req, body, n); err != nil {
		return nil, !errors.Is(err, os.ErrDeadlineExceeded), contextErr(ctx, err)
	}
	status, declared, err := readHead(c.br)
	if err != nil {
		return nil, err == io.EOF || errors.Is(err, syscall.ECONNRESET), contextErr(ctx, err)
	}
	// Past the head only the caller's deadline holds.
	if dl, ok := ctx.Deadline(); !ok || !dl.Equal(head) {
		c.conn.SetDeadline(dl) // the zero time when there is none
		if ctx.Err() != nil {
			c.interrupt() // cancelled in between: AfterFunc's deadline was just undone
		}
	}
	return &http.Response{
		StatusCode: status,
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		ContentLength: declared,
		Body:          &peerBody{c: c, ctx: ctx, stop: stop},
		Request:       req,
	}, false, nil
}

// writeRequest writes the request frame: a small body in the same write
// as the frame's front, a large one after it, uncopied.
func (c *peerClientConn) writeRequest(req *http.Request, body io.Reader, n int64) error {
	target := req.URL.RequestURI()
	id := req.Header.Get(obs.HeaderRequestID)
	meta := frameStringLen(req.Method) + frameStringLen(target) + frameStringLen(id)
	if int64(meta)+n > math.MaxUint32 {
		return fmt.Errorf("serve: peer request of %d bytes does not fit a frame", n)
	}
	b := appendFrameHeader(c.wbuf[:0], frameRequest, meta+int(n))
	b = appendFrameString(appendFrameString(appendFrameString(b, req.Method), target), id)
	if body != nil && n <= inlineBody {
		start := len(b)
		b = append(b, make([]byte, n)...)
		if _, err := io.ReadFull(body, b[start:]); err != nil {
			return fmt.Errorf("serve: reading the request body: %w", err)
		}
		body = nil
	}
	c.wbuf = b
	if _, err := c.conn.Write(b); err != nil || body == nil {
		return err
	}
	var sent int64
	var err error
	if wt, ok := body.(io.WriterTo); ok {
		sent, err = wt.WriteTo(c.conn)
	} else {
		sent, err = io.CopyN(c.conn, body, n)
	}
	if err == nil && sent != n {
		err = fmt.Errorf("serve: request body is %d bytes, declared %d", sent, n)
	}
	return err
}

// peerBody is a framed response's body: the payloads of its body
// frames, up to the end frame.
type peerBody struct {
	c      *peerClientConn
	ctx    context.Context
	stop   func() bool // releases the cancellation hook; nil when there is none
	left   int64       // unread bytes of the current body frame
	done   bool        // the end frame has been read
	err    error       // sticky: io.EOF after the end frame
	closed bool
}

func (b *peerBody) Read(p []byte) (int, error) {
	for b.err == nil && b.left == 0 {
		kind, n, err := readFrameHeader(b.c.br)
		switch {
		case err != nil:
			b.err = contextErr(b.ctx, unexpectedEOF(err, "response body"))
		case kind == frameBody && n <= maxBodyFrame:
			b.left = n
		case kind == frameEnd && n == 0:
			b.done, b.err = true, io.EOF
		default:
			b.err = frameError("%q frame of %d bytes inside a response body", kind, n)
		}
	}
	if b.err != nil {
		return 0, b.err
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	k, err := b.c.br.Read(p)
	b.left -= int64(k)
	if err != nil {
		b.err = contextErr(b.ctx, unexpectedEOF(err, "body frame"))
		if k == 0 {
			return 0, b.err
		}
	}
	return k, nil
}

// Close pools the connection if the response ended cleanly: the end
// frame was read, or is already buffered right behind what was read (a
// caller that read exactly the declared length has not asked for it).
// Anything else — a body left unread, a broken frame, an interrupted
// call — closes the connection.
func (b *peerBody) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	if !b.done && b.err == nil && b.left == 0 && b.c.br.Buffered() >= frameHeaderLen {
		if h, _ := b.c.br.Peek(frameHeaderLen); h[0] == frameEnd && h[1]|h[2]|h[3]|h[4] == 0 {
			b.c.br.Discard(frameHeaderLen)
			b.done = true
		}
	}
	if b.stop != nil && !b.stop() {
		b.done = false // interrupted: the deadline is in the past
	}
	if b.done {
		b.c.t.put(b.c)
	} else {
		b.c.close()
	}
	return nil
}
