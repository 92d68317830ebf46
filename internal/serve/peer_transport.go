package serve

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"syscall"
	"time"

	"repro/internal/guard"
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
	// inlineBody is the largest request body copied behind the head
	// (one write); a larger one follows it unbuffered.
	inlineBody = 32 << 10
)

// aLongTimeAgo is the deadline that interrupts a connection's pending
// read or write at once.
var aLongTimeAgo = time.Unix(1, 0)

// PeerTransport is the http.RoundTripper a cluster router reaches its
// backends with: keep-alive HTTP/1.1 on pooled connections, written and
// read on the caller's goroutine (net/http's Transport runs a reader and
// a writer goroutine per connection). A call is one write — request
// line, the URL's Host, X-Request-Id when set, Content-Length when
// there is a body, and a body of up to inlineBody bytes (a larger one
// follows) — and its response is read by http.ReadResponse on the
// connection's own bufio.Reader. A method, target, Host or X-Request-Id
// holding a byte the head cannot carry (a control byte such as CR or
// LF; a space outside the ID) fails the call before anything is
// written. A request body must declare its length.
//
// The dial and the response head are bounded by the transport's timeout
// and the context's deadline, whichever is sooner; past the head only
// the context's deadline holds, so a streamed /batch may take as long
// as its caller lets it. Cancelling the context interrupts the
// connection (context.AfterFunc). A connection goes back to the pool
// only when its body was read to its end, the call was never
// interrupted, and the answer did not say Connection: close.
//
// A call that fails on a pooled connection before any byte of its
// response arrived is retried once, on a fresh connection, and the
// other pooled connections to that peer are closed: without a
// background reader, a connection the peer closed while it sat idle (a
// restart, a drain) is only found out by using it.
type PeerTransport struct {
	timeout time.Duration
	dialer  net.Dialer
	idle    guard.Locked[map[string][]*peerClientConn] // by host:port, most recently used last
}

// NewPeerTransport returns a transport whose dial and response head are
// bounded by timeout.
func NewPeerTransport(timeout time.Duration) *PeerTransport {
	return &PeerTransport{
		timeout: timeout,
		dialer:  net.Dialer{Timeout: timeout},
		idle:    guard.New(map[string][]*peerClientConn{}),
	}
}

// peerClientConn is the client side of one pooled connection.
type peerClientConn struct {
	t      *PeerTransport
	key    string
	conn   net.Conn
	br     *bufio.Reader
	wbuf   []byte // request scratch
	idleAt time.Time
}

// RoundTrip writes req and returns the response as soon as its head
// has been read; the body reads the rest.
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
	target, id := req.URL.RequestURI(), req.Header.Get(obs.HeaderRequestID)
	if !headSafe(req.Method, false) || !headSafe(target, false) || !headSafe(req.URL.Host, false) || !headSafe(id, true) {
		return nil, fmt.Errorf("serve: peer request %q %q: a byte its head cannot carry", req.Method, target)
	}
	if body != nil && n < 0 {
		return nil, errors.New("serve: a peer request body must declare its length")
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
		resp, retry, err := c.roundTrip(req, target, id, body, n)
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

// headSafe reports whether s can go into a request head: no control
// byte, and no space or tab unless s is a header value.
func headSafe(s string, value bool) bool {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < ' ' && b != '\t' || b == 0x7f || !value && (b == ' ' || b == '\t') {
			return false
		}
	}
	return true
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
	pool := *t.idle.Lock()
	idle := pool[key]
	delete(pool, key)
	t.idle.Unlock()
	for _, c := range idle {
		c.close()
	}
}

// get pops the most recently pooled connection to key, if any.
func (t *PeerTransport) get(key string) *peerClientConn {
	pool := *t.idle.Lock()
	defer t.idle.Unlock()
	idle := pool[key]
	if len(idle) == 0 {
		return nil
	}
	c := idle[len(idle)-1]
	idle[len(idle)-1] = nil
	pool[key] = idle[:len(idle)-1]
	if time.Since(c.idleAt) > peerIdleTimeout {
		// Everything under it has been idle longer still.
		for _, old := range pool[key] {
			old.close()
		}
		delete(pool, key)
		c.close()
		return nil
	}
	return c
}

// put pools a connection whose response ended cleanly.
func (t *PeerTransport) put(c *peerClientConn) {
	c.idleAt = time.Now()
	pool := *t.idle.Lock()
	defer t.idle.Unlock()
	idle := pool[c.key]
	if len(idle) >= maxIdlePeerConns {
		c.close()
		return
	}
	pool[c.key] = append(idle, c)
}

// dial opens a connection to the peer.
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
	return &peerClientConn{t: t, key: key, conn: conn, br: bufio.NewReaderSize(conn, 16<<10)}, nil
}

// deadline is the bound on the dial and response head of a call under
// ctx.
func (t *PeerTransport) deadline(ctx context.Context) time.Time {
	d := time.Now().Add(t.timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(d) {
		return dl
	}
	return d
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

// roundTrip sends one request on c and reads its response head. retry
// reports a failure that happened before any byte of a response
// arrived, for a reason a connection the peer closed while idle would
// give.
func (c *peerClientConn) roundTrip(req *http.Request, target, id string, body io.Reader, n int64) (resp *http.Response, retry bool, err error) {
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
	if err := c.writeRequest(req, target, id, body, n); err != nil {
		return nil, !errors.Is(err, os.ErrDeadlineExceeded), contextErr(ctx, err)
	}
	if resp, err = http.ReadResponse(c.br, req); err != nil {
		return nil, err == io.EOF || errors.Is(err, syscall.ECONNRESET), contextErr(ctx, err)
	}
	// Past the head only the caller's deadline holds.
	if dl, ok := ctx.Deadline(); !ok || !dl.Equal(head) {
		c.conn.SetDeadline(dl) // the zero time when there is none
		if ctx.Err() != nil {
			c.interrupt() // cancelled in between: AfterFunc's deadline was just undone
		}
	}
	resp.Body = &peerBody{c: c, rc: resp.Body, ctx: ctx, stop: stop, left: resp.ContentLength, keep: !resp.Close}
	return resp, false, nil
}

// writeRequest writes the request's head and a small body in one
// write, a large body after it, uncopied.
func (c *peerClientConn) writeRequest(req *http.Request, target, id string, body io.Reader, n int64) error {
	b := append(c.wbuf[:0], req.Method...)
	b = append(append(append(b, ' '), target...), " HTTP/1.1\r\nHost: "...)
	b = append(append(b, req.URL.Host...), "\r\n"...)
	if id != "" {
		b = append(append(append(b, obs.HeaderRequestID+": "...), id...), "\r\n"...)
	}
	if body != nil {
		b = append(strconv.AppendInt(append(b, "Content-Length: "...), n, 10), "\r\n"...)
	}
	b = append(b, "\r\n"...)
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

// peerBody is a response's body: http.ReadResponse's, which knows the
// answer's framing, watched for its end so that Close knows whether
// the connection may serve another call.
type peerBody struct {
	c      *peerClientConn
	rc     io.ReadCloser
	ctx    context.Context
	stop   func() bool // releases the cancellation hook; nil when there is none
	left   int64       // declared bytes not yet read; negative when none were declared
	keep   bool        // the answer did not say Connection: close
	eof    bool
	closed bool
}

func (b *peerBody) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	k, err := b.rc.Read(p)
	b.left -= int64(k)
	if err == io.EOF {
		b.eof = true
	} else if err != nil {
		err = contextErr(b.ctx, err)
	}
	return k, err
}

// Close pools the connection if the response ended cleanly: its body
// was read to its end (a caller that read exactly the declared length
// has not asked for the EOF), the answer did not say Connection: close,
// and the call was never interrupted. Anything else — a body left
// unread, a broken answer, an interrupted call — closes the connection.
func (b *peerBody) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	clean := (b.eof || b.left == 0) && b.keep
	if b.stop != nil && !b.stop() {
		clean = false // interrupted: the deadline is in the past
	}
	if clean {
		b.c.t.put(b.c)
	} else {
		b.c.close()
	}
	return nil
}
