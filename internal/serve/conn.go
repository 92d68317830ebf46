package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The bounds a served connection meets: net/http's ReadHeaderTimeout
// and IdleTimeout at the values xpathserve and xpathrouter serve with.
const (
	// headerTimeout bounds the reading of a request's head, counted
	// from the accept or from the first byte after an idle wait.
	headerTimeout = 10 * time.Second
	// idleTimeout bounds the wait for the next request.
	idleTimeout = 2 * time.Minute
	// watchAfter is the watchdog's period: about how long a request
	// runs before its connection is watched for the client hanging up.
	watchAfter = 10 * time.Millisecond
)

// phase is what a connection is doing, as the watchdog sees it.
type phase uint8

const (
	phaseNew    phase = iota // accepted, no byte yet: headerTimeout from the accept
	phaseHeader              // reading a request's head: headerTimeout
	phaseIdle                // waiting for the next request: idleTimeout
	phaseActive              // a handler runs: watched for a hang-up after watchAfter
)

// Loop serves HTTP/1.1 connections: each accepted connection is read,
// dispatched and answered on a goroutine of its own, one request at a
// time (see "How a request reaches the surface" in the package
// comment). The Loop is also the registry of what it serves — one
// watchdog enforces the header and idle bounds and watches long
// requests for a hang-up, one drain (Shutdown) ends them.
type Loop struct {
	h   http.Handler
	log *slog.Logger // where a handler panic is logged; nil: slog.Default()

	date atomic.Pointer[dateLine] // the Date header's value, formatted once a second

	mu        sync.Mutex
	conns     map[*conn]struct{}
	listeners map[*net.Listener]struct{}
	closed    bool // Shutdown has begun: nothing new is served
	watchdog  bool // the watchdog runs
}

// NewLoop returns a loop that serves h, logging handler panics to log
// (nil: slog.Default()).
func NewLoop(h http.Handler, log *slog.Logger) *Loop { return &Loop{h: h, log: log} }

// Serve accepts connections on ln and serves each until Shutdown,
// when it returns http.ErrServerClosed, or until Accept fails for good.
func (l *Loop) Serve(ln net.Listener) error {
	if !l.track(&ln) {
		ln.Close()
		return http.ErrServerClosed
	}
	defer l.untrack(&ln)
	var delay time.Duration // backoff after a temporary Accept error, as net/http's
	for {
		nc, err := ln.Accept()
		if err != nil {
			if l.shut() {
				return http.ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		c := l.newConn(nc)
		if !l.add(c) {
			nc.Close()
			continue
		}
		go c.serve()
	}
}

// track registers a listener for Shutdown to close, unless Shutdown
// has begun.
func (l *Loop) track(ln *net.Listener) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	if l.listeners == nil {
		l.listeners = map[*net.Listener]struct{}{}
	}
	l.listeners[ln] = struct{}{}
	return true
}

func (l *Loop) untrack(ln *net.Listener) {
	l.mu.Lock()
	delete(l.listeners, ln)
	l.mu.Unlock()
}

func (l *Loop) shut() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

func (l *Loop) logger() *slog.Logger {
	if l.log != nil {
		return l.log
	}
	return slog.Default()
}

// Shutdown stops accepting, closes every idle connection at once and
// each busy one as soon as its request has been answered, and returns
// when all are closed. If ctx ends first, the rest are closed
// mid-request and ctx's error is returned.
func (l *Loop) Shutdown(ctx context.Context) error {
	l.mu.Lock()
	l.closed = true
	for ln := range l.listeners {
		(*ln).Close()
	}
	conns := make([]*conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	for _, c := range conns {
		c.drain()
	}
	for _, c := range conns {
		select {
		case <-c.done:
		case <-ctx.Done():
			for _, c := range conns {
				c.nc.Close()
			}
			return ctx.Err()
		}
	}
	return nil
}

func (l *Loop) newConn(nc net.Conn) *conn {
	c := &conn{l: l, nc: nc, done: make(chan struct{})}
	c.lr.nc, c.lr.remain = nc, math.MaxInt64
	c.br = bufio.NewReader(&c.lr)
	if a := nc.RemoteAddr(); a != nil {
		c.remote = a.String()
	}
	c.base = context.WithValue(context.Background(), http.LocalAddrContextKey, nc.LocalAddr())
	c.hw.c, c.hw.header = c, http.Header{}
	return c
}

func (l *Loop) add(c *conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	if l.conns == nil {
		l.conns = map[*conn]struct{}{}
	}
	l.conns[c] = struct{}{}
	if !l.watchdog {
		l.watchdog = true
		go l.watch()
	}
	return true
}

func (l *Loop) remove(c *conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

// watch is the watchdog: it ticks every connection until none is left.
func (l *Loop) watch() {
	t := time.NewTicker(watchAfter)
	defer t.Stop()
	for range t.C {
		// The clock, not the tick's time: a tick received late is
		// followed by one at once, and two ticks must be watchAfter
		// apart to say a request has run that long.
		now := time.Now()
		l.mu.Lock()
		if len(l.conns) == 0 {
			l.watchdog = false
			l.mu.Unlock()
			return
		}
		for c := range l.conns {
			c.tick(now)
		}
		l.mu.Unlock()
	}
}

// conn is one served connection. serve reads a request, runs it and
// answers it, one request at a time, on the connection's own goroutine:
// no goroutine is handed a request (a handoff per request costs as much
// CPU as the rest of a small one), and nothing reads in the background
// while a request runs.
//
// A request learns that its client hung up through its context:
// cancelled when a write fails, and, once the request has run for
// about watchAfter with its body read, as soon as a read of the
// connection sees it close (watchHangUp, started by the watchdog).
// net/http reads in the background during every request; one that is
// answered in microseconds does not need to, and a deadline or a timer
// per request costs the runtime's poller.
type conn struct {
	l      *Loop
	nc     net.Conn
	lr     connReader // under br
	br     *bufio.Reader
	base   context.Context
	remote string
	hw     httpWriter // reused: a connection serves one request at a time
	done   chan struct{}

	lastMethod string

	draining atomic.Bool // set under mu; read without it when an answer's head is built

	mu       sync.Mutex
	phase    phase
	cancel   context.CancelFunc // the active request's
	bodyRead bool               // the active request's body has been read to its end
	hijacked bool               // a handler took the connection over
	seq      uint64             // phases entered
	seen     uint64             // the seq at the watchdog's last tick
	since    time.Time          // when the watchdog first saw seq
	watching chan struct{}      // closed when watchHangUp's read returns; nil when none runs
}

func (c *conn) serve() {
	defer c.exit()
	for c.await() && c.serveHTTP() {
	}
}

// exit ends the connection: a handler's panic is recovered and logged
// (silently for http.ErrAbortHandler, the deliberate abort), the active
// request cancelled, and the connection closed unless a handler
// hijacked it.
func (c *conn) exit() {
	if p := recover(); p != nil && p != http.ErrAbortHandler {
		buf := make([]byte, 64<<10)
		buf = buf[:runtime.Stack(buf, false)]
		c.l.logger().Error("handler panic", "remote", c.remote, "panic", fmt.Sprint(p), "stack", string(buf))
	}
	c.mu.Lock()
	cancel, hijacked := c.cancel, c.hijacked
	c.cancel = nil
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	c.l.remove(c)
	if !hijacked {
		c.nc.Close()
	}
	close(c.done)
}

// await waits for the next request's first byte and reports whether to
// read the request: not once a drain has begun. The first head on a
// connection stays bounded from the accept.
func (c *conn) await() bool {
	if _, err := c.br.Peek(1); err != nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining.Load() {
		return false
	}
	if c.phase != phaseNew {
		c.seq++
	}
	c.phase = phaseHeader
	return true
}

// begin marks a request active and returns its context. bodyRead says
// the request has no body left on the connection.
func (c *conn) begin(bodyRead bool) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(c.base)
	c.mu.Lock()
	c.phase, c.cancel, c.bodyRead = phaseActive, cancel, bodyRead
	c.seq++
	c.mu.Unlock()
	return ctx, cancel
}

// readBody notes that the active request's body has been read to its
// end: from now on the hang-up watch may read the connection.
func (c *conn) readBody() {
	c.mu.Lock()
	c.bodyRead = true
	c.mu.Unlock()
}

// end marks the active request done and stops watching the connection,
// reporting whether it may serve another: not once a drain has begun.
func (c *conn) end() bool {
	c.mu.Lock()
	c.cancel()
	watching := c.watching
	c.phase, c.cancel, c.watching = phaseIdle, nil, nil
	c.seq++
	c.mu.Unlock()
	c.unwatch(watching)
	return !c.draining.Load()
}

// hijack hands the connection to a handler: it is not watched, served
// or closed by the loop again.
func (c *conn) hijack() {
	c.mu.Lock()
	watching := c.watching
	c.hijacked, c.watching = true, nil
	c.mu.Unlock()
	c.unwatch(watching)
}

// unwatch interrupts a running watchHangUp's read and waits for it: the
// connection is the caller's again.
func (c *conn) unwatch(watching chan struct{}) {
	if watching != nil {
		c.nc.SetReadDeadline(aLongTimeAgo)
		<-watching
		c.nc.SetReadDeadline(time.Time{})
	}
}

// tick is the watchdog's look at the connection. It closes one that
// has waited for the next request longer than idleTimeout, or read one
// head for longer than headerTimeout, and starts watchHangUp on a
// request it has seen active for at least watchAfter, once that
// request's body has been read.
func (c *conn) tick(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seq != c.seen || c.since.IsZero() {
		c.seen, c.since = c.seq, now
		return
	}
	switch c.phase {
	case phaseIdle:
		if now.Sub(c.since) >= idleTimeout {
			c.nc.Close()
		}
	case phaseNew, phaseHeader:
		if now.Sub(c.since) >= headerTimeout {
			c.nc.Close()
		}
	case phaseActive:
		if c.watching == nil && c.bodyRead && !c.hijacked && now.Sub(c.since) >= watchAfter {
			c.watching = make(chan struct{})
			go c.watchHangUp(c.watching, c.cancel)
		}
	}
}

// watchHangUp reads the connection while a long request runs. The
// client has sent its request whole, so the read returns when it closes
// the connection — which cancels the request — when it sends the next
// request early (that byte stays buffered for serve), or when unwatch
// interrupts it.
func (c *conn) watchHangUp(watching chan struct{}, cancel context.CancelFunc) {
	defer close(watching)
	if _, err := c.br.Peek(1); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		cancel()
	}
}

// drain closes the connection now if it waits for a request, else once
// its request has been answered.
func (c *conn) drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining.Store(true)
	if c.phase == phaseIdle || c.phase == phaseNew {
		c.nc.Close()
	}
}

// connReader is the connection under a served connection's
// bufio.Reader. While a request's head is read it allows only
// remain more bytes, as net/http's connReader does, so a head past the
// bound reads as the end of input and is answered 431.
type connReader struct {
	nc     net.Conn
	remain int64
}

func (r *connReader) Read(p []byte) (int, error) {
	if r.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.remain {
		p = p[:r.remain]
	}
	n, err := r.nc.Read(p)
	r.remain -= int64(n)
	return n, err
}
