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
	"sync/atomic"
	"time"

	"repro/internal/guard"
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

	date  atomic.Pointer[dateLine] // the Date header's value, formatted once a second
	state guard.Locked[loopState]
}

// loopState is what a loop's lock guards.
type loopState struct {
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
	st := l.state.Lock()
	defer l.state.Unlock()
	if st.closed {
		return false
	}
	if st.listeners == nil {
		st.listeners = map[*net.Listener]struct{}{}
	}
	st.listeners[ln] = struct{}{}
	return true
}

func (l *Loop) untrack(ln *net.Listener) {
	delete(l.state.Lock().listeners, ln)
	l.state.Unlock()
}

func (l *Loop) shut() bool {
	closed := l.state.Lock().closed
	l.state.Unlock()
	return closed
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
	st := l.state.Lock()
	st.closed = true
	for ln := range st.listeners {
		(*ln).Close()
	}
	conns := make([]*conn, 0, len(st.conns))
	for c := range st.conns {
		conns = append(conns, c)
	}
	l.state.Unlock()
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
	st := l.state.Lock()
	defer l.state.Unlock()
	if st.closed {
		return false
	}
	if st.conns == nil {
		st.conns = map[*conn]struct{}{}
	}
	st.conns[c] = struct{}{}
	if !st.watchdog {
		st.watchdog = true
		go l.watch()
	}
	return true
}

func (l *Loop) remove(c *conn) {
	delete(l.state.Lock().conns, c)
	l.state.Unlock()
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
		st := l.state.Lock()
		if len(st.conns) == 0 {
			st.watchdog = false
			l.state.Unlock()
			return
		}
		for c := range st.conns {
			c.tick(now)
		}
		l.state.Unlock()
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

	draining atomic.Bool // set under the lock; read without it when an answer's head is built

	state guard.Locked[connState]
}

// connState is what a connection's lock guards.
type connState struct {
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
	st := c.state.Lock()
	cancel, hijacked := st.cancel, st.hijacked
	st.cancel = nil
	c.state.Unlock()
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
	st := c.state.Lock()
	defer c.state.Unlock()
	if c.draining.Load() {
		return false
	}
	if st.phase != phaseNew {
		st.seq++
	}
	st.phase = phaseHeader
	return true
}

// begin marks a request active and returns its context. bodyRead says
// the request has no body left on the connection.
func (c *conn) begin(bodyRead bool) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(c.base)
	st := c.state.Lock()
	st.phase, st.cancel, st.bodyRead = phaseActive, cancel, bodyRead
	st.seq++
	c.state.Unlock()
	return ctx, cancel
}

// readBody notes that the active request's body has been read to its
// end: from now on the hang-up watch may read the connection.
func (c *conn) readBody() {
	c.state.Lock().bodyRead = true
	c.state.Unlock()
}

// end marks the active request done and stops watching the connection,
// reporting whether it may serve another: not once a drain has begun.
func (c *conn) end() bool {
	st := c.state.Lock()
	st.cancel()
	watching := st.watching
	st.phase, st.cancel, st.watching = phaseIdle, nil, nil
	st.seq++
	c.state.Unlock()
	c.unwatch(watching)
	return !c.draining.Load()
}

// hijack hands the connection to a handler: it is not watched, served
// or closed by the loop again.
func (c *conn) hijack() {
	st := c.state.Lock()
	watching := st.watching
	st.hijacked, st.watching = true, nil
	c.state.Unlock()
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
	st := c.state.Lock()
	defer c.state.Unlock()
	if st.seq != st.seen || st.since.IsZero() {
		st.seen, st.since = st.seq, now
		return
	}
	switch st.phase {
	case phaseIdle:
		if now.Sub(st.since) >= idleTimeout {
			c.nc.Close()
		}
	case phaseNew, phaseHeader:
		if now.Sub(st.since) >= headerTimeout {
			c.nc.Close()
		}
	case phaseActive:
		if st.watching == nil && st.bodyRead && !st.hijacked && now.Sub(st.since) >= watchAfter {
			st.watching = make(chan struct{})
			go c.watchHangUp(st.watching, st.cancel)
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
	st := c.state.Lock()
	defer c.state.Unlock()
	c.draining.Store(true)
	if st.phase == phaseIdle || st.phase == phaseNew {
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
