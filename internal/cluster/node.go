// Package cluster takes the serving stack multi-process around an
// explicit, versioned placement abstraction. Ring is the placement
// layer: a canonically ordered peer list plus a generation number,
// partitioned by FNV-1a over the document name (KeyShard). On top of it
// sit Node, the client of one peer's HTTP document and query API; a
// Router that forwards /query to the owning node (with replica retry,
// an answer cache keyed by document version, and drain-mode fallback to
// an old ring mid-migration), mirrors registrations to ring successors
// at the owner-assigned version, and fans /batch out scatter-gather
// style with one stream per owning node; and Reshard
// (cmd/xpathreshard), which moves a corpus between rings idempotently,
// preserving versions. Every failover — replica retry, drain fallback,
// a write passing a dead owner — is one loop, Router.walk, and every
// request to a peer one round trip, Node.roundTrip.
//
// The layering is store (memory accounting + versions) →
// engine (compile cache + evaluation) → serve (wire format) → cluster
// (this package: multi-process routing). A single-node deployment is
// the degenerate 1-peer case of the router.
//
// # What the router reads of an answer
//
// An answer — a /query body, a /batch line — crosses the router as the
// backend's bytes. (document → version) is the key an answer is right
// under: it is right iff it is the answer for the version it reports,
// so version label and value must reach the client, and the answer
// cache, exactly as the backend paired them. The router therefore
//
//   - parses the envelope: serve.ScanEnvelope reads the members the
//     wire layout (internal/serve/encode.go) puts in front of the value
//     — index, doc, missing, version — which is all that routing,
//     re-dispatch and cache keying need, and where the answer proper
//     starts (Body) and whether it is a value;
//   - never parses the value: it is checked to be JSON (json.Valid; a
//     peer body that is not a JSON object is ErrUnavailable, never
//     relayed) and copied;
//   - rewrites only what it owns: a line's job index (backend-local →
//     global), a doc the backend left out, and "node" (and "drained")
//     spliced in front of the closing brace — one splicer,
//     Router.relayAnswer, for /query bodies and /batch lines. The
//     bytes it sends are the bytes the cache keeps: a /query body as
//     sent, a batch line's answer proper — '{' + line[Body:End] and
//     the node tag, which the layout makes the /query body of the same
//     answer. So a hit is a lookup and a Write on both paths: /query
//     writes the entry, /batch writes its own index, doc and request_id
//     and then the entry past its brace, the bytes a relay of the line
//     would have sent. A value line at a version fills the entry as a
//     200 /query answer does; error, missing and drained lines never
//     do. Lines it makes up itself (a job it could not place, a stream
//     that died) are serve.BatchLine values through serve's encoder;
//   - still decodes where it must look inside: ?trace=1 answers (typed,
//     value and trace kept raw), to graft the backend's span tree under
//     its own forward span, and the admin endpoints (/documents,
//     /stats, /health), which merge or aggregate what peers report.
//
// # What the router reads of a request
//
// The same key governs the other direction. A registration is a
// document on its way to an owner and, at the version the owner gives
// it, to the replicas; a copy is right iff it is the owner's bytes
// under the owner's version. A decode and re-encode in the router
// merely hopes the bytes come out the same; forwarding them guarantees
// it. So of a POST /documents body the router
//
//   - reads the envelope: serve.ScanRequest yields the name (decoded —
//     placement hashes it), the xml member as its raw token (looked at
//     only to see it is a non-empty string) and whether a version
//     member is present; the scan also vouches that the body is one
//     JSON object of exactly these members, which is what makes the
//     splice below sound;
//   - never unescapes the document: the owner is sent the client's
//     bytes untouched (Node.PutDocumentBody). Two rare bodies are put
//     together again first, from the tokens or from what encoding/json
//     decodes: one carrying a client-echoed version, which must not
//     reach a backend (it would be skipped as a stale mirror write
//     under a 200), and one the scanner declined (serve's "Requests"
//     contract: the fall-through is json.Unmarshal, as before);
//   - writes only what it owns: each mirror write is the owner's body
//     with ,"version":N — the version the owner's reply reported —
//     spliced in front of the closing brace (registration.mirrorBody),
//     tagAnswer in the other direction; a reconciliation round splices
//     the raised version into the same bytes. The owner's reply
//     {name, nodes, version} is read with the same scanner.
//
// /query and /batch bodies are read with the scanner too (reflection
// was 6.7 µs of a 60-byte body), and the requests the router sends —
// {doc, query}, {jobs: [...]} — are appended by serve's encoder, not
// marshalled. Repair and reshard are one convergence pass
// (converge.go; a reshard is the repair pass run onto a new ring),
// which writes the document string it fetched through
// Node.PutDocumentAt on that same encoder, at the fetched version.
//
// # How a request reaches a peer
//
// Every call is Node.roundTrip through one http.Client whose transport
// is serve.PeerTransport: keep-alive HTTP/1.1 on pooled connections,
// served on the backend by the same connection loop and surface as any
// client (fault injector, obs.Middleware, MaxBytesReader, mux), so
// statuses, bytes, metrics, logs and traces are the same. A test's fake
// peer is a plain http.Handler.
//
//   - Wire. A call is one write: request line, Host, X-Request-Id when
//     set, Content-Length when there is a body, and a body of up to
//     32 KB (a larger one follows). The response is read by
//     http.ReadResponse; a /batch arrives chunked, one chunk per flush,
//     so it still streams in bursts. A target or request ID holding a
//     byte an HTTP/1.1 head cannot carry (CR, LF, other controls) fails
//     the call before anything is written.
//   - Pooling. One connection carries one call at a time; up to 16 idle
//     ones are kept per node, each for up to 90 s. A connection goes
//     back to the pool only when its body was read to its end, the call
//     was never interrupted, and the answer did not say Connection:
//     close (a draining backend says it): a stream the caller
//     abandoned, a body refused unread, a call cut short are closed. A
//     call that fails on a pooled connection before any response byte
//     (the backend closed it while idle: a restart, a drain) is retried
//     once on a fresh one.
//   - Deadlines. The caller's goroutine writes and reads; there is no
//     per-connection goroutine. Dial and response head are bounded by
//     the node timeout and the call's deadline, whichever is sooner;
//     after the head only the call's deadline holds: a unary call's is
//     its carved share (resilience.CarveAttempt), set on the connection
//     (SetDeadline), and a stream has none but its caller's.
//   - Cancellation. Cancelling a call's context interrupts its
//     connection at once (context.AfterFunc), which is then closed. The
//     backend cancels the request when a write to the router fails or,
//     once it has run 10 ms, when it sees the connection close — so a
//     cancelled router stops a backend /batch within a line.
//   - Bounds. A request body is bounded by the backend's body bound
//     (413), a response by responseLimit; an answer http.ReadResponse
//     cannot read fails the call as ErrUnavailable and closes the
//     connection.
package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/store"
)

// ErrUnavailable is returned when a peer cannot be reached at all:
// connection refused, DNS failure, timeout before a response. It is
// the signal that triggers replica retry in the router.
var ErrUnavailable = errors.New("cluster: peer unavailable")

// ErrBreakerOpen is returned when the peer's circuit breaker is open:
// the call failed fast without touching the peer. It wraps
// ErrUnavailable so replica retry moves on to the next candidate.
var ErrBreakerOpen = fmt.Errorf("%w: circuit breaker open", ErrUnavailable)

// ErrOverloaded is returned when the peer's in-flight bound is full
// (load shedding). It wraps ErrUnavailable so replica retry moves on.
var ErrOverloaded = fmt.Errorf("%w: peer in-flight limit reached", ErrUnavailable)

// ErrRetryBudget is returned by the router when its retry budget
// denies another attempt. Deliberately NOT ErrUnavailable: an
// exhausted budget must stop the retry chain, not advance it.
var ErrRetryBudget = errors.New("cluster: retry budget exhausted")

// ErrNotFound is returned when a peer answered 404 for a document.
var ErrNotFound = errors.New("cluster: document not found on peer")

// ErrPeer is returned when a peer answered an error status this
// package has no more specific mapping for; the wrapped message
// carries the peer's own error text.
var ErrPeer = errors.New("cluster: peer error")

// DefaultTimeout bounds unary calls to a peer when no timeout is
// configured.
const DefaultTimeout = 10 * time.Second

// responseLimit bounds how much of a peer response is read. JSON
// escaping inflates markup-dense XML up to ~6× over the serve layer's
// 32MB request cap, so this sits far above any legitimate response;
// crossing it is reported as an error, never silently truncated (a
// truncated document must not read as a smaller document).
const responseLimit = 256 << 20

var errOversizeResponse = errors.New("cluster: peer response exceeds read limit")

// readBody reads a peer response fully, failing with
// errOversizeResponse instead of truncating when the body exceeds limit
// bytes. A declared Content-Length sizes the buffer exactly (and
// refuses an oversized body before reading any of it).
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	switch n := resp.ContentLength; {
	case n > limit:
		return nil, fmt.Errorf("%w (%d bytes)", errOversizeResponse, limit)
	case n >= 0:
		buf := make([]byte, n)
		_, err := io.ReadFull(resp.Body, buf)
		return buf, err
	}
	buf, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(buf)) > limit {
		return nil, fmt.Errorf("%w (%d bytes)", errOversizeResponse, limit)
	}
	return buf, nil
}

// jsonObject reports whether b is one valid JSON object — the check
// every answer relayed unparsed must pass first. xpathserve writes no
// whitespace in front of the brace, so neither is accepted here.
func jsonObject(b []byte) bool {
	return len(b) > 0 && b[0] == '{' && json.Valid(b)
}

// Node is one backend xpathserve process: a base URL plus a dedicated
// client whose transport (serve.PeerTransport) keeps connections to
// that peer pooled across requests. All methods are safe
// for concurrent use.
type Node struct {
	name string // host:port, used as the "node" tag on routed results
	base string // normalized base URL without trailing slash

	// client carries every call, unary and streamed alike; the
	// transport bounds dial and response head by the timeout and the
	// rest by the call's context (see "How a request reaches a peer").
	client *http.Client

	// timeout is the flat per-attempt bound; do carves each attempt's
	// deadline as min(timeout, remaining caller deadline / attempts
	// left) via resilience.CarveAttempt.
	timeout time.Duration

	// br fails calls fast while the peer is misbehaving; maxInflight
	// bounds concurrent calls (0 = unbounded), shedding the excess.
	// Both are optional: the zero Node admits everything.
	br          *resilience.Breaker
	maxInflight int64
	inflight    atomic.Int64
	shed        atomic.Uint64

	// downAfter is how many consecutive transport failures mark the
	// node unhealthy (hysteresis against probe flapping); one success
	// marks it back up.
	downAfter  int32
	failStreak atomic.Int32

	healthy   atomic.Bool
	lastErr   atomic.Value // string
	lastCheck atomic.Int64 // unix nanos of the last health probe
}

// NewNode creates a Node for a peer base URL like "http://host:8080".
// A zero timeout takes DefaultTimeout.
func NewNode(raw string, timeout time.Duration) (*Node, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	u, err := url.Parse(strings.TrimRight(raw, "/"))
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %q: %v", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("cluster: peer %q: want http(s)://host[:port]", raw)
	}
	n := &Node{
		name: u.Host,
		base: u.String(),
		//lint:ignore ctxhttp unary deadlines are carved per attempt from the caller's context (resilience.CarveAttempt) instead of one flat Client.Timeout, so a tight client deadline is split across retries rather than silently exceeded; a batch stream legitimately outlives any fixed timeout and is bounded by its context and the transport's dial and response-head timeout
		client:    &http.Client{Transport: serve.NewPeerTransport(timeout)},
		timeout:   timeout,
		downAfter: 1,
	}
	n.healthy.Store(true) // optimistic until a probe or call says otherwise
	return n, nil
}

// SetBreaker attaches a circuit breaker consulted before every call.
// Set it before the node is shared.
func (n *Node) SetBreaker(br *resilience.Breaker) { n.br = br }

// Breaker returns the node's circuit breaker (nil when none).
func (n *Node) Breaker() *resilience.Breaker { return n.br }

// SetDownAfter sets how many consecutive transport failures mark the
// node unhealthy (< 1 is clamped to 1). Set it before the node is
// shared.
func (n *Node) SetDownAfter(k int) {
	if k < 1 {
		k = 1
	}
	n.downAfter = int32(k)
}

// SetMaxInflight bounds concurrent calls to the peer (0 = unbounded);
// excess calls shed with ErrOverloaded. Set it before the node is
// shared.
func (n *Node) SetMaxInflight(m int) { n.maxInflight = int64(m) }

// Shed returns how many calls the in-flight bound has rejected.
func (n *Node) Shed() uint64 { return n.shed.Load() }

// WrapTransport wraps the node's transport — the fault-injection hook
// (resilience.Faults.Transport). Set it before the node is shared.
func (n *Node) WrapTransport(wrap func(http.RoundTripper) http.RoundTripper) {
	n.client.Transport = wrap(n.client.Transport)
}

// admit gates a call on the in-flight bound and the circuit breaker,
// returning the release func for the in-flight slot. The bound is
// checked first so shed calls cannot consume breaker probes.
func (n *Node) admit() (func(), error) {
	if n.maxInflight > 0 && n.inflight.Add(1) > n.maxInflight {
		n.inflight.Add(-1)
		n.shed.Add(1)
		return nil, fmt.Errorf("%w (%s)", ErrOverloaded, n.name)
	}
	release := func() {
		if n.maxInflight > 0 {
			n.inflight.Add(-1)
		}
	}
	if !n.br.Allow() {
		release()
		return nil, fmt.Errorf("%w (%s)", ErrBreakerOpen, n.name)
	}
	return release, nil
}

// breakerFailStatus reports whether a peer's response status counts as
// a breaker failure: 5xx server faults do; application conditions with
// dedicated meanings (404 not found, 507 store full, 413 too large) do
// not — a peer answering those is working.
func breakerFailStatus(status int) bool {
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Name returns the node's display name (host:port) — the "node" tag
// routed results carry.
func (n *Node) Name() string { return n.name }

// URL returns the node's base URL.
func (n *Node) URL() string { return n.base }

// Healthy reports the node's last observed health.
func (n *Node) Healthy() bool { return n.healthy.Load() }

// LastErr returns the most recent transport or health failure ("" when
// none).
func (n *Node) LastErr() string {
	s, _ := n.lastErr.Load().(string)
	return s
}

// statusErr maps a peer's error status to this package's typed errors,
// reusing the store's own sentinel errors where the peer's condition
// is a store condition — a remote full store is store.ErrFull to the
// caller, exactly like a local one.
func (n *Node) statusErr(status int, msg string) error {
	switch status {
	case http.StatusNotFound:
		return fmt.Errorf("%w (%s): %s", ErrNotFound, n.name, msg)
	case http.StatusInsufficientStorage:
		return fmt.Errorf("%w (remote %s): %s", store.ErrFull, n.name, msg)
	case http.StatusRequestEntityTooLarge:
		return fmt.Errorf("%w (remote %s): %s", store.ErrTooLarge, n.name, msg)
	default:
		return &PeerError{Node: n.name, Status: status, Msg: msg}
	}
}

// transportErr maps a failure to reach or read the peer. Only the
// caller's own context keeps its identity: the carved attempt deadline
// tripping (like a slow peer on Go 1.23+, where a tripped
// Client.Timeout also matches context.DeadlineExceeded) is the peer's
// fault — it reads as ErrUnavailable so replica retry fires, feeds the
// breaker, and marks the node unhealthy once downAfter consecutive
// failures accumulate (hysteresis: one lost probe no longer diverts
// writes).
func (n *Node) transportErr(ctx context.Context, what string, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("cluster: node %s: %w", n.name, ctxErr)
	}
	err = fmt.Errorf("%w: %s: %s%v", ErrUnavailable, n.name, what, err)
	n.lastErr.Store(err.Error())
	n.br.OnFailure()
	if n.failStreak.Add(1) >= n.downAfter {
		n.healthy.Store(false)
	}
	return err
}

// roundTrip is the one way a request reaches the peer: admit, send body
// (nil for none) with the request ID, map transport failures
// (transportErr), account the status to health and breaker. A unary
// call (stream nil) runs under resilience.CarveAttempt's share of the
// caller's deadline and reads the body whole. With relay, any status is
// an answer whose body must be one JSON object; otherwise a non-200 is
// the typed error its body names, and a 200 body is returned unparsed
// or, for a stream, handed to stream as it arrives.
func (n *Node) roundTrip(ctx context.Context, method, path string, body []byte, relay bool, stream func(io.Reader) error) (int, []byte, error) {
	release, err := n.admit()
	if err != nil {
		return 0, nil, err
	}
	defer release()
	actx := ctx
	if stream == nil {
		var cancel context.CancelFunc
		actx, cancel = resilience.CarveAttempt(ctx, n.timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, n.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.HeaderRequestID, id) // backend logs, lines and traces carry the router's ID
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, nil, n.transportErr(ctx, "", err)
	}
	defer resp.Body.Close()
	var raw []byte
	if stream == nil || resp.StatusCode != http.StatusOK {
		if raw, err = readBody(resp, responseLimit); errors.Is(err, errOversizeResponse) {
			return 0, nil, fmt.Errorf("%w (%s): %v", ErrPeer, n.name, err)
		} else if err != nil {
			return 0, nil, n.transportErr(ctx, "reading response: ", err)
		}
		if relay && !jsonObject(raw) {
			// Not an xpathserve peer (or a broken one): its bytes are
			// never relayed.
			return 0, nil, n.transportErr(ctx, "", errors.New("response is not a JSON object"))
		}
	}
	if breakerFailStatus(resp.StatusCode) {
		n.br.OnFailure()
	} else { // the peer answered: it is alive
		n.failStreak.Store(0)
		n.healthy.Store(true)
		n.br.OnSuccess()
	}
	switch {
	case !relay && resp.StatusCode != http.StatusOK:
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(raw, &e)
		if e.Error == "" {
			e.Error = strings.TrimSpace(string(raw))
		}
		return 0, nil, n.statusErr(resp.StatusCode, e.Error)
	case stream != nil:
		return 0, nil, stream(resp.Body)
	}
	return resp.StatusCode, raw, nil
}

// do is roundTrip for the admin endpoints, which have no request body
// and whose JSON response is decoded into out (skipped when out is nil).
func (n *Node) do(ctx context.Context, method, path string, out any) error {
	_, raw, err := n.roundTrip(ctx, method, path, nil, false, nil)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// Healthz probes the peer's liveness endpoint, updating the node's
// health state either way.
func (n *Node) Healthz(ctx context.Context) error {
	err := n.do(ctx, http.MethodGet, "/healthz", nil)
	n.lastCheck.Store(time.Now().UnixNano())
	if err == nil {
		n.lastErr.Store("")
	}
	return err
}

// LastCheck returns the time of the most recent health probe (zero
// before the first).
func (n *Node) LastCheck() time.Time {
	ns := n.lastCheck.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// PutDocument registers (or replaces) a document on the peer,
// returning its node count and the version the peer assigned.
func (n *Node) PutDocument(ctx context.Context, name, xml string) (int, uint64, error) {
	return n.PutDocumentAt(ctx, name, xml, 0)
}

// PutDocumentAt registers a document at an explicit version — the
// mirror write of repair and resharding, which hold the document as a
// string (see serve.Server.AddDocumentAt). A zero version lets the peer
// self-assign. It returns the node count and the version now resident
// under name on the peer (which is the resident version, not ver, when
// the mirror write was stale).
func (n *Node) PutDocumentAt(ctx context.Context, name, xml string, ver uint64) (int, uint64, error) {
	return n.PutDocumentBody(ctx, serve.AppendDocumentRequest(nil, name, xml, ver))
}

// PutDocumentBody registers a document from an already encoded POST
// /documents body — the router's write path, which forwards the
// client's bytes and never holds the document as a string. It returns
// what PutDocumentAt returns.
func (n *Node) PutDocumentBody(ctx context.Context, body []byte) (int, uint64, error) {
	_, raw, err := n.roundTrip(ctx, http.MethodPost, "/documents", body, false, nil)
	if err != nil {
		return 0, 0, err
	}
	// The reply is serve.DocumentResponse as serve appends it; anything
	// else that is JSON is still read, the slow way.
	var name []byte
	var nodes, ver uint64
	if serve.ScanRequest(raw, serve.Member{Key: "name", Raw: &name}, serve.Member{Key: "nodes", Uint: &nodes}, serve.Member{Key: "version", Uint: &ver}) {
		return int(nodes), ver, nil
	}
	var out serve.DocumentResponse
	err = json.Unmarshal(raw, &out)
	return out.Nodes, out.Version, err
}

// GetDocument fetches one document, serialized XML included.
func (n *Node) GetDocument(ctx context.Context, name string) (serve.DocInfo, error) {
	var out serve.DocInfo
	err := n.do(ctx, http.MethodGet, "/documents?name="+url.QueryEscape(name), &out)
	return out, err
}

// DeleteDocument evicts a document from the peer.
func (n *Node) DeleteDocument(ctx context.Context, name string) error {
	return n.do(ctx, http.MethodDelete, "/documents?name="+url.QueryEscape(name), nil)
}

// Documents lists the peer's documents (without XML).
func (n *Node) Documents(ctx context.Context) ([]serve.DocInfo, error) {
	var out struct {
		Documents []serve.DocInfo `json:"documents"`
	}
	err := n.do(ctx, http.MethodGet, "/documents", &out)
	return out.Documents, err
}

// NodeStats is a peer's /stats response: the raw JSON for relaying
// plus the store section parsed for aggregation.
type NodeStats struct {
	Raw   json.RawMessage
	Store store.Stats
}

// Stats fetches the peer's statistics.
func (n *Node) Stats(ctx context.Context) (NodeStats, error) {
	var raw json.RawMessage
	if err := n.do(ctx, http.MethodGet, "/stats", &raw); err != nil {
		return NodeStats{}, err
	}
	var parsed struct {
		Store store.Stats `json:"store"`
	}
	json.Unmarshal(raw, &parsed)
	return NodeStats{Raw: raw, Store: parsed.Store}, nil
}

// Query evaluates one query on the peer, returning the peer's HTTP
// status and its response body, unparsed: the router relays both,
// reading no more of the body than its envelope. A non-nil error means
// the peer was not reached, or answered something that is not a JSON
// object; application-level failures (unknown document, bad query)
// come back as a status plus the peer's response body, exactly as a
// direct client would see them. With trace set the peer evaluates
// under ?trace=1 and its response carries the backend's span tree for
// the router to splice into its own.
func (n *Node) Query(ctx context.Context, doc, query string, trace bool) (int, []byte, error) {
	path := "/query"
	if trace {
		path += "?trace=1"
	}
	buf := serve.AppendQueryRequest(make([]byte, 0, len(doc)+len(query)+32), doc, query)
	return n.roundTrip(ctx, http.MethodPost, path, buf, true, nil)
}

// readLine returns br's next line, '\n' included. A line longer than
// br's buffer is assembled in *spill; either way the bytes are valid
// until the next call. At the end of the stream it returns what
// unterminated bytes were left, with the error.
func readLine(br *bufio.Reader, spill *[]byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	*spill = append((*spill)[:0], line...)
	for err == bufio.ErrBufferFull {
		if len(*spill) > responseLimit {
			return nil, errOversizeResponse
		}
		line, err = br.ReadSlice('\n')
		*spill = append(*spill, line...)
	}
	return *spill, err
}

// StreamJobs runs a grouped batch on the peer — one NDJSON stream
// spanning every (doc, query) job, however many documents it covers —
// and hands each line to emit as the peer wrote it, newline included,
// in the order the peer streams them (completion order); the bytes are
// emit's only until it returns. Every line is checked to be one JSON
// object and otherwise left unparsed. This is the cluster's
// one-stream-per-node batch transport: the router sends each backend
// exactly the jobs it owns. The request is tied to ctx: cancelling it
// tears the connection down and the peer stops its in-flight
// evaluations at their next checkpoint. A non-200 response comes back
// as a typed error before emit is ever called; a stream that breaks
// off, mid-line or with a line that is not JSON, as ErrUnavailable.
func (n *Node) StreamJobs(ctx context.Context, jobs []serve.BatchJob, emit func(line []byte) error) error {
	_, _, err := n.roundTrip(ctx, http.MethodPost, "/batch", serve.AppendJobsRequest(nil, jobs), false, func(body io.Reader) error {
		br := bufio.NewReaderSize(body, 16<<10) // most lines fit; the rest spill
		var spill []byte
		for {
			line, err := readLine(br, &spill)
			blank := len(bytes.TrimSpace(line)) == 0
			switch {
			case err == nil && blank:
				continue
			case err == nil && jsonObject(line):
				if err := emit(line); err != nil {
					return err
				}
				continue
			case err == io.EOF && blank:
				return nil
			case err == nil:
				err = errors.New("line is not a JSON object")
			case err == io.EOF:
				err = io.ErrUnexpectedEOF // the stream ended inside a line
			}
			return n.transportErr(ctx, "mid-stream: ", err)
		}
	})
	return err
}
