package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/store"
)

// PeerError is a peer's application-level error response (a status
// this package has no sentinel for): the router relays its status so
// a backend's 400 stays a 400 at the client. It matches ErrPeer under
// errors.Is.
type PeerError struct {
	Node   string
	Status int
	Msg    string
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("cluster: peer %s: status %d: %s", e.Node, e.Status, e.Msg)
}

// Is reports that every PeerError is an ErrPeer.
func (e *PeerError) Is(target error) bool { return target == ErrPeer }

// Options configures a Router.
type Options struct {
	// Retries is how many additional peers (in ring order after the
	// owner) a request is retried on when the owner is unreachable —
	// the -replica-retry flag. 0 means the owner is the only candidate.
	// Reads always probe at least as far as Replicas, so a replication
	// policy implies its own retry budget.
	Retries int
	// Replicas is how many ring successors a registration is mirrored
	// to beyond the owner — the -replicas flag. 0 means writes land on
	// the owner alone.
	Replicas int
	// Generation stamps the router's placement ring (default 1);
	// operators bump it when the peer set changes so placement epochs
	// are tellable apart on /healthz.
	Generation uint64
	// AnswerCacheSize bounds the router's answer cache (entries).
	// 0 means DefaultAnswerCacheSize; negative disables the cache.
	AnswerCacheSize int
	// DrainPeers, when set, is the previous placement ring: a router
	// in drain mode forwards read misses (404s from the current ring)
	// to the old ring, so clients keep their answers while
	// cmd/xpathreshard is still moving documents over.
	DrainPeers []*Node
	// Timeout bounds unary backend calls (default DefaultTimeout).
	// Batch streams are exempt: only their dial and response-header
	// latency are bounded.
	Timeout time.Duration
	// HealthInterval is the period of the background health prober
	// started by Start (default 5s).
	HealthInterval time.Duration
	// MaxBody bounds client request bodies (default
	// serve.DefaultMaxBodyBytes). Size it to match the backends'
	// -max-body: the router must not reject documents its nodes would
	// accept.
	MaxBody int64
	// Logger is the structured logger routed requests report to (nil:
	// slog.Default()). Every line carries the request_id the backends
	// also log, so one grep follows a request across tiers.
	Logger *slog.Logger
	// SlowQuery, when positive, logs the full span tree of any routed
	// request that takes at least this long — the -slow-query flag.
	// While it is set every such request builds a span tree.
	SlowQuery time.Duration
	// DownAfter is how many consecutive transport failures mark a peer
	// down (default 3 — hysteresis so one lost probe no longer diverts
	// writes; a single success marks the peer back up).
	DownAfter int
	// RetryBudget is the token-bucket retry ratio — how many retries
	// each first attempt funds (the -retry-budget flag; 0.1 = one retry
	// per ten requests). 0 disables budgeting (retries unbounded).
	RetryBudget float64
	// BreakerThreshold is how many consecutive failures open a peer's
	// circuit breaker (0: resilience.DefaultBreakerThreshold; negative
	// disables breakers).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before letting
	// probe calls through (0: resilience.DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// RepairInterval is the anti-entropy repair loop's period — the
	// -repair-interval flag. 0 disables repair.
	RepairInterval time.Duration
	// PeerInflight bounds concurrent calls per peer (load shedding;
	// 0 = unbounded). Shed calls answer 503 with Retry-After.
	PeerInflight int
	// Seed seeds the retry backoff's jitter and is handed to fault
	// injection for reproducible chaos runs. 0 derives from the clock.
	Seed int64
}

// Router fronts a placement Ring of backend nodes: documents are
// partitioned by FNV-1a over their names (KeyShard), so a document's
// owning node is computed, never looked up. /documents and /query are
// forwarded to the owner (with replica retry when it is down) and
// registrations are mirrored to the owner's ring successors
// (-replicas), each copy stored at the owner-assigned monotonic version
// so staleness stays detectable. /batch fans out scatter-gather style
// with one NDJSON stream per owning node (not per document), merged
// line by line in completion order, every line tagged with the global
// job index, the document, and the node that produced it — per-source
// provenance in the spirit of annotated query answering. Repeated
// identical queries, as /query or as /batch jobs, are answered from one
// LRU answer cache keyed by (doc, query, version) and invalidated when
// a registration bumps the document's version. A Router over one peer
// is a plain reverse proxy: single-node deployments are the degenerate
// case, not a separate code path.
type Router struct {
	ring *Ring
	old  *Ring // drain-mode fallback ring (nil outside migrations)
	opts Options

	cache *answerCache // nil when disabled

	reg *obs.Registry
	mw  *obs.Middleware

	budget  *resilience.Budget  // retry token bucket (nil: unbounded)
	backoff *resilience.Backoff // jittered retry pacing

	requests    atomic.Uint64 // client requests routed
	retried     atomic.Uint64 // attempts after a request's first (walk)
	replicated  atomic.Uint64 // successful replica mirror writes
	replicaErrs atomic.Uint64 // failed replica mirror writes
	drained     atomic.Uint64 // read misses answered by the old ring

	repairRounds atomic.Uint64 // anti-entropy rounds completed
	repairCopies atomic.Uint64 // replicas re-copied by repair
	repairErrs   atomic.Uint64 // repair copy/listing failures

	draining atomic.Bool // BeginDrain flips /healthz to 503

	stop     chan struct{}
	stopOnce sync.Once
}

// New creates a Router over the given peers (at least one). The peers
// become a canonically ordered placement Ring, so the same peer set
// yields the same placement regardless of argument order.
func New(peers []*Node, opts Options) (*Router, error) {
	if opts.Generation == 0 {
		opts.Generation = 1
	}
	ring, err := NewRing(peers, opts.Generation)
	if err != nil {
		return nil, err
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = 5 * time.Second
	}
	opts.Retries = max(0, min(opts.Retries, ring.Len()-1))
	opts.Replicas = max(0, min(opts.Replicas, ring.Len()-1))
	if opts.MaxBody <= 0 {
		opts.MaxBody = serve.DefaultMaxBodyBytes
	}
	if opts.DownAfter == 0 {
		opts.DownAfter = 3
	}
	r := &Router{ring: ring, opts: opts, stop: make(chan struct{})}
	if len(opts.DrainPeers) > 0 {
		// The old ring keeps the generation before this one.
		old, err := NewRing(opts.DrainPeers, opts.Generation-1)
		if err != nil {
			return nil, fmt.Errorf("drain ring: %w", err)
		}
		r.old = old
	}
	if opts.AnswerCacheSize >= 0 {
		r.cache = newAnswerCache(opts.AnswerCacheSize)
	}
	r.budget = resilience.NewBudget(opts.RetryBudget)
	r.backoff = resilience.NewBackoff(opts.Seed)
	// Attach resilience state to every node this router talks to —
	// current ring and drain ring alike.
	for _, n := range append(r.ring.Peers(), opts.DrainPeers...) {
		n.SetDownAfter(opts.DownAfter)
		n.SetMaxInflight(opts.PeerInflight)
		if opts.BreakerThreshold >= 0 {
			n.SetBreaker(resilience.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown))
		}
	}
	r.initObs()
	return r, nil
}

// BeginDrain puts the router into drain: /healthz answers 503 so load
// balancers stop sending traffic while in-flight requests finish (the
// server's Shutdown handles the listener side).
func (r *Router) BeginDrain() { r.draining.Store(true) }

// beforeAttempt paces one step of a retry chain: attempt 0 funds the
// retry budget and proceeds at once; each later attempt spends a
// token (failing with ErrRetryBudget when the bucket is dry) and then
// waits out the jittered backoff, aborting early if ctx ends.
func (r *Router) beforeAttempt(ctx context.Context, attempt int) error {
	if attempt == 0 {
		r.budget.Deposit()
		return nil
	}
	if !r.budget.Spend() {
		return ErrRetryBudget
	}
	return resilience.Sleep(ctx, r.backoff.Delay(attempt-1))
}

// cand is one peer a request may be served by; drained marks the old
// ring's (drain mode), whose answers are flagged "drained".
type cand struct {
	n       *Node
	drained bool
}

// walk is the router's one failover loop. It tries the candidates in
// order, each peer (URL) once, until try succeeds or says its failure
// may not pass on, and stops when ctx ends. beforeAttempt paces each
// attempt; one on the drain ring is always a retry, as it follows a
// miss on the current ring. Each attempt's context carries the attempts
// left, so resilience.CarveAttempt splits the caller's deadline across
// them. The error reported prefers a live peer's answer (a 404, a full
// store) over transport noise, and a budget denial names that answer as
// a 503: the unasked candidates may hold what the asked ones lacked.
// cands is filtered in place.
func (r *Router) walk(ctx context.Context, cands []cand, try func(context.Context, cand) (next bool, err error)) error {
	uniq := cands[:0]
	for _, c := range cands {
		if !slices.ContainsFunc(uniq, func(u cand) bool { return u.n.URL() == c.n.URL() }) {
			uniq = append(uniq, c)
		}
	}
	var lastErr error
	for i, c := range uniq {
		attempt := i
		if uniq[0].drained {
			attempt++
		}
		err := ctx.Err()
		if err == nil {
			err = r.beforeAttempt(ctx, attempt)
		}
		if err != nil {
			if lastErr != nil {
				err = fmt.Errorf("%w; last attempt: %v", err, lastErr)
			}
			return err
		}
		if attempt > 0 {
			r.retried.Add(1)
		}
		next, err := try(resilience.WithAttemptsLeft(ctx, len(uniq)-i), c)
		if err == nil {
			if c.drained {
				r.drained.Add(1)
			}
			return nil
		}
		if lastErr == nil || !errors.Is(err, ErrUnavailable) {
			lastErr = err
		}
		if !next {
			break
		}
	}
	return lastErr
}

// readNext says whether a read's failure passes on to the next
// candidate: an unreachable peer's does, and so does a live peer's
// "not found" — the document may have failed over to a replica while
// its owner was down, or not have migrated off the old ring yet.
func readNext(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrNotFound)
}

// writeError answers a routed request's terminal error, adding
// Retry-After on the shedding statuses so well-behaved clients pace
// themselves instead of hammering an overloaded fleet.
func (r *Router) writeError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	serve.HTTPError(w, status, "%v", err)
}

// Ring returns the router's placement ring.
func (r *Router) Ring() *Ring { return r.ring }

// Peers returns the router's peer nodes in canonical ring order.
func (r *Router) Peers() []*Node { return r.ring.Peers() }

// Owner returns the node that owns doc under the cluster's
// partitioning function.
func (r *Router) Owner(doc string) *Node { return r.ring.Owner(doc) }

// spread is how far past the owner a request may be served: the
// larger of the retry and replication budgets, so reads always reach
// the nodes writes were mirrored to.
func (r *Router) spread() int { return max(r.opts.Replicas, r.opts.Retries) }

// readCandidates returns the peers a read of doc may be served by: the
// current ring's candidates, then (in drain mode) the old ring's.
func (r *Router) readCandidates(doc string) []cand {
	cands := r.slotCandidates(nil, r.ring, r.ring.OwnerIndex(doc))
	if r.old != nil {
		cands = r.slotCandidates(cands, r.old, r.old.OwnerIndex(doc))
	}
	return cands
}

// slotCandidates appends to dst the peers of ring that may serve the
// owner slot (a job group shares one): the owner and the next spread()
// peers in ring order, known-unhealthy ones moved to the back so a live
// replica is tried before a dead owner (the dead one stays a last
// resort — health information can be stale).
func (r *Router) slotCandidates(dst []cand, ring *Ring, slot int) []cand {
	peers, start := ring.Peers(), len(dst)
	dst = slices.Grow(dst, min(r.spread()+1, len(peers)))
	for i := 0; i <= min(r.spread(), len(peers)-1); i++ {
		dst = append(dst, cand{n: peers[(slot+i)%len(peers)], drained: ring == r.old})
	}
	out := dst[start:]
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].n.Healthy() && !out[j].n.Healthy()
	})
	return dst
}

// Start launches the background health prober and, when
// RepairInterval is positive, the anti-entropy repair loop; Stop ends
// both. Probes run immediately and then every HealthInterval.
func (r *Router) Start() {
	go func() {
		t := time.NewTicker(r.opts.HealthInterval)
		defer t.Stop()
		for {
			r.CheckHealth()
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	if r.opts.RepairInterval > 0 {
		go r.repairLoop()
	}
}

// Stop ends the background health prober and the repair loop.
func (r *Router) Stop() { r.stopOnce.Do(func() { close(r.stop) }) }

// shedTotal sums the per-peer load-shed counters.
func (r *Router) shedTotal() uint64 {
	var total uint64
	for _, n := range r.ring.Peers() {
		total += n.Shed()
	}
	return total
}

// healthyPeers counts the peers whose last observed health is good.
func (r *Router) healthyPeers() int {
	healthy := 0
	for _, n := range r.ring.Peers() {
		if n.Healthy() {
			healthy++
		}
	}
	return healthy
}

// each runs fn once per node, concurrently, and returns when all have:
// the shape of every fan-out that asks each peer once.
func each(nodes []*Node, fn func(*Node)) {
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			fn(n)
		}(n)
	}
	wg.Wait()
}

// CheckHealth probes every peer's /healthz once, concurrently, and
// returns how many are healthy.
func (r *Router) CheckHealth() int {
	each(r.ring.Peers(), func(n *Node) {
		//lint:ignore ctxhttp the background health prober owns its probes; each is bounded by the configured timeout, and Stop ends the loop between rounds
		ctx, cancel := context.WithTimeout(context.Background(), r.opts.Timeout)
		defer cancel()
		n.Healthz(ctx)
	})
	return r.healthyPeers()
}

// statusFor maps a typed backend error to the HTTP status the router
// answers with: sentinel conditions keep their canonical statuses, a
// PeerError relays the backend's own status, and an unreachable peer
// is a 502.
func statusFor(err error) int {
	var pe *PeerError
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, store.ErrFull):
		return http.StatusInsufficientStorage
	case errors.Is(err, store.ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &pe):
		return pe.Status
	case errors.Is(err, ErrBreakerOpen), errors.Is(err, ErrOverloaded), errors.Is(err, ErrRetryBudget):
		// Shedding conditions: the fleet is protecting itself, the
		// request is safe to retry after a pause — 503, not 502.
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnavailable):
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

// Handler returns the router's HTTP handler. The surface mirrors a
// single xpathserve node — /documents, /query, /batch, /stats — so
// clients do not care whether they talk to one node or a fleet; the
// additions are /health (per-peer view plus the ring description) and
// the node/doc tags on routed results.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/documents", r.handleDocuments)
	mux.HandleFunc("/query", r.handleQuery)
	mux.HandleFunc("/batch", r.handleBatch)
	mux.HandleFunc("/stats", r.handleStats)
	mux.HandleFunc("/health", r.handleHealth)
	mux.HandleFunc("/healthz", r.handleHealth)
	mux.Handle("/metrics", r.reg.Handler())
	mux.Handle("/debug/traces", r.mw.Traces.Handler())
	return r.mw.Wrap(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Body != nil {
			req.Body = http.MaxBytesReader(w, req.Body, r.opts.MaxBody)
		}
		r.requests.Add(1)
		mux.ServeHTTP(w, req)
	}))
}

// handleDocuments routes document registration (with replica
// mirroring), fetch and eviction, and merges all peers' listings for
// the bare GET.
func (r *Router) handleDocuments(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodPost:
		body, release, ok := serve.ReadBody(w, req)
		if !ok {
			return
		}
		defer release()
		if reg, ok := readRegistration(w, body); ok {
			r.handleDocumentPut(w, req, reg)
		}
	case http.MethodGet:
		if name := req.URL.Query().Get("name"); name != "" {
			r.handleDocumentGet(w, req, name)
			return
		}
		r.handleDocumentList(w, req)
	case http.MethodDelete:
		name := req.URL.Query().Get("name")
		if name == "" {
			serve.HTTPError(w, http.StatusBadRequest, "name is required")
			return
		}
		r.handleDocumentDelete(w, req, name)
	default:
		serve.HTTPError(w, http.StatusMethodNotAllowed, "POST a {name, xml} object, GET to list (?name= for one), DELETE ?name= to evict")
	}
}

// registration is a client's POST /documents as the router holds it:
// the name, read for placement, and the body the owner is sent — a
// {name, xml} object with no version member, which in all but two rare
// cases is the client's own bytes.
type registration struct {
	name string
	body []byte
}

// readRegistration reads the envelope of a POST /documents body and
// writes the 400 itself when it is not a registration. See "What the
// router reads of a request" in node.go.
func readRegistration(w http.ResponseWriter, body []byte) (registration, bool) {
	var name string
	var xml, version []byte
	scanned := serve.ScanRequest(body,
		serve.Member{Key: "name", String: &name}, serve.Member{Key: "xml", Raw: &xml}, serve.Member{Key: "version", Raw: &version})
	if scanned && len(xml) > 0 && xml[0] != '"' {
		scanned = false // "xml": 7 — encoding/json words the refusal
	}
	// The explicit-version mirror form is backend-internal (the
	// replication and reshard write paths); through the router every
	// registration is a fresh client write. Forwarding a client-echoed
	// version would let the backends silently skip it as a "stale
	// mirror" while the client sees a 200, so a body that has one is
	// put together again without it.
	rebuild := version != nil
	if !scanned {
		// So is a body the scanner will not vouch for, from what
		// encoding/json makes of it — as every registration used to be.
		var req serve.DocumentRequest
		if err := json.Unmarshal(body, &req); err != nil {
			serve.HTTPError(w, http.StatusBadRequest, "invalid JSON: %v", err)
			return registration{}, false
		}
		name, xml, rebuild = req.Name, serve.AppendJSONString(nil, req.XML), true
	}
	if name == "" || len(xml) <= len(`""`) {
		serve.HTTPError(w, http.StatusBadRequest, "both name and xml are required")
		return registration{}, false
	}
	if rebuild {
		out := make([]byte, 0, len(name)+len(xml)+32)
		out = serve.AppendJSONString(append(out, `{"name":`...), name)
		out = append(append(out, `,"xml":`...), xml...)
		body = append(out, '}')
	}
	return registration{name: name, body: body}, true
}

// mirrorBody is the mirror write of a registration: the owner's body
// with the version the owner assigned spliced in front of its closing
// brace — tagAnswer in the other direction. The replica is thereby sent
// the owner's version paired with the very bytes the owner parsed.
func (reg registration) mirrorBody(ver uint64) []byte {
	end := bytes.LastIndexByte(reg.body, '}')
	out := make([]byte, 0, end+32)
	out = append(append(out, reg.body[:end]...), `,"version":`...)
	return append(strconv.AppendUint(out, ver, 10), '}')
}

// handleDocumentPut is the write path: the document lands on its
// owner (failing over along the ring when the owner is unreachable),
// then the owner-assigned version is mirrored to the next Replicas
// ring successors so -replica-retry reads hit a warm copy. Replica
// failures degrade the write, never fail it: the primary copy is
// durable, the response lists which mirrors took, and the health
// prober plus a later reshard reconcile the rest.
func (r *Router) handleDocumentPut(w http.ResponseWriter, req *http.Request, reg registration) {
	// Writes walk the ring in placement order — owner first, NOT
	// health-sorted like reads: a stale "unhealthy" mark on a live
	// owner must not divert the write to a successor, where (without
	// replication) it would be invisible to owner-first reads.
	var cands []cand
	for _, n := range r.ring.Replicas(reg.name, r.spread()) {
		cands = append(cands, cand{n: n})
	}
	err := r.walk(req.Context(), cands, func(ctx context.Context, c cand) (bool, error) {
		nodes, ver, err := c.n.PutDocumentBody(ctx, reg.body)
		if err != nil {
			// Only an unreachable owner is passed over: a live owner's
			// application answer (parse error, full store) retried past
			// it would fork the document.
			return errors.Is(err, ErrUnavailable), err
		}
		out := serve.DocumentResponse{Name: reg.name, Node: c.n.Name(), Nodes: nodes}
		if r.opts.Replicas > 0 {
			ver, out.Replicas, out.ReplicaErrors = r.replicate(req.Context(), reg, ver, c.n)
		}
		out.Version = ver
		if r.cache != nil {
			r.cache.bump(reg.name, ver)
		}
		serve.WriteJSONBytes(w, http.StatusOK, serve.AppendDocumentResponse(nil, &out))
		return false, nil
	})
	if err != nil {
		r.writeError(w, err)
	}
}

// documentReply is a single-document GET through the router: the
// holder's serve.DocInfo with XML, tagged like a relayed answer.
type documentReply struct {
	Name    string `json:"name"`
	Nodes   int    `json:"nodes"`
	Bytes   int64  `json:"bytes"`
	IdleMs  int64  `json:"idle_ms"`
	Version uint64 `json:"version"`
	XML     string `json:"xml"`
	Node    string `json:"node"`
	Drained bool   `json:"drained,omitempty"`
}

// handleDocumentGet fetches one document from the first candidate that
// holds it (readNext).
func (r *Router) handleDocumentGet(w http.ResponseWriter, req *http.Request, name string) {
	err := r.walk(req.Context(), r.readCandidates(name), func(ctx context.Context, c cand) (bool, error) {
		info, err := c.n.GetDocument(ctx, name)
		if err != nil {
			return readNext(err), err
		}
		serve.WriteJSON(w, http.StatusOK, &documentReply{Name: info.Name, Nodes: info.Nodes, Bytes: info.Bytes,
			IdleMs: info.IdleMs, Version: info.Version, XML: info.XML, Node: c.n.Name(), Drained: c.drained})
		return false, nil
	})
	if err != nil {
		r.writeError(w, err)
	}
}

// replicate mirrors a registration at its owner-assigned version to
// the document's ring successors (skipping primary, the node the
// write already landed on). Mirrors run concurrently; it returns the
// version every copy converged on, the nodes that took the copy, and
// the ones that failed.
//
// Versions are assigned from each node's own store counter, so a
// replica that took a failover write while the primary was down may
// hold the document at a version ABOVE what the primary just
// assigned — its stale-write guard would then pin the old content
// forever. A mirror result reporting a higher resident version
// triggers one reconciliation round: the registration is re-written
// to the primary above the highest resident version and re-mirrored,
// so every copy converges on the new content at a version that
// supersedes the divergent one.
func (r *Router) replicate(ctx context.Context, reg registration, ver uint64, primary *Node) (uint64, []string, map[string]string) {
	round := func(ver uint64) ([]string, map[string]string, uint64) {
		body := reg.mirrorBody(ver) // one copy, read by every mirror write
		var mu sync.Mutex
		mirrored := []string{}
		errs := map[string]string{}
		var maxResident uint64
		each(r.ring.Replicas(reg.name, r.opts.Replicas), func(n *Node) {
			if n == primary {
				return
			}
			_, rv, err := n.PutDocumentBody(ctx, body)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				r.replicaErrs.Add(1)
				errs[n.Name()] = err.Error()
			case rv > ver:
				// Stale-write skip: the replica kept its resident copy at
				// a higher version.
				maxResident = max(maxResident, rv)
			default:
				r.replicated.Add(1)
				mirrored = append(mirrored, n.Name())
			}
		})
		sort.Strings(mirrored)
		return mirrored, errs, maxResident
	}
	mirrored, errs, maxResident := round(ver)
	if maxResident > ver {
		ver = maxResident + 1
		if _, rv, err := primary.PutDocumentBody(ctx, reg.mirrorBody(ver)); err == nil && rv >= ver {
			ver = rv
			mirrored, errs, _ = round(ver)
		} else if err != nil {
			errs[primary.Name()] = "reconcile: " + err.Error()
		}
	}
	return ver, mirrored, errs
}

// deleteReply answers a DELETE that removed at least one copy;
// node_errors and partial say which holders could not be reached.
type deleteReply struct {
	Deleted    string            `json:"deleted"`
	Nodes      []string          `json:"nodes"`
	NodeErrors map[string]string `json:"node_errors,omitempty"`
	Partial    bool              `json:"partial,omitempty"`
}

// handleDocumentDelete evicts a document from every node that may
// hold it — the owner, the replica successors within spread(), and
// (in drain mode) the same span of the old ring — concurrently. It is
// not a failover: every holder is asked, and a node in both rings is
// asked twice, the second time finding nothing. Any successful removal
// answers 200; a document nobody held is a 404.
func (r *Router) handleDocumentDelete(w http.ResponseWriter, req *http.Request, name string) {
	targets := r.ring.Replicas(name, r.spread())
	if r.old != nil {
		targets = append(targets, r.old.Replicas(name, r.spread())...)
	}
	out := deleteReply{Deleted: name, Nodes: []string{}, NodeErrors: map[string]string{}}
	var lastErr error
	var mu sync.Mutex
	each(targets, func(n *Node) {
		err := n.DeleteDocument(req.Context(), name)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			out.Nodes = append(out.Nodes, n.Name())
		case errors.Is(err, ErrNotFound):
			// Absence on a replica is fine.
		default:
			// An unreachable holder may still have its copy: surface it,
			// so the client knows the delete is partial and the document
			// can resurface when that node recovers (a reshard or a
			// repeated DELETE reconciles it).
			out.NodeErrors[n.Name()] = err.Error()
			lastErr = err
		}
	})
	switch {
	case len(out.Nodes) > 0:
		if r.cache != nil {
			r.cache.forget(name)
		}
		sort.Strings(out.Nodes)
		out.Partial = len(out.NodeErrors) > 0
		serve.WriteJSON(w, http.StatusOK, &out)
	case lastErr != nil:
		r.writeError(w, lastErr)
	default:
		serve.HTTPError(w, http.StatusNotFound, "unknown document %q", name)
	}
}

// taggedDoc is a merged listing's entry: a peer's DocInfo and its node.
type taggedDoc struct {
	serve.DocInfo
	Node string `json:"node"`
}

// listReply is the merged listing; node_errors and degraded report the
// peers that could not be listed.
type listReply struct {
	Documents  []taggedDoc       `json:"documents"`
	NodeErrors map[string]string `json:"node_errors,omitempty"`
	Degraded   bool              `json:"degraded,omitempty"`
}

// handleDocumentList merges every peer's listing; entries are tagged
// with the node that holds them (a replicated document legitimately
// appears once per holder), and unreachable peers are reported
// alongside the merged list instead of failing it.
func (r *Router) handleDocumentList(w http.ResponseWriter, req *http.Request) {
	var mu sync.Mutex
	docs := []taggedDoc{}
	nodeErrs := map[string]string{}
	each(r.ring.Peers(), func(n *Node) {
		list, err := n.Documents(req.Context())
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			nodeErrs[n.Name()] = err.Error()
			return
		}
		for _, d := range list {
			docs = append(docs, taggedDoc{DocInfo: d, Node: n.Name()})
		}
	})
	sort.Slice(docs, func(i, j int) bool {
		if docs[i].Name != docs[j].Name {
			return docs[i].Name < docs[j].Name
		}
		return docs[i].Node < docs[j].Node
	})
	serve.WriteJSON(w, http.StatusOK, &listReply{Documents: docs, NodeErrors: nodeErrs, Degraded: len(nodeErrs) > 0})
}

// appendTags closes a relayed answer whose closing brace was left off:
// the members the router owns — the node that answered, and drained
// when the old ring did — then the brace and the newline.
func appendTags(dst []byte, node string, drained bool) []byte {
	dst = append(dst, `"node":`...)
	dst = serve.AppendJSONString(dst, node)
	if drained {
		dst = append(dst, `,"drained":true`...)
	}
	return append(dst, '}', '\n')
}

// relayAnswer is the one way a backend answer (a JSON object, Node has
// checked) becomes what the router sends, for /query and /batch alike.
// dst holds what goes in front of the answer proper: "{" for a /query
// body, a batch line's re-tagged index, doc and request_id. The answer
// proper, line[env.Body:env.End], is appended unread and the router's
// members are spliced in front of its closing brace. out is the
// client's bytes; entry, nil unless the router caches and the answer
// may be cached, is '{' + line[env.Body:env.End] plus the node tag —
// the /query body of the answer, which a /batch hit replays behind
// line members of its own. entry aliases out when dst was just "{".
func (r *Router) relayAnswer(dst, line []byte, env serve.Envelope, node string, drained bool) (out, entry []byte) {
	head := len(dst)
	out = append(dst, line[env.Body:env.End]...)
	if t := bytes.TrimRight(out, " \t\r\n"); t[len(t)-1] != '{' { // not the empty object
		out = append(out, ',')
	}
	out = appendTags(out, node, drained)
	if r.cache == nil || !cacheable(line, env, drained) {
		return out, nil
	}
	if head == 1 {
		return out, out
	}
	entry = make([]byte, 0, 1+len(out)-head)
	return out, append(append(entry, '{'), out[head:]...)
}

// cacheable reports whether a relayed answer may fill the cache: it
// carries a value, at a version, from the current ring, for a document
// the backend has, and no top-level error. The raw bytes `"error":`
// cannot occur inside a JSON string (serve's encode.go), and serve's
// encoder writes them only as the top-level member, so looking for them
// is exact for a serve backend and errs towards not caching for any
// other.
func cacheable(line []byte, env serve.Envelope, drained bool) bool {
	return env.Value && env.Version > 0 && !env.Missing && !drained &&
		!bytes.Contains(line[env.Body:env.End], []byte(`"error":`))
}

// relayQuery is relayAnswer for a whole /query body. A JSON object laid
// out other than the way serve lays answers out (a foreign peer's) is
// still relayed, tagged, but never cached: the router cannot tell the
// version it answers for.
func (r *Router) relayQuery(raw []byte, node string, drained bool) (out, entry []byte, ver uint64) {
	env, ok := serve.ScanEnvelope(raw)
	if !ok {
		env = serve.Envelope{Body: 1, End: bytes.LastIndexByte(raw, '}')}
	}
	dst := make([]byte, 0, len(raw)+len(node)+32)
	out, entry = r.relayAnswer(append(dst, raw[:env.Body]...), raw, env, node, drained)
	return out, entry, env.Version
}

// tracedAnswer is a backend answer decoded for ?trace=1 — the one kind
// of answer the router parses, because it must lift the backend's span
// tree out and hang it under the forward span of its own. The value
// stays the backend's bytes all the same: the two raw members shadow
// QueryResponse's typed ones (encoding/json lets the shallower field
// of a name win).
type tracedAnswer struct {
	serve.QueryResponse
	Value   json.RawMessage `json:"value,omitempty"`
	Trace   json.RawMessage `json:"trace,omitempty"`
	Node    string          `json:"node"`
	Drained bool            `json:"drained,omitempty"`
}

// handleQuery forwards one query along the read candidates (readNext:
// replica retry and, in drain mode, old-ring fallback on a miss) and
// relays the backend's status and body, tagged with the node that
// answered; when every live candidate answered "unknown document", the
// first such answer is relayed as the 404.
// Successful answers are cached by (doc, query, version); repeated
// identical queries are served from the cache until a registration
// bumps the document's version.
func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	var body serve.QueryRequest
	switch req.Method {
	case http.MethodGet:
		body.Doc = req.URL.Query().Get("doc")
		body.Query = req.URL.Query().Get("q")
	case http.MethodPost:
		if !serve.DecodeJSON(w, req, &body) {
			return
		}
	default:
		serve.HTTPError(w, http.StatusMethodNotAllowed, "GET ?doc=&q= or POST {doc, query}")
		return
	}
	if body.Doc == "" || body.Query == "" {
		serve.HTTPError(w, http.StatusBadRequest, "both doc and query are required")
		return
	}
	// ?trace=1 bypasses the answer cache entirely: a cached body cannot
	// carry this request's span tree, and a traced answer must not fill
	// the cache with a trace-bearing body other clients would replay.
	if r.cache != nil && !obs.TraceRequested(req) {
		_, cs := obs.StartSpan(req.Context(), "cache_lookup")
		cached, ok := r.cache.get(body.Doc, body.Query)
		if ok {
			cs.SetAttr("outcome", "hit")
			cs.End()
			w.Header().Set("X-Router-Cache", "hit")
			serve.WriteJSONBytes(w, http.StatusOK, cached)
			return
		}
		cs.SetAttr("outcome", "miss")
		cs.End()
	}
	traceOn := obs.TraceRequested(req)
	var notFound []byte
	err := r.walk(req.Context(), r.readCandidates(body.Doc), func(ctx context.Context, c cand) (bool, error) {
		// The forward span wraps the whole backend round trip; when the
		// client asked for a trace, the backend evaluates with ?trace=1
		// too and its span tree is spliced in as the forward's remote —
		// one report shows both tiers under one request ID.
		fctx, fspan := obs.StartSpan(ctx, "forward")
		fspan.SetAttr("node", c.n.Name())
		status, raw, err := c.n.Query(fctx, body.Doc, body.Query, traceOn)
		fspan.End()
		if err != nil {
			return readNext(err), err
		}
		if status == http.StatusNotFound {
			if notFound == nil {
				notFound, _, _ = r.relayQuery(raw, c.n.Name(), c.drained)
			}
			err := fmt.Errorf("%w (%s)", ErrNotFound, c.n.Name())
			return readNext(err), err
		}
		var ans tracedAnswer
		if traceOn && json.Unmarshal(raw, &ans) == nil {
			if len(ans.Trace) > 0 {
				fspan.AttachRemote(ans.Trace)
			}
			ans.Node, ans.Drained = c.n.Name(), c.drained
			// Reported before the response is written, so the span
			// durations in it sum to within the reported total.
			ans.Trace, _ = json.Marshal(obs.TraceFrom(req.Context()).Report())
			serve.WriteJSON(w, status, &ans)
			return false, nil
		}
		out, entry, ver := r.relayQuery(raw, c.n.Name(), c.drained)
		if entry != nil && status == http.StatusOK && !traceOn {
			// What the cache keeps is what goes on the wire, the
			// backend's version label and value as it paired them.
			r.cache.put(body.Doc, body.Query, ver, entry)
		}
		serve.WriteJSONBytes(w, status, out)
		return false, nil
	})
	switch {
	case errors.Is(err, ErrNotFound):
		serve.WriteJSONBytes(w, http.StatusNotFound, notFound)
	case err != nil:
		r.writeError(w, err)
	}
}

// routerBatchRequest is the router's /batch body: either one doc (the
// xpathserve-compatible form) or several. With several, the job list
// is the cross product in doc-major order — for docs [a, b] and Q
// queries, job index i covers doc a for i < Q and doc b for Q ≤ i < 2Q
// — and "index" on each streamed line is that global job index.
type routerBatchRequest struct {
	Doc     string   `json:"doc,omitempty"`
	Docs    []string `json:"docs,omitempty"`
	Queries []string `json:"queries"`
}

// ScanJSON reads the body by hand where serve.ScanRequest can (see
// serve.DecodeJSON); like serve's request types it leaves the receiver
// alone unless it returns true.
func (q *routerBatchRequest) ScanJSON(b []byte) bool {
	var t routerBatchRequest
	if !serve.ScanRequest(b, serve.Member{Key: "doc", String: &t.Doc}, serve.Member{Key: "docs", Strings: &t.Docs}, serve.Member{Key: "queries", Strings: &t.Queries}) {
		return false
	}
	*q = t
	return true
}

// handleBatch is the scatter-gather path: jobs are grouped by owning
// node and each node gets ONE backend /batch stream carrying all of
// its jobs (M documents on N nodes opens at most N streams, not M),
// all tied to the client's request context and merged line by line in
// completion order. Every line carries the global job index, the
// document, and the producing node. A node that cannot be reached
// before its stream starts fails over along the ring; a stream that
// dies mid-flight yields one typed error line per unfinished job, so
// exactly one line per job index always arrives. Jobs a live node
// reports "missing" (a document that failed over or hasn't migrated)
// are re-dispatched to the next candidate instead of erroring
// immediately. Jobs the answer cache holds are answered from it first,
// all in one write, and only the rest are grouped; a batch whose jobs
// all hit opens no backend stream. (?trace=1 does not bypass the cache
// here as it does on /query: no batch line carries a span tree.)
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		serve.HTTPError(w, http.StatusMethodNotAllowed, "POST a {doc|docs, queries} object")
		return
	}
	var body routerBatchRequest
	if !serve.DecodeJSON(w, req, &body) {
		return
	}
	docs := body.Docs
	if body.Doc != "" {
		docs = append([]string{body.Doc}, docs...)
	}
	if len(docs) == 0 || len(body.Queries) == 0 {
		serve.HTTPError(w, http.StatusBadRequest, "doc (or docs) and queries are required")
		return
	}
	if serve.RefuseBatch(w, len(docs), len(body.Queries)) {
		return
	}
	jobs := make([]serve.BatchJob, 0, len(docs)*len(body.Queries))
	for _, doc := range docs {
		for _, q := range body.Queries {
			jobs = append(jobs, serve.BatchJob{Doc: doc, Query: q})
		}
	}
	ctx := req.Context()
	writeLine := serve.OpenStream(ctx, w)

	groups := map[int][]int{} // owner ring slot -> global job indices of the misses
	type hit struct {
		gi    int
		entry []byte
	}
	var hits []hit
	id := obs.RequestID(ctx)
	// A hit line's bytes besides its doc and entry (a doc that needs
	// escaping grows the buffer once).
	perHit := len(`{"index":,"doc":""`) + 20
	if id != "" {
		perHit += len(`,"request_id":""`) + len(id)
	}
	size := 0
	for gi, j := range jobs {
		if r.cache != nil {
			if entry, ok := r.cache.get(j.Doc, j.Query); ok {
				hits = append(hits, hit{gi, entry})
				size += perHit + len(j.Doc) + len(entry)
				continue
			}
		}
		slot := r.ring.OwnerIndex(j.Doc)
		groups[slot] = append(groups[slot], gi)
	}
	if len(hits) > 0 {
		// Every hit's line, written at once: the line members a relay of
		// the answer carries, then the entry past its brace — the bytes
		// that relay wrote.
		buf := make([]byte, 0, size)
		for _, h := range hits {
			buf = strconv.AppendInt(append(buf, `{"index":`...), int64(h.gi), 10)
			buf = serve.AppendJSONString(append(buf, `,"doc":`...), jobs[h.gi].Doc)
			if id != "" {
				buf = serve.AppendJSONString(append(buf, `,"request_id":`...), id)
			}
			buf = append(append(buf, ','), h.entry[1:]...)
		}
		writeLine(buf)
	}

	// Fan out one goroutine, and so one backend stream, per owning-node
	// group: at most ring.Len() of them, and I/O-bound.
	var wg sync.WaitGroup
	for slot, indices := range groups {
		wg.Add(1)
		go func(slot int, indices []int) {
			defer wg.Done()
			g := &jobGroup{r: r, jobs: jobs, owed: indices, held: map[int][]byte{}, writeLine: writeLine}
			err := r.walk(ctx, r.slotCandidates(nil, r.ring, slot), g.try)
			if r.old != nil && errors.Is(err, ErrNotFound) {
				// Drain mode: jobs the current ring reports missing are
				// regrouped under the old ring's placement and walked
				// there — /batch keeps answering for un-migrated
				// documents exactly like /query does.
				oldGroups := map[int][]int{}
				for _, gi := range g.owed {
					slot := r.old.OwnerIndex(jobs[gi].Doc)
					oldGroups[slot] = append(oldGroups[slot], gi)
				}
				for slot, owed := range oldGroups {
					g.owed = owed
					g.finish(ctx, r.walk(ctx, r.slotCandidates(nil, r.old, slot), g.try))
				}
				return
			}
			g.finish(ctx, err)
		}(slot, indices)
	}
	wg.Wait()
}

// jobGroup is one owner's share of a /batch as it walks its
// candidates.
type jobGroup struct {
	r         *Router
	jobs      []serve.BatchJob
	owed      []int          // global indices of the jobs no line has been written for
	held      map[int][]byte // the latest "missing" line per owed job
	last      cand           // the candidate tried last
	writeLine func([]byte)
}

// try relays one candidate's stream of the owed jobs, re-tagging each
// line with its global index, its document, and the node (and
// "drained" on the old ring); the rest of a line is the backend's
// bytes, and a line relayAnswer finds cacheable fills the answer cache
// as a /query answer would. The group passes on whole only while
// nothing has streamed; after a mid-stream failure the jobs that
// already streamed are not replayed (the client has their lines) and
// the rest become error lines, as do jobs a stream that ended cleanly
// never answered. Jobs reported "missing" narrow the group for the next
// candidate — the grouped-stream form of per-document read fallback.
func (g *jobGroup) try(ctx context.Context, c cand) (bool, error) {
	g.last = c
	sub := make([]serve.BatchJob, len(g.owed))
	for k, gi := range g.owed {
		sub[k] = g.jobs[gi]
	}
	emitted := make([]bool, len(g.owed))
	var missing []int // global indices
	var out []byte    // one re-tagged line at a time
	err := c.n.StreamJobs(ctx, sub, func(line []byte) error {
		env, ok := serve.ScanEnvelope(line)
		if !ok || env.IndexEnd == 0 || env.Index < 0 || env.Index >= len(sub) {
			return nil // not a line of this protocol; its job counts as unanswered
		}
		local := env.Index
		emitted[local] = true
		out = append(out[:0], `{"index":`...)
		out = strconv.AppendInt(out, int64(g.owed[local]), 10)
		if env.Doc == nil {
			out = append(out, `,"doc":`...)
			out = serve.AppendJSONString(out, sub[local].Doc)
		}
		var entry []byte
		out, entry = g.r.relayAnswer(append(out, line[env.IndexEnd:env.Body]...), line, env, c.n.Name(), c.drained)
		if env.Missing {
			g.held[g.owed[local]] = bytes.Clone(out)
			missing = append(missing, g.owed[local])
			return nil
		}
		if entry != nil {
			g.r.cache.put(sub[local].Doc, sub[local].Query, env.Version, entry)
		}
		g.writeLine(out)
		return nil
	})
	if ctx.Err() != nil {
		return false, ctx.Err() // client gone; no error lines into a dead stream
	}
	if err != nil && !slices.Contains(emitted, true) && readNext(err) {
		return true, err // nothing on the wire yet: the whole group fails over
	}
	failed := err
	if failed == nil {
		// The peer closed the stream in good order; whatever it left
		// unanswered is its protocol error, not a transport failure.
		failed = fmt.Errorf("%w (%s): stream ended without a line for this job", ErrPeer, c.n.Name())
	}
	for local, done := range emitted {
		if !done {
			g.writeLine(errorLine(ctx, g.owed[local], sub[local], c, failed))
		}
	}
	g.owed = missing
	if len(missing) > 0 {
		return true, fmt.Errorf("%w (%s)", ErrNotFound, c.n.Name())
	}
	return false, err
}

// finish writes the lines the group still owes when its walk ends with
// err: the last "missing" line where the walk ended on one, else an
// error line — so the merged stream carries one line per job.
func (g *jobGroup) finish(ctx context.Context, err error) {
	if ctx.Err() != nil {
		return // client gone; no error lines into a dead stream
	}
	for _, gi := range g.owed {
		if line := g.held[gi]; line != nil && errors.Is(err, ErrNotFound) {
			g.writeLine(line)
		} else {
			g.writeLine(errorLine(ctx, gi, g.jobs[gi], g.last, err))
		}
	}
}

// errorLine is a /batch line the router makes up itself, for a job no
// backend answered: a serve.BatchLine through serve's encoder, so it
// looks like a backend's, tagged like a relayed one with the node the
// job was last tried on. It carries the request's ID, as backend lines
// do (they get it propagated), so every merged line is correlatable.
func errorLine(ctx context.Context, index int, job serve.BatchJob, c cand, err error) []byte {
	line := serve.BatchLine{
		Index: index, Doc: job.Doc, RequestID: obs.RequestID(ctx),
		//lint:ignore wiretag no backend answered, so there is no version to carry; an error line is never cached
		QueryResponse: serve.QueryResponse{Query: job.Query, Error: err.Error()},
	}
	enc := serve.AppendBatchLine(nil, &line) // ends in "}\n"
	return appendTags(append(enc[:len(enc)-2], ','), c.n.Name(), c.drained)
}

// handleStats aggregates the fleet: each peer's raw /stats under its
// node name, the summed store fill, and the router's own counters —
// placement generation, replication and retry totals, and the answer
// cache's hit/miss/invalidation counts. A down peer degrades the
// aggregation (its entry carries the error and "degraded" flips true)
// instead of failing it.
func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		serve.HTTPError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var mu sync.Mutex
	nodes := map[string]json.RawMessage{}
	var total store.Stats
	healthy := 0
	each(r.ring.Peers(), func(n *Node) {
		st, err := n.Stats(req.Context())
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			nodes[n.Name()], _ = json.Marshal(nodeError{Error: err.Error()})
			return
		}
		healthy++
		nodes[n.Name()] = st.Raw
		total.Entries += st.Store.Entries
		total.Bytes += st.Store.Bytes
		total.Hits += st.Store.Hits
		total.Misses += st.Store.Misses
		total.Evictions += st.Store.Evictions
	})
	out := statsReply{
		Router: routerStats{
			Peers: r.ring.Len(), Healthy: healthy, Generation: r.ring.Generation(), Replicas: r.opts.Replicas,
			Requests: r.requests.Load(), Retries: r.retried.Load(),
			Replicated: r.replicated.Load(), ReplicaErrors: r.replicaErrs.Load(),
			RetryDenied: r.budget.Denied(), Shed: r.shedTotal(),
			RepairRounds: r.repairRounds.Load(), RepairCopies: r.repairCopies.Load(), RepairErrors: r.repairErrs.Load(),
		},
		Degraded:   healthy < r.ring.Len(),
		StoreTotal: total,
		Nodes:      nodes,
	}
	if r.old != nil {
		drained := r.drained.Load()
		out.Router.Drained = &drained
	}
	if r.cache != nil {
		cs := r.cache.stats()
		out.Router.AnswerCache = &cs
	}
	serve.WriteJSON(w, http.StatusOK, &out)
}

// statsReply is the router's /stats; nodes holds each peer's raw
// /stats, or a nodeError, under its node name.
type statsReply struct {
	Router     routerStats                `json:"router"`
	Degraded   bool                       `json:"degraded"`
	StoreTotal store.Stats                `json:"store_total"`
	Nodes      map[string]json.RawMessage `json:"nodes"`
}

// routerStats is the router section of /stats; drained is there in
// drain mode only, answer_cache while the cache is enabled.
type routerStats struct {
	Peers         int               `json:"peers"`
	Healthy       int               `json:"healthy"`
	Generation    uint64            `json:"generation"`
	Replicas      int               `json:"replicas"`
	Requests      uint64            `json:"requests"`
	Retries       uint64            `json:"retries"`
	Replicated    uint64            `json:"replicated"`
	ReplicaErrors uint64            `json:"replica_errors"`
	RetryDenied   uint64            `json:"retry_denied"`
	Shed          uint64            `json:"shed"`
	RepairRounds  uint64            `json:"repair_rounds"`
	RepairCopies  uint64            `json:"repair_copies"`
	RepairErrors  uint64            `json:"repair_errors"`
	Drained       *uint64           `json:"drained,omitempty"`
	AnswerCache   *answerCacheStats `json:"answer_cache,omitempty"`
}

// nodeError stands in /stats for a peer whose statistics could not be
// fetched.
type nodeError struct {
	Error string `json:"error"`
}

// handleHealth reports the router's view of the fleet from the last
// probes (run by Start's background loop and updated by every routed
// call) plus the placement ring's description; it answers 200 as long
// as any peer is healthy, so a load balancer in front of several
// routers drains one only when its whole fleet is gone.
func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		serve.HTTPError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	ringPeers := r.ring.Peers()
	peers := make([]peerHealth, len(ringPeers))
	for i, n := range ringPeers {
		ph := peerHealth{Node: n.Name(), URL: n.URL(), Healthy: n.Healthy(), LastError: n.LastErr(), Shed: n.Shed()}
		if br := n.Breaker(); br != nil {
			ph.Breaker = br.State().String()
		}
		if lc := n.LastCheck(); !lc.IsZero() {
			ph.LastCheck = lc.UTC().Format(time.RFC3339Nano)
		}
		peers[i] = ph
	}
	out := healthReply{
		Healthy: r.healthyPeers(), Peers: peers, Ring: r.ring.Describe(), UptimeMs: obs.UptimeMillis(), Build: obs.Build(),
		Draining: r.draining.Load(),
	}
	out.OK = out.Healthy > 0 && !out.Draining
	if r.old != nil {
		d := r.old.Describe()
		out.DrainRing = &d
	}
	status := http.StatusOK
	if !out.OK {
		status = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, status, &out)
}

// peerHealth is one peer's entry in /health.
type peerHealth struct {
	Node      string `json:"node"`
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Breaker   string `json:"breaker,omitempty"`
	Shed      uint64 `json:"shed,omitempty"`
	LastError string `json:"last_error,omitempty"`
	LastCheck string `json:"last_check,omitempty"`
}

// healthReply is the router's /health; draining and drain_ring appear
// only while they apply.
type healthReply struct {
	OK        bool          `json:"ok"`
	Healthy   int           `json:"healthy"`
	Peers     []peerHealth  `json:"peers"`
	Ring      RingDesc      `json:"ring"`
	UptimeMs  int64         `json:"uptime_ms"`
	Build     obs.BuildInfo `json:"build"`
	Draining  bool          `json:"draining,omitempty"`
	DrainRing *RingDesc     `json:"drain_ring,omitempty"`
}
