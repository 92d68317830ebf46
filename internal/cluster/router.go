package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
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
	// SlowQuery, when positive, logs the full span tree of any traced
	// request that takes at least this long — the -slow-query flag.
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
	// RepairBurst caps how many replica copies one repair round issues
	// (rate limiting; default 32).
	RepairBurst int
	// PeerInflight bounds concurrent calls per peer (load shedding;
	// 0 = unbounded). Shed calls answer 503 with Retry-After.
	PeerInflight int
	// Seed seeds the retry backoff's jitter and is handed to fault
	// injection for reproducible chaos runs. 0 derives from the clock.
	Seed int64
}

// Router fronts a placement Ring of backend nodes: documents are
// partitioned with the same FNV-1a function the in-process store uses
// for shards (store.KeyShard), so a document's owning node is
// computed, never looked up. /documents and /query are forwarded to
// the owner (with replica retry when it is down) and registrations
// are mirrored to the owner's ring successors (-replicas), each copy
// stored at the owner-assigned monotonic version so staleness stays
// detectable. /batch fans out scatter-gather style with one NDJSON
// stream per owning node (not per document), merged line by line in
// completion order, every line tagged with the global job index, the
// document, and the node that produced it — per-source provenance in
// the spirit of annotated query answering. Repeated identical queries
// are answered from an LRU answer cache keyed by (doc, query,
// version) and invalidated when a registration bumps the document's
// version. A Router over one peer is a plain reverse proxy:
// single-node deployments are the degenerate case, not a separate
// code path.
type Router struct {
	ring *Ring
	old  *Ring // drain-mode fallback ring (nil outside migrations)
	opts Options

	cache *answerCache // nil when disabled

	reg     *obs.Registry
	metrics *routerMetrics
	traces  *obs.TraceRing

	budget  *resilience.Budget  // retry token bucket (nil: unbounded)
	backoff *resilience.Backoff // jittered retry pacing

	requests    atomic.Uint64 // client requests routed
	retried     atomic.Uint64 // replica retries after an unreachable peer
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
	if opts.Retries > ring.Len()-1 {
		opts.Retries = ring.Len() - 1
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Replicas > ring.Len()-1 {
		opts.Replicas = ring.Len() - 1
	}
	if opts.Replicas < 0 {
		opts.Replicas = 0
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = serve.DefaultMaxBodyBytes
	}
	if opts.DownAfter == 0 {
		opts.DownAfter = 3
	}
	if opts.RepairBurst <= 0 {
		opts.RepairBurst = 32
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
	r.budget = resilience.NewBudget(opts.RetryBudget, 0)
	r.backoff = resilience.NewBackoff(0, 0, opts.Seed)
	// Attach resilience state to every node this router talks to —
	// current ring and drain ring alike, each node once.
	seen := map[*Node]bool{}
	for _, n := range append(r.ring.Peers(), opts.DrainPeers...) {
		if seen[n] {
			continue
		}
		seen[n] = true
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
func (r *Router) spread() int {
	if r.opts.Replicas > r.opts.Retries {
		return r.opts.Replicas
	}
	return r.opts.Retries
}

// candidates returns the nodes a request for doc may be served by:
// the owner followed by the next spread() peers in ring order, with
// known-unhealthy nodes moved to the back so a live replica is tried
// before a dead owner (the dead one stays a last resort — health
// information can be stale).
func (r *Router) candidates(doc string) []*Node {
	return r.slotCandidates(r.ring, r.ring.OwnerIndex(doc))
}

// slotCandidates is candidates keyed by ring slot — the form the
// batch path uses, where a whole per-node job group shares one owner
// slot.
func (r *Router) slotCandidates(ring *Ring, slot int) []*Node {
	peers := ring.Peers()
	spread := r.spread()
	if spread > len(peers)-1 {
		spread = len(peers) - 1
	}
	out := make([]*Node, 0, 1+spread)
	for i := 0; i <= spread; i++ {
		out = append(out, peers[(slot+i)%len(peers)])
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Healthy() && !out[j].Healthy()
	})
	return out
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

// CheckHealth probes every peer's /healthz once, concurrently, and
// returns how many are healthy.
func (r *Router) CheckHealth() int {
	var wg sync.WaitGroup
	for _, n := range r.ring.Peers() {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			//lint:ignore ctxhttp the background health prober owns its probes; each is bounded by the configured timeout, and Stop ends the loop between rounds
			ctx, cancel := context.WithTimeout(context.Background(), r.opts.Timeout)
			defer cancel()
			n.Healthz(ctx)
		}(n)
	}
	wg.Wait()
	healthy := 0
	for _, n := range r.ring.Peers() {
		if n.Healthy() {
			healthy++
		}
	}
	return healthy
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
	mux.Handle("/debug/traces", r.traces.Handler())
	return r.instrument(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
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
			r.routeDoc(w, req, name, func(ctx context.Context, n *Node) (any, error) {
				info, err := n.GetDocument(ctx, name)
				if err != nil {
					return nil, err
				}
				return map[string]any{
					"name": info.Name, "nodes": info.Nodes, "bytes": info.Bytes,
					"idle_ms": info.IdleMs, "version": info.Version,
					"xml": info.XML, "node": n.Name(),
				}, nil
			})
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
	var lastErr error
	// Writes walk the ring in placement order — owner first, NOT
	// health-sorted like reads: a stale "unhealthy" mark on a live
	// owner must not divert the write to a successor, where (without
	// replication) it would be invisible to owner-first reads. The
	// owner is only passed over on an actual unreachable error below.
	cands := r.ring.Replicas(reg.name, r.spread())
	for i, n := range cands {
		if serr := r.beforeAttempt(req.Context(), i); serr != nil {
			if errors.Is(serr, ErrRetryBudget) {
				lastErr = fmt.Errorf("%w; last attempt: %v", ErrRetryBudget, lastErr)
			}
			break
		}
		if i > 0 {
			r.retried.Add(1)
		}
		actx := resilience.WithAttemptsLeft(req.Context(), len(cands)-i)
		nodes, ver, err := n.PutDocumentBody(actx, reg.body)
		if err == nil {
			out := serve.DocumentResponse{Name: reg.name, Node: n.Name(), Nodes: nodes}
			if r.opts.Replicas > 0 {
				ver, out.Replicas, out.ReplicaErrors = r.replicate(req.Context(), reg, ver, n)
			}
			out.Version = ver
			if r.cache != nil {
				r.cache.bump(reg.name, ver)
			}
			serve.WriteJSONBytes(w, http.StatusOK, serve.AppendDocumentResponse(nil, &out))
			return
		}
		if lastErr == nil || !errors.Is(err, ErrUnavailable) {
			lastErr = err
		}
		if req.Context().Err() != nil {
			break
		}
		if !errors.Is(err, ErrUnavailable) {
			// A live owner's application answer (parse error, full
			// store) must not be retried past it: registration retried
			// past a live owner would fork the document.
			break
		}
	}
	r.writeError(w, lastErr)
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
		var wg sync.WaitGroup
		for _, n := range r.ring.Replicas(reg.name, r.opts.Replicas) {
			if n == primary {
				continue
			}
			wg.Add(1)
			go func(n *Node) {
				defer wg.Done()
				_, rv, err := n.PutDocumentBody(ctx, body)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					r.replicaErrs.Add(1)
					errs[n.Name()] = err.Error()
					return
				}
				if rv > ver {
					// Stale-write skip: the replica kept its resident
					// copy at a higher version.
					if rv > maxResident {
						maxResident = rv
					}
					return
				}
				r.replicated.Add(1)
				mirrored = append(mirrored, n.Name())
			}(n)
		}
		wg.Wait()
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

// handleDocumentDelete evicts a document from every node that may
// hold it — the owner, the replica successors within spread(), and
// (in drain mode) the same span of the old ring. Any successful
// removal answers 200; a document nobody held is a 404.
func (r *Router) handleDocumentDelete(w http.ResponseWriter, req *http.Request, name string) {
	targets := r.ring.Replicas(name, r.spread())
	if r.old != nil {
		for _, n := range r.old.Replicas(name, r.spread()) {
			targets = append(targets, n)
		}
	}
	seen := map[string]bool{}
	deleted := []string{}
	nodeErrs := map[string]string{}
	var lastErr error
	for i, n := range targets {
		if seen[n.URL()] {
			continue
		}
		seen[n.URL()] = true
		// Not a retry chain — every distinct holder is visited — but a
		// tight caller deadline is still split across the remaining
		// targets so one slow holder cannot consume all of it.
		actx := resilience.WithAttemptsLeft(req.Context(), len(targets)-i)
		err := n.DeleteDocument(actx, name)
		switch {
		case err == nil:
			deleted = append(deleted, n.Name())
		case errors.Is(err, ErrNotFound):
			// Absence on a replica is fine.
		default:
			// An unreachable holder may still have its copy: surface
			// it, so the client knows the delete is partial and the
			// document can resurface when that node recovers (a
			// reshard or a repeated DELETE reconciles it).
			nodeErrs[n.Name()] = err.Error()
			lastErr = err
		}
		if req.Context().Err() != nil {
			break
		}
	}
	if len(deleted) > 0 {
		if r.cache != nil {
			r.cache.forget(name)
		}
		sort.Strings(deleted)
		out := map[string]any{"deleted": name, "nodes": deleted}
		if len(nodeErrs) > 0 {
			out["node_errors"] = nodeErrs
			out["partial"] = true
		}
		serve.WriteJSON(w, http.StatusOK, out)
		return
	}
	if lastErr == nil {
		serve.HTTPError(w, http.StatusNotFound, "unknown document %q", name)
		return
	}
	r.writeError(w, lastErr)
}

// routeDoc runs one owner-routed read with replica retry: the
// candidates are tried in order, an unreachable peer always falls
// through to the next, and a live candidate's "not found" also falls
// through — the read half of replica failover: a document registered
// on a replica while its owner was down stays readable after the
// owner recovers, because reads probe the rest of the retry ring
// before reporting the 404. In drain mode a miss additionally probes
// the old ring before giving up.
func (r *Router) routeDoc(w http.ResponseWriter, req *http.Request, doc string, call func(context.Context, *Node) (any, error)) {
	type cand struct {
		n       *Node
		drained bool
	}
	var cands []cand
	for _, n := range r.candidates(doc) {
		cands = append(cands, cand{n: n})
	}
	if r.old != nil {
		for _, n := range r.slotCandidates(r.old, r.old.OwnerIndex(doc)) {
			cands = append(cands, cand{n: n, drained: true})
		}
	}
	var lastErr error
	seen := map[string]bool{}
	attempt := 0
	for i, c := range cands {
		n := c.n
		if seen[n.URL()] {
			continue
		}
		seen[n.URL()] = true
		if serr := r.beforeAttempt(req.Context(), attempt); serr != nil {
			if errors.Is(serr, ErrRetryBudget) {
				lastErr = fmt.Errorf("%w; last attempt: %v", ErrRetryBudget, lastErr)
			}
			break
		}
		if attempt > 0 {
			r.retried.Add(1)
		}
		attempt++
		out, err := call(resilience.WithAttemptsLeft(req.Context(), len(cands)-i), n)
		if err == nil {
			if c.drained {
				r.drained.Add(1)
				if m, ok := out.(map[string]any); ok {
					m["drained"] = true
				}
			}
			serve.WriteJSON(w, http.StatusOK, out)
			return
		}
		if lastErr == nil || !errors.Is(err, ErrUnavailable) {
			// Prefer reporting an application answer (the 404) over
			// the transport noise of whichever replica was dead.
			lastErr = err
		}
		if req.Context().Err() != nil {
			break
		}
		if errors.Is(err, ErrUnavailable) || errors.Is(err, ErrNotFound) {
			continue
		}
		break
	}
	r.writeError(w, lastErr)
}

// handleDocumentList merges every peer's listing; entries are tagged
// with the node that holds them (a replicated document legitimately
// appears once per holder), and unreachable peers are reported
// alongside the merged list instead of failing it.
func (r *Router) handleDocumentList(w http.ResponseWriter, req *http.Request) {
	type taggedDoc struct {
		serve.DocInfo
		Node string `json:"node"`
	}
	var mu sync.Mutex
	docs := []taggedDoc{}
	nodeErrs := map[string]string{}
	var wg sync.WaitGroup
	for _, n := range r.ring.Peers() {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
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
		}(n)
	}
	wg.Wait()
	sort.Slice(docs, func(i, j int) bool {
		if docs[i].Name != docs[j].Name {
			return docs[i].Name < docs[j].Name
		}
		return docs[i].Node < docs[j].Node
	})
	out := map[string]any{"documents": docs}
	if len(nodeErrs) > 0 {
		out["node_errors"] = nodeErrs
		out["degraded"] = true
	}
	serve.WriteJSON(w, http.StatusOK, out)
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

// tagAnswer returns a copy of a backend's answer (a JSON object, Node
// has checked) with the router's members spliced in front of its
// closing brace; everything else is the backend's bytes.
func tagAnswer(body []byte, node string, drained bool) []byte {
	end := bytes.LastIndexByte(body, '}')
	out := make([]byte, 0, end+len(node)+32)
	out = append(out, body[:end]...)
	if len(bytes.TrimSpace(out)) > 1 { // not the empty object
		out = append(out, ',')
	}
	return appendTags(out, node, drained)
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

// handleQuery forwards one query to the owning node (with replica
// retry and, in drain mode, old-ring fallback on a miss) and relays
// the backend's status and body, tagged with the node that answered.
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
	notFound, ok := r.forwardQuery(w, req, body, r.ring, false)
	if ok {
		return
	}
	if notFound != nil && r.old != nil {
		// Drain mode: the document may not have migrated yet.
		if _, ok := r.forwardQuery(w, req, body, r.old, true); ok {
			r.drained.Add(1)
			return
		}
	}
	if notFound != nil {
		serve.WriteJSONBytes(w, http.StatusNotFound, notFound)
	}
}

// forwardQuery tries a query against one ring's candidates. It
// reports whether a response was written; when every live candidate
// answered "unknown document" it instead returns the first such
// response, tagged, for the caller to relay (or to try another ring
// first). On a transport dead end it writes the typed error itself —
// except on the drain ring, whose unreachability must not mask the
// current ring's answer: there it reports false and writes nothing.
func (r *Router) forwardQuery(w http.ResponseWriter, req *http.Request, body serve.QueryRequest, ring *Ring, drainRing bool) ([]byte, bool) {
	var lastErr error
	var notFound []byte
	traceOn := obs.TraceRequested(req)
	cands := r.slotCandidates(ring, ring.OwnerIndex(body.Doc))
	for i, n := range cands {
		if serr := r.beforeAttempt(req.Context(), i); serr != nil {
			if errors.Is(serr, ErrRetryBudget) {
				lastErr = fmt.Errorf("%w; last attempt: %v", ErrRetryBudget, lastErr)
			}
			break
		}
		if i > 0 {
			r.retried.Add(1)
		}
		// The forward span wraps the whole backend round trip; when the
		// client asked for a trace, the backend evaluates with ?trace=1
		// too and its span tree is spliced in as the forward's remote —
		// one report shows both tiers under one request ID.
		fctx, fspan := obs.StartSpan(resilience.WithAttemptsLeft(req.Context(), len(cands)-i), "forward")
		fspan.SetAttr("node", n.Name())
		status, raw, err := n.Query(fctx, body.Doc, body.Query, traceOn)
		fspan.End()
		if err != nil {
			lastErr = err
			if !errors.Is(err, ErrUnavailable) || req.Context().Err() != nil {
				break
			}
			continue
		}
		if status == http.StatusNotFound {
			// Read fallback: the doc may live on a replica it failed
			// over to while this node was down.
			if notFound == nil {
				notFound = tagAnswer(raw, n.Name(), false)
			}
			continue
		}
		var ans tracedAnswer
		if traceOn && json.Unmarshal(raw, &ans) == nil {
			if len(ans.Trace) > 0 {
				fspan.AttachRemote(ans.Trace)
			}
			ans.Node, ans.Drained = n.Name(), drainRing
			// Reported before the response is written, so the span
			// durations in it sum to within the reported total.
			ans.Trace, _ = json.Marshal(obs.TraceFrom(req.Context()).Report())
			serve.WriteJSON(w, status, &ans)
			return nil, true
		}
		out := tagAnswer(raw, n.Name(), drainRing)
		if status == http.StatusOK && r.cache != nil && !drainRing && !traceOn {
			// What the cache keeps is what goes on the wire, the
			// backend's version label and value as it paired them.
			if env, ok := serve.ScanEnvelope(raw); ok {
				r.cache.put(body.Doc, body.Query, env.Version, out)
			}
		}
		serve.WriteJSONBytes(w, status, out)
		return nil, true
	}
	if notFound != nil {
		return notFound, false
	}
	if drainRing {
		return nil, false // an unreachable old ring is not this query's error
	}
	r.writeError(w, lastErr)
	return nil, true
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
// immediately.
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
	jobs := make([]serve.BatchJob, 0, len(docs)*len(body.Queries))
	for _, doc := range docs {
		for _, q := range body.Queries {
			jobs = append(jobs, serve.BatchJob{Doc: doc, Query: q})
		}
	}
	groups := map[int][]int{} // owner ring slot -> global job indices
	for gi, j := range jobs {
		slot := r.ring.OwnerIndex(j.Doc)
		groups[slot] = append(groups[slot], gi)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	ctx := req.Context()

	var mu sync.Mutex // serializes writes across backend streams
	writeLine := func(line []byte) {
		mu.Lock()
		defer mu.Unlock()
		if ctx.Err() != nil {
			return // client is gone; backends are being cancelled
		}
		w.Write(line)
		if fl != nil {
			fl.Flush()
		}
	}

	// In drain mode, jobs the whole new-ring candidate chain reports
	// missing are re-grouped under the old ring's placement and tried
	// there — /batch keeps answering for un-migrated documents exactly
	// like /query does.
	var drainFallback func([]int)
	if r.old != nil {
		drainFallback = func(indices []int) {
			oldGroups := map[int][]int{}
			for _, gi := range indices {
				slot := r.old.OwnerIndex(jobs[gi].Doc)
				oldGroups[slot] = append(oldGroups[slot], gi)
			}
			for slot, oidx := range oldGroups {
				r.streamGroup(ctx, r.slotCandidates(r.old, slot), 0, oidx, jobs, writeLine, true, nil)
			}
		}
	}
	// Fan out one goroutine, and so one backend stream, per owning-node
	// group: at most ring.Len() of them, and I/O-bound.
	var wg sync.WaitGroup
	for slot, indices := range groups {
		wg.Add(1)
		go func(slot int, indices []int) {
			defer wg.Done()
			r.streamGroup(ctx, r.slotCandidates(r.ring, slot), 0, indices, jobs, writeLine, false, drainFallback)
		}(slot, indices)
	}
	wg.Wait()
}

// errorLine is a /batch line the router makes up itself, for a job no
// backend answered: a serve.BatchLine through serve's encoder, so it
// looks like a backend's, tagged like a relayed one with the node the
// job was (or was about to be) tried on. It carries the request's ID,
// as backend lines do (they get it propagated), so every merged line
// is correlatable.
func errorLine(ctx context.Context, index int, job serve.BatchJob, node string, drained bool, err error) []byte {
	line := serve.BatchLine{
		Index: index, Doc: job.Doc, RequestID: obs.RequestID(ctx),
		//lint:ignore wiretag no backend answered, so there is no version to carry; an error line is never cached
		QueryResponse: serve.QueryResponse{Query: job.Query, Error: err.Error()},
	}
	return tagAnswer(serve.AppendBatchLine(nil, &line), node, drained)
}

// streamGroup relays one per-node job group through the candidate at
// the given attempt, re-tagging each line with its global index, its
// document, and the node (and "drained" on the old ring); the rest of
// a line is the backend's bytes. Failover applies only before the
// first line is on the wire; after a mid-stream failure the jobs that
// already streamed are not replayed (the client has their lines) and
// the rest become error lines, as do jobs a stream that ended cleanly
// never answered, so the merged stream still carries exactly one line
// per job. Jobs flagged "missing" by a live node are collected and
// re-dispatched to the next candidate — the grouped-stream form of
// per-document read fallback — and jobs still missing after the last
// candidate go to exhausted (the drain-ring fallback) when one is set.
func (r *Router) streamGroup(ctx context.Context, cands []*Node, attempt int, indices []int, jobs []serve.BatchJob, writeLine func([]byte), drained bool, exhausted func([]int)) {
	n := cands[attempt]
	if serr := r.beforeAttempt(ctx, attempt); serr != nil {
		if ctx.Err() != nil {
			return // client gone; no error lines into a dead stream
		}
		// Budget denied: the jobs this group still owes get their typed
		// error lines so the one-line-per-job invariant holds.
		for _, gi := range indices {
			writeLine(errorLine(ctx, gi, jobs[gi], n.Name(), drained, serr))
		}
		return
	}
	if attempt > 0 {
		r.retried.Add(1)
	}
	sub := make([]serve.BatchJob, len(indices))
	for k, gi := range indices {
		sub[k] = jobs[gi]
	}
	emitted := make([]bool, len(indices))
	var missing []int // local positions to re-dispatch past this candidate
	var out []byte    // one re-tagged line at a time
	err := n.StreamJobs(ctx, sub, func(line []byte) error {
		env, ok := serve.ScanEnvelope(line)
		if !ok || env.IndexEnd == 0 || env.Index < 0 || env.Index >= len(indices) {
			return nil // not a line of this protocol; its job counts as unanswered
		}
		local := env.Index
		emitted[local] = true
		if env.Missing && (attempt+1 < len(cands) || exhausted != nil) {
			missing = append(missing, local)
			return nil
		}
		out = append(out[:0], `{"index":`...)
		out = strconv.AppendInt(out, int64(indices[local]), 10)
		if env.Doc == nil {
			out = append(out, `,"doc":`...)
			out = serve.AppendJSONString(out, sub[local].Doc)
		}
		out = append(out, line[env.IndexEnd:env.End]...)
		out = appendTags(append(out, ','), n.Name(), drained)
		writeLine(out)
		return nil
	})
	if ctx.Err() != nil {
		return // client gone; no error lines into a dead stream
	}
	if err != nil && attempt+1 < len(cands) {
		streamed := false
		for _, e := range emitted {
			streamed = streamed || e
		}
		if !streamed && (errors.Is(err, ErrUnavailable) || errors.Is(err, ErrNotFound)) {
			// Nothing on the wire yet: the whole group fails over.
			r.streamGroup(ctx, cands, attempt+1, indices, jobs, writeLine, drained, exhausted)
			return
		}
	}
	if err == nil {
		// The peer closed the stream in good order; whatever it left
		// unanswered is its protocol error, not a transport failure.
		err = fmt.Errorf("%w (%s): stream ended without a line for this job", ErrPeer, n.Name())
	}
	for local, done := range emitted {
		if !done {
			writeLine(errorLine(ctx, indices[local], sub[local], n.Name(), drained, err))
		}
	}
	if len(missing) > 0 {
		next := make([]int, len(missing))
		for k, local := range missing {
			next[k] = indices[local]
		}
		if attempt+1 < len(cands) {
			r.streamGroup(ctx, cands, attempt+1, next, jobs, writeLine, drained, exhausted)
		} else {
			exhausted(next) // non-nil: missing is only collected at the
			// last candidate when a fallback exists
		}
	}
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
	nodes := map[string]any{}
	var total store.Stats
	healthy := 0
	var wg sync.WaitGroup
	for _, n := range r.ring.Peers() {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			st, err := n.Stats(req.Context())
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				nodes[n.Name()] = map[string]string{"error": err.Error()}
				return
			}
			healthy++
			nodes[n.Name()] = st.Raw
			total.Entries += st.Store.Entries
			total.Bytes += st.Store.Bytes
			total.Hits += st.Store.Hits
			total.Misses += st.Store.Misses
			total.Evictions += st.Store.Evictions
		}(n)
	}
	wg.Wait()
	router := map[string]any{
		"peers":          r.ring.Len(),
		"healthy":        healthy,
		"generation":     r.ring.Generation(),
		"replicas":       r.opts.Replicas,
		"requests":       r.requests.Load(),
		"retries":        r.retried.Load(),
		"replicated":     r.replicated.Load(),
		"replica_errors": r.replicaErrs.Load(),
		"retry_denied":   r.budget.Denied(),
		"shed":           r.shedTotal(),
		"repair_rounds":  r.repairRounds.Load(),
		"repair_copies":  r.repairCopies.Load(),
		"repair_errors":  r.repairErrs.Load(),
	}
	if r.old != nil {
		router["drained"] = r.drained.Load()
	}
	if r.cache != nil {
		router["answer_cache"] = r.cache.stats()
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"router":      router,
		"degraded":    healthy < r.ring.Len(),
		"store_total": total,
		"nodes":       nodes,
	})
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
	type peerHealth struct {
		Node      string `json:"node"`
		URL       string `json:"url"`
		Healthy   bool   `json:"healthy"`
		Breaker   string `json:"breaker,omitempty"`
		Shed      uint64 `json:"shed,omitempty"`
		LastError string `json:"last_error,omitempty"`
		LastCheck string `json:"last_check,omitempty"`
	}
	ringPeers := r.ring.Peers()
	peers := make([]peerHealth, len(ringPeers))
	healthy := 0
	for i, n := range ringPeers {
		ph := peerHealth{Node: n.Name(), URL: n.URL(), Healthy: n.Healthy(), LastError: n.LastErr(), Shed: n.Shed()}
		if br := n.Breaker(); br != nil {
			ph.Breaker = br.State().String()
		}
		if lc := n.LastCheck(); !lc.IsZero() {
			ph.LastCheck = lc.UTC().Format(time.RFC3339Nano)
		}
		if ph.Healthy {
			healthy++
		}
		peers[i] = ph
	}
	draining := r.draining.Load()
	status := http.StatusOK
	if healthy == 0 || draining {
		status = http.StatusServiceUnavailable
	}
	out := map[string]any{
		"ok":        healthy > 0 && !draining,
		"healthy":   healthy,
		"peers":     peers,
		"ring":      r.ring.Describe(),
		"uptime_ms": obs.UptimeMillis(),
		"build":     obs.Build(),
	}
	if draining {
		out["draining"] = true
	}
	if r.old != nil {
		out["drain_ring"] = r.old.Describe()
	}
	serve.WriteJSON(w, status, out)
}
