// Package serve is the HTTP/JSON serving layer of the stack: it binds
// the sharded document store (internal/store) and the concurrent
// evaluation engine (internal/engine) to a wire format. cmd/xpathserve
// is a thin flag-parsing shell around this package, and the cluster
// router (internal/cluster, cmd/xpathrouter) speaks the same wire
// format against many of these servers at once — which is why the
// request/response types are exported: they are the protocol shared by
// a node and the router in front of it.
//
// The layering is store (placement + memory accounting) → engine
// (compile cache + evaluation) → serve (wire format) → cluster
// (multi-process routing).
package serve

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

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/xpath"
)

// maxNodesInResponse caps how many node-set members a response renders;
// the full cardinality is always reported in "count".
const maxNodesInResponse = 100

// maxStringBytes caps every rendered string value. Element string-
// values are document-sized in the worst case (the root's string-value
// is all text in the document), so without this cap a //* query could
// buffer responses orders of magnitude larger than the document.
const maxStringBytes = 64 << 10

// DefaultMaxBodyBytes bounds request bodies (documents arrive inline
// as JSON) so one oversized POST cannot exhaust memory.
const DefaultMaxBodyBytes = 32 << 20

// DefaultMaxDocuments bounds how many documents the server retains;
// parsed documents live until replaced, so without a cap repeated
// small POSTs to /documents would grow memory without limit.
const DefaultMaxDocuments = 64

// Server routes HTTP requests onto an engine.Engine and the document
// store: every named document is an engine.Session held in a sharded
// store.Store, so lookups on different documents never contend on one
// lock and the corpus is bounded by the store's entry and byte
// budgets.
type Server struct {
	eng     *engine.Engine
	maxBody int64
	docs    store.Store[*engine.Session]

	// Observability: the registry is the engine's (one exposition for
	// all tiers), the ring holds recent traces for /debug/traces, and
	// slow marks the slow-query log threshold (0 = off). logger nil
	// means slog.Default(), resolved per call so tests can swap the
	// default.
	reg     *obs.Registry
	metrics *serveMetrics
	traces  *obs.TraceRing
	logger  *slog.Logger
	slow    time.Duration

	// draining flips /healthz to 503 during graceful shutdown so load
	// balancers and the cluster router stop routing here while
	// in-flight requests finish; faults, when set, is the -fault-spec
	// injection middleware wrapped around the handler.
	draining atomic.Bool
	faults   *resilience.Faults
}

// BeginDrain marks the server draining: /healthz answers 503 from now
// on while every other endpoint keeps serving, so in-flight and
// already-routed work completes during a graceful shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// SetFaults installs a fault injector wrapped around the handler (the
// -fault-spec hook). Call before Handler; nil is a no-op.
func (s *Server) SetFaults(f *resilience.Faults) { s.faults = f }

// New creates a Server over an engine with a store built from cfg
// (zero MaxEntries takes DefaultMaxDocuments).
func New(eng *engine.Engine, cfg store.Config) *Server {
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = DefaultMaxDocuments
	}
	s := &Server{
		eng:     eng,
		maxBody: DefaultMaxBodyBytes,
		docs:    store.NewSharded[*engine.Session](cfg),
	}
	s.initObs()
	return s
}

// SetMaxBody overrides the request body size limit (DefaultMaxBodyBytes).
func (s *Server) SetMaxBody(n int64) { s.maxBody = n }

// Engine exposes the underlying engine (tests and operators read its
// cache and in-flight statistics through it).
func (s *Server) Engine() *engine.Engine { return s.eng }

// StoreStats returns the document store's current statistics.
func (s *Server) StoreStats() store.Stats { return s.docs.Stats() }

// AddDocument parses xml and registers it under name, replacing any
// previous document with that name. The document is accounted against
// the store's byte budget at its serialized size. It returns the node
// count and the document's newly assigned monotonic version.
func (s *Server) AddDocument(name, xml string) (int, uint64, error) {
	return s.AddDocumentAt(name, xml, 0)
}

// versionMirror is the store capability AddDocumentAt and the version
// surfaces need beyond the Store interface; the production Sharded
// store satisfies it.
type versionMirror interface {
	PutAt(key string, v *engine.Session, size int64, ver uint64) (uint64, error)
	Version(key string) (uint64, bool)
}

// AddDocumentAt registers xml under name at an explicitly assigned
// version — the write half of replication and resharding, where a
// mirror must store the owner's document at the owner's version so
// staleness stays detectable. A zero ver self-assigns from the store's
// counter (AddDocument is this case). A ver at or below the resident
// document's version is a stale mirror write and is skipped.
func (s *Server) AddDocumentAt(name, xml string, ver uint64) (int, uint64, error) {
	return s.addDocument(context.Background(), name, xml, ver)
}

// addDocument is AddDocumentAt with trace plumbing: registration's two
// expensive stages — parsing and the registration-time index build —
// each get a span and a stage-latency observation.
func (s *Server) addDocument(ctx context.Context, name, xml string, ver uint64) (int, uint64, error) {
	_, ps := obs.StartSpan(ctx, "parse")
	pstart := time.Now()
	d, err := core.ParseString(xml)
	ps.End()
	if err != nil {
		return 0, 0, err
	}
	s.metrics.stage.With("parse").ObserveSince(pstart)
	_, ws := obs.StartSpan(ctx, "index_warm")
	wstart := time.Now()
	sess := s.eng.NewSession(d)
	ws.End()
	s.metrics.stage.With("index_warm").ObserveSince(wstart)
	var v uint64
	if vm, ok := s.docs.(versionMirror); ok && ver > 0 {
		v, err = vm.PutAt(name, sess, int64(len(xml)), ver)
	} else {
		v, err = s.docs.Put(name, sess, int64(len(xml)))
	}
	if err != nil {
		return 0, 0, err
	}
	return d.Len(), v, nil
}

// docVersion returns the current version of a named document (0 when
// unknown or the store does not track versions).
func (s *Server) docVersion(name string) uint64 {
	if vm, ok := s.docs.(versionMirror); ok {
		if v, ok := vm.Version(name); ok {
			return v
		}
	}
	return 0
}

// Session returns the session serving a named document.
func (s *Server) Session(name string) (*engine.Session, bool) {
	return s.docs.Get(name)
}

// EvictIdle deletes every document whose session has not been queried
// for longer than maxIdle, returning the evicted names. The idle check
// is re-evaluated against the currently stored session under the shard
// lock (store.Sharded.DeleteIf), so neither a document queried after
// the scan nor one re-registered after it (a different session under
// the same name) can be evicted by a stale snapshot. A query that
// begins in the same instant may still race the eviction, which is
// acceptable for an idle-trimming policy (the client simply
// re-registers).
func (s *Server) EvictIdle(maxIdle time.Duration) []string {
	var cold []string
	s.docs.Range(func(name string, sess *engine.Session, _ int64) bool {
		if sess.IdleFor() > maxIdle {
			cold = append(cold, name)
		}
		return true
	})
	type conditionalDeleter interface {
		DeleteIf(key string, cond func(*engine.Session, int64) bool) bool
	}
	cd, _ := s.docs.(conditionalDeleter)
	var evicted []string
	for _, name := range cold {
		stillIdle := func(sess *engine.Session, _ int64) bool {
			return sess.IdleFor() > maxIdle
		}
		ok := false
		if cd != nil {
			ok = cd.DeleteIf(name, stillIdle)
		} else if sess, present := s.docs.Get(name); present && stillIdle(sess, 0) {
			ok = s.docs.Delete(name)
		}
		if ok {
			evicted = append(evicted, name)
		}
	}
	return evicted
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/documents", s.handleDocuments)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("/debug/traces", s.traces.Handler())
	h := s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		mux.ServeHTTP(w, r)
	}))
	// Fault injection wraps the whole surface so injected refusals and
	// cuts hit exactly what a real network fault would.
	return s.faults.Handler(h)
}

// DocumentRequest registers a document: the body of POST /documents.
// A nonzero Version mirrors the document at that explicit version
// instead of self-assigning (see Server.AddDocumentAt) — the form the
// cluster's write-time replication and the reshard tool use.
type DocumentRequest struct {
	Name    string `json:"name"`
	XML     string `json:"xml"`
	Version uint64 `json:"version,omitempty"`
}

// QueryRequest evaluates one query: the body of POST /query.
type QueryRequest struct {
	Doc   string `json:"doc"`
	Query string `json:"query"`
}

// BatchRequest evaluates many queries: the body of POST /batch. The
// single-document form sets Doc + Queries; the grouped form sets Jobs,
// each naming its own document — the shape the cluster router uses to
// open one stream per backend node instead of one per document. The
// two forms are mutually exclusive.
type BatchRequest struct {
	Doc     string     `json:"doc,omitempty"`
	Queries []string   `json:"queries,omitempty"`
	Jobs    []BatchJob `json:"jobs,omitempty"`
}

// BatchJob is one (document, query) pair of a grouped batch.
type BatchJob struct {
	Doc   string `json:"doc"`
	Query string `json:"query"`
}

// ValueJSON renders a semantics.Value: "string" always carries the
// XPath string conversion; the kind-specific field carries the typed
// value, with node sets truncated to maxNodesInResponse entries.
type ValueJSON struct {
	Kind      string     `json:"kind"`
	String    string     `json:"string"`
	Truncated bool       `json:"truncated,omitempty"`
	Number    *float64   `json:"number,omitempty"`
	Boolean   *bool      `json:"boolean,omitempty"`
	Count     *int       `json:"count,omitempty"`
	Nodes     []NodeJSON `json:"nodes,omitempty"`
}

// NodeJSON is one rendered node-set member.
type NodeJSON struct {
	Type      string `json:"type"`
	Name      string `json:"name,omitempty"`
	Value     string `json:"value"`
	Truncated bool   `json:"truncated,omitempty"`
}

// QueryResponse is the /query response shape (and the per-line payload
// of /batch). Version is the served document's monotonic version — the
// key the cluster router's answer cache is invalidated by.
type QueryResponse struct {
	Query    string     `json:"query"`
	Fragment string     `json:"fragment"`
	Strategy string     `json:"strategy"`
	Version  uint64     `json:"version,omitempty"`
	Fallback bool       `json:"fallback,omitempty"`
	Value    *ValueJSON `json:"value,omitempty"`
	Error    string     `json:"error,omitempty"`
	// Trace is the request's span tree, present only when the client
	// asked for it with ?trace=1 (the EXPLAIN ANALYZE of this protocol).
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

// BatchLine is one streamed /batch result: the job's input index plus
// the same shape /query responds with. Lines are emitted in completion
// order; consumers reassemble input order from "index". Doc is set
// only on grouped (jobs-form) batches, where one stream spans several
// documents; Missing marks an error line whose cause is specifically
// an absent document, so a router holding replicas knows the job is
// worth retrying on a successor node (any other error is final).
type BatchLine struct {
	Index   int    `json:"index"`
	Doc     string `json:"doc,omitempty"`
	Missing bool   `json:"missing,omitempty"`
	// RequestID tags every line of a stream with the request's ID so a
	// scattered batch's lines can be correlated with router and backend
	// logs after the merge.
	RequestID string `json:"request_id,omitempty"`
	QueryResponse
}

// DocInfo is one entry of the GET /documents listing. IdleMs is the
// idle-eviction signal: milliseconds since the document was last
// queried (see -maxidle); Version is the document's monotonic version
// (replicas and caches compare it to detect staleness).
type DocInfo struct {
	Name    string `json:"name"`
	Nodes   int    `json:"nodes"`
	Bytes   int64  `json:"bytes"`
	IdleMs  int64  `json:"idle_ms"`
	Version uint64 `json:"version,omitempty"`
	// XML carries the serialized document only on single-document
	// fetches (GET /documents?name=); listings omit it.
	XML string `json:"xml,omitempty"`
}

// kindName renders a value kind for the JSON API (the xpath package's
// String() forms are the paper's terse type names).
func kindName(k xpath.Type) string {
	switch k {
	case xpath.TypeNumber:
		return "number"
	case xpath.TypeString:
		return "string"
	case xpath.TypeBoolean:
		return "boolean"
	default:
		return "node-set"
	}
}

// render turns an evaluation outcome into the answer's envelope,
// annotating it with the fragment classification off the compiled query
// and the strategy off the Result — the one the session actually ran,
// post-fallback. It must never re-derive the strategy: a result rescued
// by the table-limit fallback would report the strategy that failed.
// The value is not rendered here: the encoder appends it from the
// document (see resultValue and encode.go).
//
// The document version is a required argument, not an afterthought:
// every response constructor must carry it so the (doc, query,
// version)-keyed caches in front of this node are never poisoned by an
// unversioned answer. Callers read it BEFORE acquiring the session
// (see handleQuery for the race argument).
func render(ver uint64, res *engine.Result) QueryResponse {
	resp := QueryResponse{Query: res.Query, Version: ver}
	if res.Compiled != nil {
		resp.Fragment = res.Compiled.Fragment().String()
		resp.Strategy = res.Strategy.String()
	}
	if res.FellBack {
		resp.Fallback = true
	}
	if res.Err != nil {
		resp.Error = res.Err.Error()
	}
	return resp
}

// resultValue is the value an answer to res carries: none when the
// query failed.
func resultValue(res *engine.Result) *core.Value {
	if res.Err != nil {
		return nil
	}
	return &res.Value
}

// handleDocuments manages the corpus: POST registers, GET lists with
// idle ages (or fetches one document, serialized XML included, with
// ?name=), DELETE evicts.
func (s *Server) handleDocuments(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleDocumentPost(w, r)
	case http.MethodGet:
		if name := r.URL.Query().Get("name"); name != "" {
			s.handleDocumentGet(w, name)
			return
		}
		docs := []DocInfo{}
		s.docs.Range(func(name string, sess *engine.Session, size int64) bool {
			docs = append(docs, DocInfo{
				Name:    name,
				Nodes:   sess.Document().Len(),
				Bytes:   size,
				IdleMs:  sess.IdleFor().Milliseconds(),
				Version: s.docVersion(name),
			})
			return true
		})
		sort.Slice(docs, func(i, j int) bool { return docs[i].Name < docs[j].Name })
		WriteJSON(w, http.StatusOK, map[string]any{"documents": docs})
	case http.MethodDelete:
		name := r.URL.Query().Get("name")
		if name == "" {
			HTTPError(w, http.StatusBadRequest, "name is required")
			return
		}
		if !s.docs.Delete(name) {
			HTTPError(w, http.StatusNotFound, "unknown document %q", name)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"deleted": name})
	default:
		HTTPError(w, http.StatusMethodNotAllowed, "POST a {name, xml} object, GET to list (?name= for one), DELETE ?name= to evict")
	}
}

// handleDocumentGet serves one document including its serialized XML —
// the read half of the remote store protocol (cluster.Remote.Get).
// The version is read BEFORE the session so a replacement racing this
// fetch can only under-label the XML (harmless: a mirror write at the
// older version loses to the real newer one), never pair old content
// with the new version — which a reshard would then copy and the
// stale-write guard make permanent.
func (s *Server) handleDocumentGet(w http.ResponseWriter, name string) {
	ver := s.docVersion(name)
	sess, ok := s.docs.Get(name)
	if !ok {
		HTTPError(w, http.StatusNotFound, "unknown document %q", name)
		return
	}
	xml := sess.Document().XMLString()
	WriteJSON(w, http.StatusOK, DocInfo{
		Name:    name,
		Nodes:   sess.Document().Len(),
		Bytes:   int64(len(xml)),
		IdleMs:  sess.IdleFor().Milliseconds(),
		Version: ver,
		XML:     xml,
	})
}

func (s *Server) handleDocumentPost(w http.ResponseWriter, r *http.Request) {
	var req DocumentRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	if req.Name == "" || req.XML == "" {
		HTTPError(w, http.StatusBadRequest, "both name and xml are required")
		return
	}
	n, ver, err := s.addDocument(r.Context(), req.Name, req.XML, req.Version)
	switch {
	case errors.Is(err, store.ErrFull):
		HTTPError(w, http.StatusInsufficientStorage, "document store full: %v; delete or replace a document, or raise -max-docs/-maxbytes", err)
		return
	case errors.Is(err, store.ErrTooLarge):
		HTTPError(w, http.StatusRequestEntityTooLarge, "document %s exceeds the per-shard byte budget: %v", req.Name, err)
		return
	case err != nil:
		HTTPError(w, http.StatusBadRequest, "parse %s: %v", req.Name, err)
		return
	}
	buf := getBuffer()
	defer putBuffer(buf)
	buf.b = AppendDocumentResponse(buf.b, &DocumentResponse{Name: req.Name, Nodes: n, Version: ver})
	WriteJSONBytes(w, http.StatusOK, buf.b)
}

// handleQuery accepts POST {doc, query} or GET ?doc=...&q=... (the
// curl-friendly form). Evaluation is tied to the request context: a
// client that disconnects stops its query at the next checkpoint.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	switch r.Method {
	case http.MethodGet:
		req.Doc = r.URL.Query().Get("doc")
		req.Query = r.URL.Query().Get("q")
	case http.MethodPost:
		if !DecodeJSON(w, r, &req) {
			return
		}
	default:
		HTTPError(w, http.StatusMethodNotAllowed, "GET ?doc=&q= or POST {doc, query}")
		return
	}
	if req.Doc == "" || req.Query == "" {
		HTTPError(w, http.StatusBadRequest, "both doc and query are required")
		return
	}
	// The version is read BEFORE the session: if a replacement lands
	// between the two, the answer is the new document's labeled with
	// the old version — at worst a cache miss downstream. The other
	// order would label an old answer with the new version, poisoning
	// every (doc, query, version)-keyed cache in front of this node.
	ver := s.docVersion(req.Doc)
	sess, ok := s.Session(req.Doc)
	if !ok {
		HTTPError(w, http.StatusNotFound, "unknown document %q", req.Doc)
		return
	}
	res := sess.DoContext(r.Context(), req.Query)
	s.writeAnswer(w, r, sess, ver, &res)
}

// writeAnswer is /query from the evaluation's outcome to the last
// byte: the answer is encoded into a pooled buffer, the value straight
// from the document, and sent in one Write. What it allocates does not
// depend on how much the answer renders (TestAnswerAllocsDoNotGrow).
func (s *Server) writeAnswer(w http.ResponseWriter, r *http.Request, sess *engine.Session, ver uint64, res *engine.Result) {
	_, ser := obs.StartSpan(r.Context(), "serialize")
	resp := render(ver, res)
	buf := getBuffer()
	defer putBuffer(buf)
	buf.b = appendAnswer(buf.b, nil, &resp, sess.Document(), resultValue(res))
	ser.End()
	var trace *obs.TraceJSON
	if obs.TraceRequested(r) {
		// Reported before the response is written: open spans (the root
		// route span) close "as of now", so the stage durations in the
		// report sum to within the reported total.
		trace = obs.TraceFrom(r.Context()).Report()
	}
	buf.b = closeAnswer(buf.b, trace)
	status := http.StatusOK
	switch {
	case errors.Is(res.Err, engine.ErrInternal):
		status = http.StatusInternalServerError
	case res.Err != nil:
		status = http.StatusUnprocessableEntity
	}
	WriteJSONBytes(w, status, buf.b)
}

// handleBatch streams per-job results as chunked JSON lines
// (application/x-ndjson): each line carries the job's input index and
// is written the moment its worker finishes, so the first results are
// on the wire while later queries are still evaluating. The batch is
// wired to the request context end to end — when the client
// disconnects, queued queries are never dispatched and in-flight
// evaluations stop at their next cancellation checkpoint.
//
// The single-document form ({doc, queries}) answers 404 when the
// document is unknown. The grouped jobs form spans documents, so an
// absent document there is a per-job condition, not a request failure:
// its jobs yield error lines flagged "missing" and every other job
// still evaluates — the degradation contract the cluster router's
// per-node streams rely on.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		HTTPError(w, http.StatusMethodNotAllowed, "POST a {doc, queries} or {jobs} object")
		return
	}
	var req BatchRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	if (req.Doc == "") == (len(req.Jobs) == 0) {
		HTTPError(w, http.StatusBadRequest, "exactly one of doc+queries or jobs is required")
		return
	}
	if req.Doc != "" {
		// Version before session, as in handleQuery: mislabeling an old
		// answer with a new version would poison downstream caches.
		ver := s.docVersion(req.Doc)
		sess, ok := s.Session(req.Doc)
		if !ok {
			HTTPError(w, http.StatusNotFound, "unknown document %q", req.Doc)
			return
		}
		ctx, writeLine := s.startBatchStream(w, r)
		sess.StreamBatch(ctx, req.Queries, func(i int, res engine.Result) {
			writeLine(&BatchLine{Index: i, QueryResponse: render(ver, &res)}, sess.Document(), resultValue(&res))
		})
		return
	}
	s.handleJobsBatch(w, r, req.Jobs)
}

// startBatchStream commits the response to NDJSON streaming and
// returns the request context plus a line writer that is safe for
// concurrent use and drops lines once the client is gone. A line's
// value is rendered from (d, v) as in /query; both are nil on a line
// that carries an error. Workers encode their lines side by side and
// take the lock only to put the finished bytes on the wire.
func (s *Server) startBatchStream(w http.ResponseWriter, r *http.Request) (context.Context, func(*BatchLine, *core.Document, *core.Value)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	ctx := r.Context()
	id := obs.RequestID(ctx)
	var mu sync.Mutex
	return ctx, func(line *BatchLine, d *core.Document, v *core.Value) {
		if line.RequestID == "" {
			line.RequestID = id
		}
		buf := getBuffer()
		defer putBuffer(buf)
		buf.b = closeAnswer(appendAnswer(buf.b, line, &line.QueryResponse, d, v), nil)
		mu.Lock()
		defer mu.Unlock()
		if ctx.Err() != nil {
			return // client is gone; drop the line, workers are winding down
		}
		w.Write(buf.b)
		if fl != nil {
			fl.Flush()
		}
	}
}

// handleJobsBatch runs the grouped form: jobs spanning several
// documents in one stream. Jobs are grouped per document and each
// document's group runs through its session's worker pool; the groups
// stream concurrently into one merged completion-order response, every
// line re-tagged with the global job index and its document.
func (s *Server) handleJobsBatch(w http.ResponseWriter, r *http.Request, jobs []BatchJob) {
	byDoc := map[string][]int{} // doc -> global job indices, input order
	for i, j := range jobs {
		byDoc[j.Doc] = append(byDoc[j.Doc], i)
	}
	ctx, writeLine := s.startBatchStream(w, r)
	var wg sync.WaitGroup
	for doc, indices := range byDoc {
		// Version before session, as in handleQuery, per document.
		ver := s.docVersion(doc)
		sess, ok := s.Session(doc)
		if !ok {
			for _, gi := range indices {
				writeLine(&BatchLine{
					Index: gi, Doc: doc, Missing: true,
					//lint:ignore wiretag the document is unknown, so there is no version to carry; Missing marks the line as uncacheable
					QueryResponse: QueryResponse{
						Query: jobs[gi].Query,
						Error: fmt.Sprintf("unknown document %q", doc),
					},
				}, nil, nil)
			}
			continue
		}
		queries := make([]string, len(indices))
		for k, gi := range indices {
			queries[k] = jobs[gi].Query
		}
		wg.Add(1)
		go func(doc string, sess *engine.Session, ver uint64, indices []int, queries []string) {
			defer wg.Done()
			sess.StreamBatch(ctx, queries, func(k int, res engine.Result) {
				writeLine(&BatchLine{Index: indices[k], Doc: doc, QueryResponse: render(ver, &res)}, sess.Document(), resultValue(&res))
			})
		}(doc, sess, ver, indices, queries)
	}
	wg.Wait()
}

// handleHealthz is the liveness probe the cluster router polls: cheap,
// allocation-light, 200 while the process serves and 503 once a
// graceful shutdown begins (BeginDrain) so routers divert new work
// while in-flight requests finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		HTTPError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	out := map[string]any{
		"ok":        true,
		"documents": s.docs.Stats().Entries,
		"uptime_ms": obs.UptimeMillis(),
		"build":     obs.Build(),
	}
	if s.draining.Load() {
		out["ok"] = false
		out["draining"] = true
		WriteJSON(w, http.StatusServiceUnavailable, out)
		return
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		HTTPError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.eng.Stats()
	type docStat struct {
		Nodes   int    `json:"nodes"`
		Version uint64 `json:"version"`
	}
	docs := map[string]docStat{}
	s.docs.Range(func(name string, sess *engine.Session, _ int64) bool {
		docs[name] = docStat{Nodes: sess.Document().Len(), Version: s.docVersion(name)}
		return true
	})
	// The benchmark driver still reads planner.{decisions,explored,bans}
	// and cache.rejects (benchmark/counts.go). There is no planner and
	// no admission policy: decisions is the queries Auto resolved by the
	// table, the rest are constant 0 until the follow-up [benchmark]
	// issue named in internal/planner stops reading them.
	var decisions uint64
	if s.eng.Strategy() == core.Auto {
		decisions = st.Queries
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"cache": map[string]any{
			"hits":               st.Hits,
			"misses":             st.Misses,
			"evictions":          st.Evictions,
			"rejects":            0,
			"size":               st.Size,
			"capacity":           st.Capacity,
			"hit_rate":           st.HitRate(),
			"compile_ns_saved":   st.CompileNanosSaved,
			"compile_time_saved": (time.Duration(st.CompileNanosSaved)).String(),
		},
		"in_flight": st.InFlight,
		"fallbacks": st.Fallbacks,
		"strategy":  s.eng.Strategy().String(),
		"planner":   map[string]any{"mode": "rules", "decisions": decisions, "explored": 0, "bans": 0},
		"documents": docs,
		"store":     s.docs.Stats(),
	})
}

// readBody reads a request body into a pooled buffer, which is the
// caller's to put back, writing the error response itself on failure
// (413 when the body tripped the size limit).
func readBody(w http.ResponseWriter, r *http.Request) (*buffer, bool) {
	buf := getBuffer()
	rd := bytes.NewBuffer(buf.b)
	_, err := rd.ReadFrom(r.Body)
	buf.b = rd.Bytes() // grown, perhaps: that is what goes back to the pool
	if err != nil {
		putBuffer(buf)
		writeDecodeError(w, err)
		return nil, false
	}
	return buf, true
}

// ReadBody is the read half of DecodeJSON for a caller that relays the
// body instead of decoding it (the cluster router's registrations): the
// bytes are the caller's until it calls release.
func ReadBody(w http.ResponseWriter, r *http.Request) (body []byte, release func(), ok bool) {
	buf, ok := readBody(w, r)
	if !ok {
		return nil, nil, false
	}
	return buf.b, func() { putBuffer(buf) }, true
}

// DecodeJSON parses a request body into dst, writing the error
// response itself on failure: 413 when the body tripped the size
// limit, 400 for malformed JSON — which includes anything but
// whitespace after the object. A dst that can read itself (ScanJSON:
// the three request envelopes, see encode.go) is asked first; whatever
// it declines, and every other dst, goes through json.Unmarshal, so
// what a body means is encoding/json's to say either way. Nothing in
// dst points into the pooled buffer the body was read into. Exported
// because the cluster router speaks this package's wire format and
// must fail identically.
func DecodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	buf, ok := readBody(w, r)
	if !ok {
		return false
	}
	defer putBuffer(buf)
	if s, ok := dst.(interface{ ScanJSON([]byte) bool }); ok && s.ScanJSON(buf.b) {
		return true
	}
	if err := json.Unmarshal(buf.b, dst); err != nil {
		writeDecodeError(w, err)
		return false
	}
	return true
}

// writeDecodeError answers a request whose body could not be read or
// was not the JSON expected.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		HTTPError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return
	}
	HTTPError(w, http.StatusBadRequest, "invalid JSON: %v", err)
}

// WriteJSONBytes sends an already encoded JSON body with the given
// status: Content-Length and one Write, so a response is never chunked.
// Every JSON response of this package and of the cluster router leaves
// through it.
func WriteJSONBytes(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// WriteJSON writes v as a compact JSON response with the given status —
// the writer of every endpoint that is not an answer (/documents,
// /stats, /healthz; the cluster router's too), so the wire format
// cannot drift between them. Answers are encoded by hand, see
// encode.go. A value encoding/json refuses becomes a 500 that says so
// instead of a 200 without a body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	WriteJSONBytes(w, status, append(body, '\n'))
}

// HTTPError writes the protocol's {"error": ...} failure shape.
func HTTPError(w http.ResponseWriter, status int, format string, args ...any) {
	body := AppendJSONString([]byte(`{"error":`), fmt.Sprintf(format, args...))
	WriteJSONBytes(w, status, append(body, '}', '\n'))
}

// DocNames returns the registered document names, sorted (for logs).
func (s *Server) DocNames() []string {
	var names []string
	s.docs.Range(func(name string, _ *engine.Session, _ int64) bool {
		names = append(names, name)
		return true
	})
	sort.Strings(names)
	return names
}
