// Package serve is the HTTP/JSON serving layer of the stack: it binds
// the document store (internal/store) and the concurrent
// evaluation engine (internal/engine) to a wire format. cmd/xpathserve
// is a thin flag-parsing shell around this package, and the cluster
// router (internal/cluster, cmd/xpathrouter) speaks the same wire
// format against many of these servers at once — which is why the
// request/response types are exported: they are the protocol shared by
// a node and the router in front of it.
//
// The layering is store (memory accounting + versions) → engine
// (compile cache + evaluation) → serve (wire format) → cluster
// (multi-process routing).
//
// # How a request reaches the surface
//
// One loop, one codec. xpathserve's and xpathrouter's listeners are
// served by a Loop (conn.go), not by net/http's server: each accepted
// connection gets one goroutine, which reads a request, runs it on the
// handler and answers it, one request at a time. The handler is the
// plain http.Handler surface — fault injector, obs.Middleware,
// MaxBytesReader, mux — so no endpoint knows which server carries it.
// Every caller speaks HTTP/1.1 (http1.go): clients, and cluster routers
// through PeerTransport, which keeps its connections alive between
// calls. http.ReadRequest frames the request; what net/http's server
// checks besides, the loop checks: the head is bounded at 1 MB + 4 KB
// (431) and 10 s, the wait between requests at 2 min; HTTP/1.1 needs a
// Host (400); header names and values are validated (400); Expect:
// 100-continue is honoured and any other expectation answered 417; a
// body its handler left unread is drained up to 256 KB, else the
// connection closes. httpWriter frames the answer by net/http's rules —
// a Content-Length for a finished short answer, chunked once flushed,
// Connection: close after HTTP/1.0, when asked or during a drain, a
// Date, a sniffed Content-Type — and puts head and body on the wire in
// one write.
//
// The Loop is the one registry of served connections. One watchdog
// ticks them every 10 ms: it closes a connection past its header or
// idle bound, and starts watching one whose request has run about 10 ms
// — its body read, so the watch never races the handler for the
// connection — for the client hanging up, which cancels the request's
// context; a failed write cancels it too. A handler's panic is
// recovered and logged (http.ErrAbortHandler silently) and closes the
// connection. Shutdown is the one drain. The pprof listener and the
// tests built on httptest keep net/http's server; TestConnAnswersAsNetHTTP
// holds the two to the same bytes.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
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
// store: every named document is an engine.Session held in a
// store.Store, and the corpus is bounded by the store's entry and byte
// budgets. A lookup hands out the session and its version together
// (Store.Get), so every answer is labelled with the version of the
// document that computed it.
type Server struct {
	eng     *engine.Engine
	maxBody int64
	docs    *store.Store[*engine.Session]

	// Observability: the registry is the engine's (one exposition for
	// all tiers), stage its xpath_stage_seconds family (serve records
	// parse into it), and mw the request middleware with
	// its trace ring, slow-query threshold and logger.
	reg   *obs.Registry
	stage *obs.HistogramVec
	mw    *obs.Middleware

	// draining flips /healthz to 503 during graceful shutdown so load
	// balancers and the cluster router stop routing here while
	// in-flight requests finish; faults, when set, is the -fault-spec
	// injection middleware wrapped around the handler.
	draining atomic.Bool
	faults   *resilience.Faults

	// conns serves Handler (built once, the first time Serve is
	// called) and registers every connection it serves; Shutdown
	// drains them.
	conns   Loop
	serving sync.Once
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
		docs:    store.New[*engine.Session](cfg),
	}
	s.initObs()
	return s
}

// SetMaxBody overrides the request body size limit (DefaultMaxBodyBytes).
// Call before Handler.
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

// AddDocumentAt registers xml under name at an explicitly assigned
// version — the write half of replication and resharding, where a
// mirror must store the owner's document at the owner's version so
// staleness stays detectable. A zero ver self-assigns from the store's
// counter (AddDocument is this case). A ver at or below the resident
// document's version is a stale mirror write and is skipped.
func (s *Server) AddDocumentAt(name, xml string, ver uint64) (int, uint64, error) {
	return s.addDocument(context.Background(), name, xml, ver)
}

// addDocument is AddDocumentAt with trace plumbing: registration's one
// expensive stage — the parse, which lays out the structural index as
// it scans — gets a span and a stage-latency observation.
func (s *Server) addDocument(ctx context.Context, name, xml string, ver uint64) (int, uint64, error) {
	_, ps := obs.StartSpan(ctx, "parse")
	pstart := time.Now()
	d, err := core.ParseString(xml)
	ps.End()
	if err != nil {
		return 0, 0, err
	}
	s.stage.With("parse").ObserveSince(pstart)
	v, err := s.docs.PutAt(name, s.eng.NewSession(d), int64(len(xml)), ver)
	if err != nil {
		return 0, 0, err
	}
	return d.Len(), v, nil
}

// Session returns the session serving a named document.
func (s *Server) Session(name string) (*engine.Session, bool) {
	sess, _, ok := s.docs.Get(name)
	return sess, ok
}

// EvictIdle deletes every document whose session has not been queried
// for longer than maxIdle, returning the evicted names. The idle check
// is re-evaluated against the currently stored session under the store
// lock (store.Store.DeleteIf), so neither a document queried after
// the scan nor one re-registered after it (a different session under
// the same name) can be evicted by a stale snapshot. A query that
// begins in the same instant may still race the eviction, which is
// acceptable for an idle-trimming policy (the client simply
// re-registers).
func (s *Server) EvictIdle(maxIdle time.Duration) []string {
	var cold []string
	s.docs.Range(func(name string, sess *engine.Session, _ int64, _ uint64) bool {
		if sess.IdleFor() > maxIdle {
			cold = append(cold, name)
		}
		return true
	})
	stillIdle := func(sess *engine.Session, _ int64) bool {
		return sess.IdleFor() > maxIdle
	}
	var evicted []string
	for _, name := range cold {
		if s.docs.DeleteIf(name, stillIdle) {
			evicted = append(evicted, name)
		}
	}
	return evicted
}

// Handler returns the server's HTTP handler: the surface clients and
// cluster routers alike reach.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/documents", s.handleDocuments)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("/debug/traces", s.mw.Traces.Handler())
	h := s.mw.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		mux.ServeHTTP(w, r)
	}))
	// Fault injection wraps the whole surface so injected refusals and
	// cuts hit exactly what a real network fault would.
	return s.faults.Handler(h)
}

// Serve serves Handler on ln through the server's connection loop (see
// Loop) until Shutdown, when it returns http.ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.serving.Do(func() { s.conns.h = s.Handler() })
	return s.conns.Serve(ln)
}

// Shutdown drains the server: listeners close, idle connections close
// at once, busy ones — a client's or a router's — once their in-flight
// request has been answered. It returns when all are closed, or with
// ctx's error, the rest closed mid-request, once ctx is done.
func (s *Server) Shutdown(ctx context.Context) error { return s.conns.Shutdown(ctx) }

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

// MaxBatchJobs bounds the jobs of one /batch, a server's and the
// cluster router's alike: its queries, its jobs, or the router's
// documents × queries. A batch over it is refused with 413
// (ErrBatchTooLarge) before a job exists or a backend is called.
const MaxBatchJobs = 10000

// ErrBatchTooLarge is the refusal of a batch of more than MaxBatchJobs
// jobs; a 413's message starts with it.
var ErrBatchTooLarge = fmt.Errorf("batch exceeds %d jobs", MaxBatchJobs)

// RefuseBatch writes the 413 and reports true when docs × queries
// exceeds MaxBatchJobs; the product is never formed, so it cannot
// overflow.
func RefuseBatch(w http.ResponseWriter, docs, queries int) bool {
	if docs == 0 || queries <= MaxBatchJobs/docs {
		return false
	}
	HTTPError(w, http.StatusRequestEntityTooLarge, "%v: %d documents × %d queries", ErrBatchTooLarge, docs, queries)
	return true
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
// and the strategy off the Result — the one the session actually ran.
// The value is not rendered here: the encoder appends it from the
// document (see resultValue and encode.go).
//
// The document version is a required argument, not an afterthought:
// every response constructor must carry it so the (doc, query,
// version)-keyed caches in front of this node are never poisoned by an
// unversioned answer. It is the version Store.Get returned with the
// session that evaluated the query.
func render(ver uint64, res *engine.Result) QueryResponse {
	resp := QueryResponse{Query: res.Query, Version: ver}
	if res.Compiled != nil {
		resp.Fragment = res.Compiled.Fragment().String()
		resp.Strategy = res.Strategy.String()
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
		s.docs.Range(func(name string, sess *engine.Session, size int64, ver uint64) bool {
			docs = append(docs, DocInfo{
				Name:    name,
				Nodes:   sess.Document().Len(),
				Bytes:   size,
				IdleMs:  sess.IdleFor().Milliseconds(),
				Version: ver,
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
// what the router, repair and reshard fetch (cluster.Node.GetDocument);
// the last two copy it elsewhere at its version. The XML and the
// version come from one Store.Get, so they always belong together:
// old content paired with a newer version would be copied by a reshard
// and made permanent by the stale-write guard.
func (s *Server) handleDocumentGet(w http.ResponseWriter, name string) {
	sess, ver, ok := s.docs.Get(name)
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
		HTTPError(w, http.StatusRequestEntityTooLarge, "document %s exceeds the store's whole byte budget (-maxbytes): %v", req.Name, err)
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
	sess, ver, ok := s.docs.Get(req.Doc)
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
	case errors.Is(res.Err, xpath.ErrTooDeep):
		status = http.StatusBadRequest
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
	jobs := len(req.Jobs)
	if req.Doc != "" {
		jobs = len(req.Queries)
	}
	if RefuseBatch(w, 1, jobs) {
		return
	}
	if req.Doc != "" {
		sess, ver, ok := s.docs.Get(req.Doc)
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

// OpenStream commits w to an NDJSON stream and sends the headers at
// once, not with the first line: a client that bounds its wait for them
// (a router's peer client waits its timeout) sees a slow first answer as
// a stream in progress. It returns the stream's line writer, safe for
// concurrent use, which drops lines once ctx is done (the client is
// gone). Writers are counted from the moment they have a line until it
// is written, and only the one that brings the count to zero flushes: a
// burst of lines shares one flush, and no line waits while the stream
// is idle.
func OpenStream(ctx context.Context, w http.ResponseWriter) func(line []byte) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.Flush()
	var mu sync.Mutex
	var waiting atomic.Int32
	return func(line []byte) {
		waiting.Add(1)
		mu.Lock()
		defer mu.Unlock()
		if ctx.Err() == nil {
			w.Write(line)
		}
		if waiting.Add(-1) == 0 {
			rc.Flush()
		}
	}
}

// startBatchStream commits the response to NDJSON streaming
// (OpenStream) and returns the request context plus a line writer with
// OpenStream's guarantees. A line's value is rendered from (d, v) as in
// /query; both are nil on a line that carries an error. Workers encode
// their lines side by side and share the stream only to put the
// finished bytes on the wire.
func (s *Server) startBatchStream(w http.ResponseWriter, r *http.Request) (context.Context, func(*BatchLine, *core.Document, *core.Value)) {
	ctx := r.Context()
	write := OpenStream(ctx, w)
	id := obs.RequestID(ctx)
	return ctx, func(line *BatchLine, d *core.Document, v *core.Value) {
		if line.RequestID == "" {
			line.RequestID = id
		}
		buf := getBuffer()
		defer putBuffer(buf)
		buf.b = closeAnswer(appendAnswer(buf.b, line, &line.QueryResponse, d, v), nil)
		write(buf.b)
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
		sess, ver, ok := s.docs.Get(doc)
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
	s.docs.Range(func(name string, sess *engine.Session, _ int64, ver uint64) bool {
		docs[name] = docStat{Nodes: sess.Document().Len(), Version: ver}
		return true
	})
	// cache.rejects counts the compile misses the cache's doorkeeper did
	// not admit: a text's first miss is compiled and answered, and only
	// its second is cached (see engine.Stats.Rejects). The benchmark
	// driver also reads fallbacks and planner.{decisions,explored,bans}
	// (benchmark/counts.go). There is no planner and no fallback:
	// decisions is the queries Auto resolved by the table; fallbacks,
	// explored and bans are constant 0 until the follow-up [benchmark]
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
			"rejects":            st.Rejects,
			"size":               st.Size,
			"capacity":           st.Capacity,
			"hit_rate":           st.HitRate(),
			"compile_ns_saved":   st.CompileNanosSaved,
			"compile_time_saved": (time.Duration(st.CompileNanosSaved)).String(),
		},
		"in_flight": st.InFlight,
		"fallbacks": 0,
		"strategy":  s.eng.Strategy().String(),
		"planner":   map[string]any{"mode": "rules", "decisions": decisions, "explored": 0, "bans": 0},
		"documents": docs,
		"store":     s.docs.Stats(),
	})
}

// readBody reads a request body into a pooled buffer, which is the
// caller's to put back, writing the error response itself on failure
// (413 when the body tripped the size limit). A body that declares its
// length is read into room for all of it (up to maxPooledBuffer,
// growing past that as bytes arrive), so a document upload is read
// once, not copied through every doubling of the buffer.
func readBody(w http.ResponseWriter, r *http.Request) (*buffer, bool) {
	buf := getBuffer()
	// bytes.MinRead: ReadFrom wants that much room for the read that
	// sees EOF, and would double a buffer that had only the body's.
	if want := min(r.ContentLength+bytes.MinRead, maxPooledBuffer); want > int64(cap(buf.b)) {
		buf.b = make([]byte, 0, want)
	}
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
	s.docs.Range(func(name string, _ *engine.Session, _ int64, _ uint64) bool {
		names = append(names, name)
		return true
	})
	sort.Strings(names)
	return names
}
