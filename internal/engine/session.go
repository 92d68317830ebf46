package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// ErrInternal is what a panicking evaluator becomes: the error of its
// own query, not the end of the connection (/query) or of the process
// (a /batch worker goroutine).
var ErrInternal = errors.New("engine: internal error")

// Session binds a parsed document to an Engine. All evaluations run
// from the document root with the engine's strategy and share the
// engine's compiled-query cache. A Session is safe for concurrent use;
// many sessions (one per document) may share one Engine. Sessions are
// what the serving layer's document store holds: one entry per
// registered document.
type Session struct {
	eng     *Engine
	doc     *core.Document
	en      *core.Engine
	workers int

	// lastUsed is the unix-nano timestamp of the most recent query
	// dispatched against this session (its creation time before any
	// query). The serving layer's idle eviction reads it through
	// LastUsed/IdleFor to trim documents that have gone cold.
	lastUsed atomic.Int64
}

// NewSession creates a session over a document.
func (e *Engine) NewSession(d *core.Document) *Session {
	en := core.NewEngine(d, e.opts.Strategy)
	s := &Session{eng: e, doc: d, en: en, workers: e.opts.Workers}
	s.lastUsed.Store(time.Now().UnixNano())
	return s
}

// Document returns the session's document.
func (s *Session) Document() *core.Document { return s.doc }

// LastUsed returns the time the most recent query against this session
// began (the session's creation time if it has never been queried).
func (s *Session) LastUsed() time.Time {
	return time.Unix(0, s.lastUsed.Load())
}

// IdleFor reports how long the session has gone without a query.
func (s *Session) IdleFor() time.Duration {
	return time.Since(s.LastUsed())
}

// Result is the full outcome of one query: the compiled form (nil when
// compilation failed) and exactly one of Value and Err.
type Result struct {
	Query    string
	Compiled *core.Query
	Value    core.Value
	Err      error
	// Strategy is the concrete algorithm that produced the value, Auto
	// resolved. Reporting layers use it verbatim rather than re-deriving
	// it from the query.
	Strategy core.Strategy
}

// Do compiles src through the engine's cache and evaluates it from the
// document root, returning the full outcome. Callers that need the
// fragment classification or chosen algorithm read them off
// Result.Compiled without a second cache lookup.
func (s *Session) Do(src string) Result {
	return s.DoContext(context.Background(), src)
}

// DoContext is Do with cancellation: evaluation is abandoned with ctx's
// error (in Result.Err) once ctx is done.
func (s *Session) DoContext(ctx context.Context, src string) Result {
	res := Result{Query: src}
	q, err := s.eng.CompileContext(ctx, src)
	if err != nil {
		res.Err = err
		return res
	}
	res.Compiled = q
	res.Value, res.Strategy, res.Err = s.evaluate(ctx, q)
	return res
}

// Query compiles src through the engine's cache and evaluates it from
// the document root.
func (s *Session) Query(src string) (core.Value, error) {
	res := s.Do(src)
	return res.Value, res.Err
}

// Evaluate runs an already-compiled query from the document root.
func (s *Session) Evaluate(q *core.Query) (core.Value, error) {
	return s.EvaluateContext(context.Background(), q)
}

// EvaluateContext runs an already-compiled query from the document
// root, abandoning the evaluation once ctx is done.
func (s *Session) EvaluateContext(ctx context.Context, q *core.Query) (core.Value, error) {
	v, _, err := s.evaluate(ctx, q)
	return v, err
}

// evaluate is the one evaluation path: in-flight accounting and the
// strategy decision (core.Engine.StrategyFor, made once and returned so
// that what is reported is what ran). Every goroutine a query runs on
// passes through here, so this is also where a panic is recovered into
// ErrInternal, its stack logged once under the request ID.
func (s *Session) evaluate(ctx context.Context, q *core.Query) (v core.Value, strat core.Strategy, err error) {
	s.lastUsed.Store(time.Now().UnixNano())
	s.eng.inFlight.Add(1)
	defer s.eng.inFlight.Add(-1)
	m := s.eng.metrics
	m.queries.Inc()
	defer func() {
		if r := recover(); r != nil {
			slog.Error("evaluator panic", "request_id", obs.RequestID(ctx), "panic", r, "stack", string(debug.Stack()))
			v, err = core.Value{}, fmt.Errorf("%w: %v", ErrInternal, r)
		}
		if err != nil {
			m.errors.Inc()
		}
	}()
	frag := q.Fragment().Label()
	strat = s.en.StrategyFor(q)
	ectx, span := obs.StartSpan(ctx, "evaluate")
	span.SetAttr("fragment", frag)
	span.SetAttr("strategy", strat.String())
	start := time.Now()
	root := core.Context{Node: s.doc.RootID(), Pos: 1, Size: 1}
	v, err = s.en.EvaluateStrategy(ectx, q, root, strat)
	span.End()
	elapsed := time.Since(start)
	m.stage.With("evaluate").Observe(elapsed.Seconds())
	m.query.With(frag, strat.String()).Observe(elapsed.Seconds())
	return v, strat, err
}

// Batch evaluates queries concurrently over a worker pool bounded by
// Options.Workers and returns results in input order. One failing
// query does not abort the rest; each Result carries its own error.
func (s *Session) Batch(queries []string) []Result {
	out := make([]Result, len(queries))
	s.StreamBatch(context.Background(), queries, func(i int, res Result) { out[i] = res })
	return out
}

// StreamBatch evaluates queries concurrently over the session's worker
// pool and hands each Result to emit the moment it is ready, tagged
// with the query's input index — no buffering, no input-order barrier.
// Calls to emit are serialized (emit itself need not be thread-safe)
// but arrive in completion order. When ctx is cancelled, in-flight
// evaluations are abandoned at their next checkpoint, not-yet-started
// queries are never dispatched, and StreamBatch returns ctx's error;
// it returns nil after emitting every result.
func (s *Session) StreamBatch(ctx context.Context, queries []string, emit func(int, Result)) error {
	workers := s.workers
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers <= 1 {
		for i, src := range queries {
			if err := ctx.Err(); err != nil {
				return err
			}
			emit(i, s.DoContext(ctx, src))
		}
		return ctx.Err()
	}
	var mu sync.Mutex
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res := s.DoContext(ctx, queries[i])
				mu.Lock()
				emit(i, res)
				mu.Unlock()
			}
		}()
	}
	for i := range queries {
		select {
		case idx <- i:
		case <-ctx.Done():
			close(idx)
			wg.Wait()
			return ctx.Err()
		}
	}
	close(idx)
	wg.Wait()
	return ctx.Err()
}
