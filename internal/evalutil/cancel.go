package evalutil

import "context"

// checkEvery throttles context checks: ctx.Err() involves an atomic
// load (and a mutex in some Context implementations), so hot evaluation
// loops only consult it once per this many checkpoint calls. 1024 keeps
// the overhead unmeasurable while still bounding the cancellation
// latency to a sliver of any long-running evaluation.
const checkEvery = 1024

// Canceller is a throttled cancellation checkpoint carried by a
// per-query evaluator. The zero value (or a nil pointer) never cancels,
// so engines whose callers use the plain Evaluate entry point pay one
// nil check per checkpoint and nothing else. A Canceller is not safe
// for concurrent use; each evaluation owns its own.
type Canceller struct {
	ctx   context.Context
	count int
}

// NewCanceller returns a checkpoint bound to ctx, or nil when ctx can
// never be cancelled (nil or context.Background()-like without a Done
// channel), keeping the uncancellable path free.
func NewCanceller(ctx context.Context) *Canceller {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return &Canceller{ctx: ctx}
}

// Check returns the context's error once cancelled, consulting the
// context only every checkEvery-th call. Call it inside every loop
// whose trip count grows with the document.
func (c *Canceller) Check() error { return c.CheckN(1) }

// CheckN bills n units of work against the checkpoint at once,
// consulting the context when the accumulated work crosses the
// throttle threshold. The linear engines use it to stay cancellable
// without per-node overhead: they process whole node sets in bulk
// operations (axis images, set intersections, document scans), so they
// bill each operation's set size instead of calling Check per node.
// Cancellation latency stays bounded by ~checkEvery units of work.
func (c *Canceller) CheckN(n int) error {
	if c == nil {
		return nil
	}
	c.count += n
	if c.count < checkEvery {
		return nil
	}
	c.count = 0
	return c.ctx.Err()
}
