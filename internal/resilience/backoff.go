package resilience

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/guard"
)

// The backoff shape: first retry waits up to ~25ms, growth is
// exponential, and no single wait exceeds a second — long enough to
// let a blip pass, short enough that a request's deadline survives a
// couple of attempts.
const (
	DefaultBackoffBase = 25 * time.Millisecond
	DefaultBackoffCap  = time.Second
)

// Backoff produces jittered exponential retry delays: attempt k draws
// uniformly from (0, min(cap, base<<k)] ("full jitter"), so
// concurrent retriers decorrelate instead of hammering a recovering
// peer in lockstep. Safe for concurrent use; a nil Backoff always
// returns zero delay.
type Backoff struct {
	base, cap time.Duration
	rng       guard.Locked[rand.Rand]
}

// NewBackoff creates a Backoff of DefaultBackoffBase and
// DefaultBackoffCap. Seed 0 derives one from the clock (pass a fixed
// seed for reproducible tests and chaos runs).
func NewBackoff(seed int64) *Backoff {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Backoff{base: DefaultBackoffBase, cap: DefaultBackoffCap, rng: guard.New(*rand.New(rand.NewSource(seed)))}
}

// Delay returns the wait before retry attempt k (0-based: Delay(0)
// precedes the first retry). The result is jittered and bounded by
// the cap; a nil Backoff returns 0.
func (b *Backoff) Delay(attempt int) time.Duration {
	if b == nil {
		return 0
	}
	d := b.base
	for i := 0; i < attempt && d < b.cap; i++ {
		d *= 2
	}
	if d > b.cap {
		d = b.cap
	}
	n := b.rng.Lock().Int63n(int64(d))
	b.rng.Unlock()
	return time.Duration(n) + 1
}

// Sleep waits for d or until ctx is done, returning ctx.Err() in the
// latter case — the retry loop's pause primitive, so a client
// disconnect ends the backoff wait immediately.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// attemptsKey carries the retry chain's remaining attempt count in a
// context.
type attemptsKey struct{}

// WithAttemptsLeft annotates ctx with how many attempts (this one
// included) the caller's retry chain still has — the signal
// CarveAttempt divides the remaining deadline by.
func WithAttemptsLeft(ctx context.Context, n int) context.Context {
	if n < 1 {
		n = 1
	}
	return context.WithValue(ctx, attemptsKey{}, n)
}

// AttemptsLeft reads the annotation set by WithAttemptsLeft (1 when
// absent: an unannotated call is its own last attempt).
func AttemptsLeft(ctx context.Context) int {
	if n, ok := ctx.Value(attemptsKey{}).(int); ok && n > 0 {
		return n
	}
	return 1
}

// CarveAttempt derives one attempt's context: its deadline is
// min(flat, remaining caller deadline / attempts left), so a tight
// client deadline is split across the retries still to come instead
// of the first attempt consuming all of it, and a generous one is
// still clipped by the per-call flat timeout. With no caller deadline
// the flat timeout alone applies; a non-positive flat with no caller
// deadline leaves the context unbounded.
//
// The returned context is a child: when its carved deadline trips
// while the caller's context is still live, the failure reads as the
// attempt's (a slow peer — retryable), not the caller's.
func CarveAttempt(ctx context.Context, flat time.Duration) (context.Context, context.CancelFunc) {
	budget := flat
	if dl, ok := ctx.Deadline(); ok {
		share := time.Until(dl) / time.Duration(AttemptsLeft(ctx))
		if budget <= 0 || share < budget {
			budget = share
		}
	}
	if budget <= 0 {
		if _, ok := ctx.Deadline(); ok {
			// The caller's deadline has already passed; a zero-budget
			// child expires immediately, which is the honest outcome.
			return context.WithTimeout(ctx, 0)
		}
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, budget)
}

// Retry runs op up to attempts times, pacing retries with the backoff
// and carving each attempt's deadline from ctx. It stops early when
// op succeeds, when retryable (nil: retry everything) rejects the
// error, or when ctx ends; the last error is returned. This is the
// closure form of the router's inline retry loops, used where the
// operation targets one peer rather than walking candidates.
func Retry(ctx context.Context, attempts int, b *Backoff, op func(context.Context) error, retryable func(error) bool) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if serr := Sleep(ctx, b.Delay(i-1)); serr != nil {
				return err
			}
		}
		actx := WithAttemptsLeft(ctx, attempts-i)
		if err = op(actx); err == nil {
			return nil
		}
		if ctx.Err() != nil || (retryable != nil && !retryable(err)) {
			return err
		}
	}
	return err
}
