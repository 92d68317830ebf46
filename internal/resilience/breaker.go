package resilience

import (
	"time"

	"repro/internal/guard"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes calls through (the healthy state).
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen passes probe calls after a cooldown; a success
	// closes the breaker, a failure re-opens it.
	BreakerHalfOpen
	// BreakerOpen fails calls fast without touching the peer.
	BreakerOpen
)

// String renders the state for logs and /healthz.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// Breaker defaults: open after 5 consecutive failures, probe again
// after 5 seconds, close on the first successful probe.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 5 * time.Second
)

// Breaker is a per-peer circuit breaker. Closed, it counts
// consecutive failures and opens at the threshold; open, Allow fails
// fast until the cooldown elapses; then the breaker half-opens and
// calls probe the peer — the first success (SuccessesToClose of them)
// closes it, any failure re-opens it and restarts the cooldown.
//
// Safe for concurrent use. A nil Breaker allows everything and
// records nothing, so call sites need no breaker-configured branch.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	toClose   int
	now       func() time.Time // injectable clock for tests

	state guard.Locked[breakerState]
}

// breakerState is what a breaker's lock guards.
type breakerState struct {
	pos       BreakerState
	failures  int // consecutive failures while closed
	successes int // consecutive successes while half-open
	openedAt  time.Time
	opens     uint64 // cumulative closed/half-open -> open transitions
	changed   bool   // a state change awaits its onChange callback

	onChange func(BreakerState) // gauge hook, called outside the lock
}

// NewBreaker creates a Breaker opening after threshold consecutive
// failures (<= 0: DefaultBreakerThreshold) and probing again after
// cooldown (<= 0: DefaultBreakerCooldown).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, toClose: 1, now: time.Now}
}

// OnStateChange registers a callback fired (outside the breaker's
// lock) whenever the state changes — the obs gauge hook. Set it
// before the breaker is shared.
func (b *Breaker) OnStateChange(fn func(BreakerState)) {
	if b == nil {
		return
	}
	b.state.Lock().onChange = fn
	b.state.Unlock()
}

// Allow reports whether a call may proceed. While open it returns
// false until the cooldown has elapsed, then flips to half-open and
// lets the call through as a probe.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	st := b.state.Lock()
	if st.pos == BreakerOpen {
		if b.now().Sub(st.openedAt) < b.cooldown {
			b.state.Unlock()
			return false
		}
		st.set(BreakerHalfOpen)
		st.successes = 0
	}
	b.state.Unlock()
	b.fireChange()
	return true
}

// OnSuccess records a successful call: it resets the failure streak
// and, from half-open, counts toward closing. A success while open
// (an in-flight call that started before the trip) half-opens the
// breaker early — fresh evidence the peer answers.
func (b *Breaker) OnSuccess() {
	if b == nil {
		return
	}
	st := b.state.Lock()
	st.failures = 0
	switch st.pos {
	case BreakerHalfOpen, BreakerOpen:
		if st.successes++; st.successes >= b.toClose {
			st.set(BreakerClosed)
			st.successes = 0
		} else if st.pos == BreakerOpen {
			st.set(BreakerHalfOpen)
		}
	}
	b.state.Unlock()
	b.fireChange()
}

// OnFailure records a failed call: from closed it advances the streak
// (opening at the threshold), from half-open it re-opens immediately
// and restarts the cooldown.
func (b *Breaker) OnFailure() {
	if b == nil {
		return
	}
	st := b.state.Lock()
	switch st.pos {
	case BreakerClosed:
		if st.failures++; st.failures >= b.threshold {
			st.open(b.now())
		}
	case BreakerHalfOpen:
		st.open(b.now())
	case BreakerOpen:
		// Stragglers from before the trip add no information.
	}
	b.state.Unlock()
	b.fireChange()
}

// open trips the breaker at now.
func (st *breakerState) open(now time.Time) {
	st.set(BreakerOpen)
	st.openedAt = now
	st.failures = 0
	st.successes = 0
	st.opens++
}

// set updates the position and remembers whether a change callback is
// due; the caller must call fireChange after unlocking.
func (st *breakerState) set(s BreakerState) {
	if st.pos != s {
		st.pos = s
		st.changed = true
	}
}

// fireChange delivers a pending state-change callback outside the
// lock (the callback may itself take locks, e.g. a metrics vec).
func (b *Breaker) fireChange() {
	st := b.state.Lock()
	due, pos, fn := st.changed, st.pos, st.onChange
	st.changed = false
	b.state.Unlock()
	if due && fn != nil {
		fn(pos)
	}
}

// State returns the breaker's current position (without advancing the
// open → half-open transition; Allow does that).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	pos := b.state.Lock().pos
	b.state.Unlock()
	return pos
}

// Opens returns how many times the breaker has tripped open.
func (b *Breaker) Opens() uint64 {
	if b == nil {
		return 0
	}
	opens := b.state.Lock().opens
	b.state.Unlock()
	return opens
}
