package resilience

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guard"
)

func TestBackoffDelayBounds(t *testing.T) {
	b := &Backoff{base: 10 * time.Millisecond, cap: 80 * time.Millisecond, rng: guard.New(*rand.New(rand.NewSource(42)))}
	for attempt := 0; attempt < 8; attempt++ {
		ceil := 10 * time.Millisecond << attempt
		if ceil > 80*time.Millisecond {
			ceil = 80 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			d := b.Delay(attempt)
			if d <= 0 || d > ceil {
				t.Fatalf("Delay(%d) = %v, want in (0, %v]", attempt, d, ceil)
			}
		}
	}
	var nilB *Backoff
	if d := nilB.Delay(3); d != 0 {
		t.Fatalf("nil backoff Delay = %v, want 0", d)
	}
}

func TestBackoffDeterministicWithSeed(t *testing.T) {
	a := NewBackoff(7)
	b := NewBackoff(7)
	for i := 0; i < 20; i++ {
		if da, db := a.Delay(i%5), b.Delay(i%5); da != db {
			t.Fatalf("seeded backoffs diverged at draw %d: %v vs %v", i, da, db)
		}
	}
}

func TestSleepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on canceled ctx = %v, want context.Canceled", err)
	}
	if err := Sleep(context.Background(), 0); err != nil {
		t.Fatalf("Sleep(0) = %v", err)
	}
}

func TestAttemptsLeft(t *testing.T) {
	ctx := context.Background()
	if n := AttemptsLeft(ctx); n != 1 {
		t.Fatalf("unannotated AttemptsLeft = %d, want 1", n)
	}
	if n := AttemptsLeft(WithAttemptsLeft(ctx, 4)); n != 4 {
		t.Fatalf("AttemptsLeft = %d, want 4", n)
	}
	if n := AttemptsLeft(WithAttemptsLeft(ctx, -2)); n != 1 {
		t.Fatalf("clamped AttemptsLeft = %d, want 1", n)
	}
}

func TestCarveAttempt(t *testing.T) {
	// No caller deadline: the flat timeout applies.
	ctx, cancel := CarveAttempt(context.Background(), 50*time.Millisecond)
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok || time.Until(dl) > 51*time.Millisecond {
		t.Fatalf("flat-only carve deadline = %v ok=%v", time.Until(dl), ok)
	}

	// Caller deadline of ~90ms with 3 attempts left: each gets ~30ms,
	// beating the generous 1s flat timeout.
	parent, pcancel := context.WithTimeout(context.Background(), 90*time.Millisecond)
	defer pcancel()
	actx, acancel := CarveAttempt(WithAttemptsLeft(parent, 3), time.Second)
	defer acancel()
	adl, ok := actx.Deadline()
	if !ok {
		t.Fatal("carved ctx has no deadline")
	}
	if rem := time.Until(adl); rem > 35*time.Millisecond {
		t.Fatalf("carved share = %v, want <= ~30ms", rem)
	}

	// The carved child expiring must not mark the parent done.
	<-actx.Done()
	if parent.Err() != nil {
		t.Fatal("parent expired with the carved child")
	}

	// No deadline anywhere: unbounded child.
	uctx, ucancel := CarveAttempt(context.Background(), 0)
	defer ucancel()
	if _, ok := uctx.Deadline(); ok {
		t.Fatal("no-deadline carve grew a deadline")
	}
}

func TestRetry(t *testing.T) {
	b := &Backoff{base: time.Millisecond, cap: 2 * time.Millisecond, rng: guard.New(*rand.New(rand.NewSource(1)))}
	calls := 0
	err := Retry(context.Background(), 3, b, func(ctx context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	}, nil)
	if err != nil || calls != 3 {
		t.Fatalf("Retry: err=%v calls=%d", err, calls)
	}

	calls = 0
	perm := errors.New("permanent")
	err = Retry(context.Background(), 5, b, func(ctx context.Context) error {
		calls++
		return perm
	}, func(e error) bool { return !errors.Is(e, perm) })
	if !errors.Is(err, perm) || calls != 1 {
		t.Fatalf("non-retryable: err=%v calls=%d, want 1 call", err, calls)
	}
}

func TestBudget(t *testing.T) {
	if b := NewBudget(0); b != nil {
		t.Fatal("ratio<=0 should return the nil (unlimited) budget")
	}
	var nilB *Budget
	if !nilB.Spend() {
		t.Fatal("nil budget denied a retry")
	}

	b := &Budget{ratio: 0.5, max: 2, state: guard.New(budgetState{tokens: 2})}
	// Starts full (2 tokens).
	if !b.Spend() || !b.Spend() {
		t.Fatal("full budget denied")
	}
	if b.Spend() {
		t.Fatal("empty budget allowed a retry")
	}
	if b.Denied() != 1 {
		t.Fatalf("Denied = %d, want 1", b.Denied())
	}
	// Two deposits bank one whole token.
	b.Deposit()
	b.Deposit()
	if !b.Spend() {
		t.Fatal("replenished budget denied")
	}
	// Cap: many deposits cannot bank more than max.
	for i := 0; i < 100; i++ {
		b.Deposit()
	}
	if b.Spend() && b.Spend() && b.Spend() {
		t.Fatal("budget banked past its cap")
	}
}

func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, time.Second)
	b.now = func() time.Time { return now }
	var states []BreakerState
	b.OnStateChange(func(s BreakerState) { states = append(states, s) })

	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("fresh breaker not closed/allowing")
	}
	// Two failures: still closed (threshold 3).
	b.OnFailure()
	b.OnFailure()
	if b.State() != BreakerClosed {
		t.Fatal("opened below threshold")
	}
	// A success resets the streak.
	b.OnSuccess()
	b.OnFailure()
	b.OnFailure()
	if b.State() != BreakerClosed {
		t.Fatal("success did not reset the failure streak")
	}
	// Third consecutive failure trips it.
	b.OnFailure()
	if b.State() != BreakerOpen || b.Opens() != 1 {
		t.Fatalf("state=%v opens=%d, want open/1", b.State(), b.Opens())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed before cooldown")
	}
	// Cooldown elapses: next Allow half-opens and permits a probe.
	now = now.Add(time.Second)
	if !b.Allow() || b.State() != BreakerHalfOpen {
		t.Fatalf("post-cooldown: allow=false or state=%v", b.State())
	}
	// Probe failure re-opens.
	b.OnFailure()
	if b.State() != BreakerOpen || b.Opens() != 2 {
		t.Fatalf("half-open failure: state=%v opens=%d", b.State(), b.Opens())
	}
	// Cooldown again; this time the probe succeeds and closes it.
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("second post-cooldown probe denied")
	}
	b.OnSuccess()
	if b.State() != BreakerClosed {
		t.Fatalf("probe success left state %v", b.State())
	}

	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(states) != len(want) {
		t.Fatalf("state changes = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state change %d = %v, want %v", i, states[i], want[i])
		}
	}

	var nilBr *Breaker
	if !nilBr.Allow() || nilBr.State() != BreakerClosed {
		t.Fatal("nil breaker should allow and read closed")
	}
	nilBr.OnSuccess()
	nilBr.OnFailure()
}

func TestBreakerConcurrent(t *testing.T) {
	// Race-detector coverage: hammer one breaker from many goroutines
	// mixing Allow/OnSuccess/OnFailure/State with a firing callback.
	b := NewBreaker(2, time.Millisecond)
	var changes sync.Map
	b.OnStateChange(func(s BreakerState) { changes.Store(s, true) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if b.Allow() {
					if (g+i)%3 == 0 {
						b.OnFailure()
					} else {
						b.OnSuccess()
					}
				}
				_ = b.State()
				_ = b.Opens()
			}
		}(g)
	}
	wg.Wait()
	switch b.State() {
	case BreakerClosed, BreakerHalfOpen, BreakerOpen:
	default:
		t.Fatalf("breaker ended in invalid state %v", b.State())
	}
}

// TestBudgetConcurrent: deposits and spends from eight goroutines keep
// the tokens within [0, max], and Denied counts exactly the spends that
// were refused. Run under -race in CI.
func TestBudgetConcurrent(t *testing.T) {
	b := NewBudget(0.2)
	var refused atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Deposit()
				if i%3 == 0 && !b.Spend() {
					refused.Add(1)
				}
				tokens := b.state.Lock().tokens
				b.state.Unlock()
				if tokens < 0 || tokens > b.max {
					t.Errorf("tokens = %v, want in [0, %v]", tokens, b.max)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := b.Denied(), refused.Load(); got != want || want == 0 {
		t.Fatalf("Denied = %d, refused spends = %d; want equal and nonzero", got, want)
	}
}

// TestBackoffConcurrent: delays drawn from eight goroutines at once all
// lie in (0, min(cap, base·2^k)]. Run under -race in CI.
func TestBackoffConcurrent(t *testing.T) {
	b := NewBackoff(1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := (g + i) % 8
				ceil := min(DefaultBackoffCap, DefaultBackoffBase<<k)
				if d := b.Delay(k); d <= 0 || d > ceil {
					t.Errorf("Delay(%d) = %v, want in (0, %v]", k, d, ceil)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestParseFaults(t *testing.T) {
	if f, err := ParseFaults("", 1); f != nil || err != nil {
		t.Fatalf("empty spec: %v %v", f, err)
	}
	f, err := ParseFaults("latency:path=/query;d=200ms,cut:path=/batch;after=2;times=1,err:code=502;p=0.5,refuse:peer=node-b", 1)
	if err != nil {
		t.Fatal(err)
	}
	rules := f.state.Lock().rules
	f.state.Unlock()
	if len(rules) != 4 {
		t.Fatalf("rules = %d, want 4", len(rules))
	}
	r := rules[0]
	if r.kind != FaultLatency || r.path != "/query" || r.delay != 200*time.Millisecond {
		t.Fatalf("latency rule parsed as %+v", r)
	}
	r = rules[1]
	if r.kind != FaultCut || r.after != 2 || r.times != 1 {
		t.Fatalf("cut rule parsed as %+v", r)
	}
	r = rules[2]
	if r.kind != FaultErr || r.code != 502 || r.prob != 0.5 {
		t.Fatalf("err rule parsed as %+v", r)
	}
	r = rules[3]
	if r.kind != FaultRefuse || r.peer != "node-b" {
		t.Fatalf("refuse rule parsed as %+v", r)
	}

	for _, bad := range []string{
		"explode:path=/x",
		"latency:path=/x", // missing d
		"latency:d=-5ms",  // non-positive duration
		"err:code=99",     // not an HTTP status
		"cut:after=-1",    // negative
		"refuse:p=1.5",    // probability out of range
		"refuse:times=0",  // zero trigger budget
		"refuse:pathoops", // not key=val
		"refuse:wat=1",    // unknown key
	} {
		if _, err := ParseFaults(bad, 1); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}

func TestFaultsHandler(t *testing.T) {
	f, err := ParseFaults("err:path=/boom;code=503;times=1,latency:path=/slow;d=30ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	var okHits int
	h := f.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		okHits++
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("injected status = %d, want 503", resp.StatusCode)
	}
	// times=1 exhausted: the second call reaches the handler.
	resp, err = http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || okHits != 1 {
		t.Fatalf("post-budget status=%d hits=%d", resp.StatusCode, okHits)
	}

	start := time.Now()
	resp, err = http.Get(ts.URL + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Fatalf("latency fault slept only %v", el)
	}
	fired := f.Fired()
	if fired[0] != 1 || fired[1] != 1 {
		t.Fatalf("Fired = %v, want [1 1]", fired)
	}

	// Refuse aborts the connection: the client sees a transport error.
	rf, err := ParseFaults("refuse:path=/", 1)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rf.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})))
	defer rts.Close()
	if _, err := http.Get(rts.URL + "/x"); err == nil {
		t.Fatal("refused request returned a response")
	}

	// Cut: two writes pass, the third aborts mid-stream.
	cf, err := ParseFaults("cut:path=/stream;after=2", 1)
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(cf.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 5; i++ {
			io.WriteString(w, "line\n")
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush()
			}
		}
	})))
	defer cts.Close()
	resp, err = http.Get(cts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr == nil {
		t.Fatal("cut stream read to completion")
	}
	if got := string(body); got != "line\nline\n" {
		t.Fatalf("cut stream delivered %q, want two lines", got)
	}

	// nil Faults is a pass-through.
	var nilF *Faults
	if nilF.Handler(h) == nil {
		t.Fatal("nil Faults.Handler returned nil")
	}
	if nilF.Fired() != nil {
		t.Fatal("nil Faults.Fired returned rules")
	}
}

func TestFaultsTransport(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "0123456789")
	}))
	defer backend.Close()

	f, err := ParseFaults("refuse:path=/refuse,err:path=/err;code=500,cut:path=/cut;after=4,latency:path=/lat;d=25ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: f.Transport(nil)}

	if _, err := client.Get(backend.URL + "/refuse"); !IsInjected(err) {
		t.Fatalf("refuse: err=%v, want injected", err)
	}

	resp, err := client.Get(backend.URL + "/err")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Fatalf("err fault status = %d, want 500", resp.StatusCode)
	}

	resp, err = client.Get(backend.URL + "/cut")
	if err != nil {
		t.Fatal(err)
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !IsInjected(rerr) {
		t.Fatalf("cut body err = %v, want injected", rerr)
	}
	if string(body) != "0123" {
		t.Fatalf("cut body = %q, want first 4 bytes", body)
	}

	start := time.Now()
	resp, err = client.Get(backend.URL + "/lat")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("latency fault slept only %v", el)
	}

	// Unmatched paths pass through untouched.
	resp, err = client.Get(backend.URL + "/plain")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "0123456789" {
		t.Fatalf("pass-through body = %q", body)
	}

	var nilF *Faults
	if nilF.Transport(http.DefaultTransport) != http.DefaultTransport {
		t.Fatal("nil Faults.Transport should return inner unchanged")
	}
	if !IsInjected(&faultError{kind: FaultCut}) || IsInjected(errors.New("x")) || IsInjected(nil) {
		t.Fatal("IsInjected misclassified")
	}
}
