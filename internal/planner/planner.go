package planner

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// numStrategies sizes the per-class strategy arrays; core.XPatterns is
// the last strategy constant.
const numStrategies = int(core.XPatterns) + 1

// Mode selects how much the planner is allowed to do.
type Mode int

// Planner modes.
const (
	// Off disables planning: Auto resolves by the static fragment
	// switch in core.Engine.StrategyFor.
	Off Mode = iota
	// Rules routes on the structural shape rules alone — deterministic
	// and statistics-free.
	Rules
	// Adaptive starts from the rules and refines the choice online
	// from latency observations, with a deterministic epsilon-explore.
	Adaptive
)

var modeNames = map[Mode]string{Off: "off", Rules: "rules", Adaptive: "adaptive"}

// String returns the mode's flag name.
func (m Mode) String() string {
	if n, ok := modeNames[m]; ok {
		return n
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ModeByName resolves a -planner flag value.
func ModeByName(name string) (Mode, bool) {
	for m, n := range modeNames {
		if n == name {
			return m, true
		}
	}
	return 0, false
}

// EntryStats is the per-cache-entry latency evidence the engine hands
// the planner at decision time: the engine's compiled-query cache
// keeps a per-strategy EWMA on each shared entry, which is the most
// specific evidence available (this exact query, this strategy).
type EntryStats interface {
	// StrategySeconds returns the entry's mean observed latency for a
	// strategy, and whether any observation exists.
	StrategySeconds(s core.Strategy) (float64, bool)
}

// Candidate is one strategy the planner considered for a query, with
// the latency estimate (if any) that ranked it.
type Candidate struct {
	Strategy core.Strategy
	// Seconds is the estimated latency; negative when no observation
	// exists and the rule order alone ranked the candidate.
	Seconds float64
	// Source names where the estimate came from: "entry" (this exact
	// query's cache entry), "class" (the shape class EWMA), "matrix"
	// (the xpath_query_seconds histogram cell), or "rule" (no
	// observation).
	Source string
	// Banned reports the strategy failed structurally for this shape
	// class (bottomup tripping ErrTableLimit) and is excluded.
	Banned bool
}

// Decision is the full outcome of one planning pass — what ran and
// why, for responses, spans and cmd/xpathexplain.
type Decision struct {
	Strategy core.Strategy
	// Explored is set when the deterministic epsilon-explore overrode
	// the best-estimate pick to gather evidence on an under-sampled
	// candidate.
	Explored bool
	// Rationale is a one-line human-readable reason ("rules: ...",
	// "observed: ...", "explore: ...").
	Rationale string
	Shape     Shape
	Class     Class
	// Candidates lists every strategy considered, in rule-preference
	// order.
	Candidates []Candidate
}

// Config configures a Planner.
type Config struct {
	// Mode defaults to Rules when zero-valued Off is passed to New
	// callers that want a planner at all; engine constructs no planner
	// for Off.
	Mode Mode
	// ExploreEvery samples an under-tried candidate once every N
	// decisions per shape class (default 16; <0 disables exploration).
	// Exploration is deterministic — every Nth decision — so tests and
	// replays see identical routing.
	ExploreEvery int
	// Matrix is the engine's xpath_query_seconds (fragment, strategy)
	// histogram family, consulted as fleet-level evidence when neither
	// the cache entry nor the shape class has observations. Optional.
	Matrix *obs.HistogramVec
	// Registry receives the planner's decision/exploration/ban/win
	// counters (nil: a private registry, keeping the instruments live
	// but unexported).
	Registry *obs.Registry
}

// Planner picks strategies. One Planner serves all sessions of an
// engine; all state is safe for concurrent use.
type Planner struct {
	mode         Mode
	exploreEvery uint64
	matrix       *obs.HistogramVec

	decisions *obs.CounterVec
	nDecide   atomic.Uint64
	nExplore  atomic.Uint64
	nBan      atomic.Uint64
	nWin      atomic.Uint64

	mu      sync.RWMutex
	classes map[Class]*classState
}

// classState is the adaptive state for one shape class. EWMAs are
// float64 bits in atomics (0 = no observation; a real latency is never
// exactly +0s), so the hot path takes no lock.
type classState struct {
	n      atomic.Uint64 // decisions made for this class
	trials [numStrategies]atomic.Uint64
	banned [numStrategies]atomic.Bool
	ewma   [numStrategies]atomic.Uint64
}

// ewmaAlpha weights the newest observation; 0.3 tracks shifts within a
// few requests without letting one outlier repaint the estimate.
const ewmaAlpha = 0.3

func ewmaUpdate(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		nv := v
		if old != 0 {
			nv = (1-ewmaAlpha)*math.Float64frombits(old) + ewmaAlpha*v
		}
		if a.CompareAndSwap(old, math.Float64bits(nv)) {
			return
		}
	}
}

func ewmaLoad(a *atomic.Uint64) (float64, bool) {
	bits := a.Load()
	if bits == 0 {
		return 0, false
	}
	return math.Float64frombits(bits), true
}

// New creates a planner.
func New(cfg Config) *Planner {
	if cfg.ExploreEvery == 0 {
		cfg.ExploreEvery = 16
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	p := &Planner{
		mode:    cfg.Mode,
		matrix:  cfg.Matrix,
		classes: make(map[Class]*classState),
	}
	if cfg.ExploreEvery > 0 {
		p.exploreEvery = uint64(cfg.ExploreEvery)
	}
	p.decisions = cfg.Registry.CounterVec("xpath_planner_decisions_total", "planner strategy decisions by chosen strategy", "strategy")
	cfg.Registry.CounterFunc("xpath_planner_explore_total", "planner decisions that sampled an under-tried strategy", func() float64 {
		return float64(p.nExplore.Load())
	})
	cfg.Registry.CounterFunc("xpath_planner_bans_total", "strategies banned for a shape class after a structural failure", func() float64 {
		return float64(p.nBan.Load())
	})
	cfg.Registry.CounterFunc("xpath_planner_wins_total", "observation-driven picks measured faster than the rule pick's running estimate", func() float64 {
		return float64(p.nWin.Load())
	})
	cfg.Registry.GaugeFunc("xpath_planner_classes", "distinct shape classes with planner state", func() float64 {
		p.mu.RLock()
		defer p.mu.RUnlock()
		return float64(len(p.classes))
	})
	return p
}

// Mode returns the planner's configured mode.
func (p *Planner) Mode() Mode { return p.mode }

// SetExploreEvery retunes the exploration period (0 or negative
// disables exploration). Call before the planner starts serving
// traffic; it is not synchronized with in-flight decisions.
func (p *Planner) SetExploreEvery(n int) {
	if n <= 0 {
		p.exploreEvery = 0
		return
	}
	p.exploreEvery = uint64(n)
}

func (p *Planner) class(c Class) *classState {
	p.mu.RLock()
	cs, ok := p.classes[c]
	p.mu.RUnlock()
	if ok {
		return cs
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if cs, ok := p.classes[c]; ok {
		return cs
	}
	cs = &classState{}
	p.classes[c] = cs
	return cs
}

// The rule orders are package-level so the per-request decision does
// not allocate them; callers never mutate the returned slices.
var (
	orderCoreXPath = []core.Strategy{core.CoreXPath, core.OptMinContext, core.TopDown, core.MinContext, core.BottomUp}
	orderXPatterns = []core.Strategy{core.XPatterns, core.OptMinContext, core.TopDown, core.MinContext, core.BottomUp}
	orderWadler    = []core.Strategy{core.OptMinContext, core.MinContext, core.TopDown, core.BottomUp}
	orderDeepPred  = []core.Strategy{core.TopDown, core.OptMinContext, core.MinContext, core.BottomUp}
	orderFullXPath = []core.Strategy{core.OptMinContext, core.MinContext, core.TopDown, core.BottomUp}
)

// ruleOrder ranks the strategies applicable to the shape, best first,
// with a one-line rationale for the head pick. Only engines that
// accept the query's fragment appear: the linear fragment algebras
// lead their own fragments, and the exponential baselines (naive,
// datapool) never appear — they exist as experimental lower bounds,
// not serving options.
func (sh Shape) ruleOrder() ([]core.Strategy, string) {
	switch sh.Fragment {
	case core.FragmentCoreXPath:
		return orderCoreXPath,
			"Core XPath fragment: the linear-time set algebra (Section 10.1) dominates the polynomial engines"
	case core.FragmentXPatterns:
		return orderXPatterns,
			"XPatterns fragment: the linear-time XPatterns algebra (Section 10.2) dominates the polynomial engines"
	case core.FragmentWadler:
		return orderWadler,
			"Extended Wadler Fragment: OptMinContext evaluates it bottom-up in linear time per step (Section 11.2)"
	}
	if sh.MaxPredDepth >= 3 && sh.DocNodes > 0 && sh.DocNodes <= smallDocNodes {
		return orderDeepPred,
			"full XPath with deeply nested predicates over a small document: the vectorized top-down evaluator (Section 7) avoids the context-value-table blowup in nesting depth"
	}
	return orderFullXPath,
		"full XPath: OptMinContext degrades gracefully to MinContext bounds (Section 11.2)"
}

// smallDocNodes is the document size under which per-node overheads,
// not asymptotics, decide full-XPath routing.
const smallDocNodes = 1024

// estimate returns the best available latency evidence for running
// strategy s on this shape, most specific source first: the query's
// own cache entry, then the shape class EWMA, then the fleet-level
// (fragment, strategy) histogram cell. Negative when no evidence
// exists.
func (p *Planner) estimate(cs *classState, entry EntryStats, frag core.Fragment, s core.Strategy) (float64, string) {
	if entry != nil {
		if v, ok := entry.StrategySeconds(s); ok {
			return v, "entry"
		}
	}
	if v, ok := ewmaLoad(&cs.ewma[s]); ok {
		return v, "class"
	}
	if p.matrix != nil {
		if h := p.matrix.Peek(FragmentLabel(frag), s.String()); h != nil && h.Count() > 0 {
			return h.Sum() / float64(h.Count()), "matrix"
		}
	}
	return -1, "rule"
}

// Decide plans one request: it records the decision (trial counts,
// exploration schedule, metrics) and returns the strategy to run.
// entry, when non-nil, is the query's shared cache entry with its
// per-strategy latency EWMAs.
func (p *Planner) Decide(q *core.Query, docNodes int, entry EntryStats) Decision {
	return p.decide(Extract(q, docNodes), entry, true, true)
}

// Route is Decide for the serving hot path: it commits the decision
// (trial accounting, exploration schedule, metrics) but builds none of
// the explanatory material — no candidate list, no rationale string —
// and takes an already-extracted shape, which the engine memoizes on
// the query's cache entry. It returns the strategy to run and whether
// the exploration schedule overrode the best-estimate pick.
func (p *Planner) Route(sh Shape, entry EntryStats) (core.Strategy, bool) {
	d := p.decide(sh, entry, true, false)
	return d.Strategy, d.Explored
}

// Peek is Decide without side effects: no trial accounting, no
// exploration, no metrics. It is the core.StrategyPlanner hook and the
// basis of explain output.
func (p *Planner) Peek(q *core.Query, docNodes int) Decision {
	return p.decide(Extract(q, docNodes), nil, false, true)
}

// PickStrategy implements core.StrategyPlanner, so a core.Engine with
// strategy Auto resolves StrategyFor through the planner.
func (p *Planner) PickStrategy(q *core.Query, docNodes int) core.Strategy {
	return p.Peek(q, docNodes).Strategy
}

// decide is the one decision path. commit records the decision;
// explain additionally builds the candidate list and rationale string,
// which only explain-style callers (Decide, Peek) want — the serving
// hot path (Route) skips those allocations.
func (p *Planner) decide(sh Shape, entry EntryStats, commit, explain bool) Decision {
	cls := sh.Class()
	cs := p.class(cls)
	order, ruleWhy := sh.ruleOrder()

	d := Decision{Shape: sh, Class: cls}
	if explain {
		d.Candidates = make([]Candidate, 0, len(order))
	}
	rulePick := core.MinContext // if every candidate is banned; cannot itself trip a row limit
	haveRule := false
	best := core.Auto
	bestSecs := math.Inf(1)
	for _, s := range order {
		banned := cs.banned[s].Load()
		secs, source := -1.0, "rule"
		if !banned || explain {
			secs, source = p.estimate(cs, entry, sh.Fragment, s)
		}
		if explain {
			d.Candidates = append(d.Candidates, Candidate{Strategy: s, Seconds: secs, Source: source, Banned: banned})
		}
		if banned {
			continue
		}
		if !haveRule {
			rulePick, haveRule = s, true
		}
		if p.mode == Adaptive && secs >= 0 && secs < bestSecs {
			best, bestSecs = s, secs
		}
	}

	pick := rulePick
	switch {
	case !haveRule:
		if explain {
			d.Rationale = "all candidates banned for this class; MinContext cannot trip a table limit"
		}
	case p.mode == Adaptive && best != core.Auto && best != rulePick:
		pick = best
		if explain {
			d.Rationale = fmt.Sprintf("observed: %s at ~%.3gms beats rule pick %s for class %s", best, bestSecs*1e3, rulePick, cls)
		}
	case p.mode == Adaptive && best == rulePick:
		if explain {
			d.Rationale = fmt.Sprintf("observed: ~%.3gms confirms rules — %s", bestSecs*1e3, ruleWhy)
		}
	default:
		if explain {
			d.Rationale = "rules: " + ruleWhy
		}
	}

	if commit {
		if p.mode == Adaptive && p.exploreEvery > 0 && haveRule && explores(sh.Fragment) {
			if n := cs.n.Add(1); n%p.exploreEvery == 0 {
				if alt, ok := p.exploreCandidate(cs, order, pick); ok {
					pick = alt
					d.Explored = true
					if explain {
						d.Rationale = fmt.Sprintf("explore: sampling %s for class %s (decision %d)", alt, cls, n)
					}
				}
			}
		}
		cs.trials[pick].Add(1)
		p.nDecide.Add(1)
		p.decisions.Inc(pick.String())
		if d.Explored {
			p.nExplore.Add(1)
		}
	}
	d.Strategy = pick
	return d
}

// explores reports whether the exploration schedule runs for a
// fragment. The paper's ladder of algorithms is a dominance order, so
// the table is short: a class the classifier placed in Core XPath or
// XPatterns already runs on a linear-time algebra and has nothing to
// learn from sampling a polynomial engine.
func explores(f core.Fragment) bool {
	return f != core.FragmentCoreXPath && f != core.FragmentXPatterns
}

// exploreCandidate picks the least-tried unbanned candidate other than
// the current pick, so every applicable engine keeps accumulating
// fresh evidence and a shifted workload is eventually noticed. BottomUp
// is never sampled: Algorithm 6.3 materializes full context-value
// tables, which every other candidate in every rule order dominates (a
// [last()] query over a 644-node document took it 98–127 ms against
// 15–200 µs for the rule pick). It stays a candidate that observed
// evidence may still pick.
func (p *Planner) exploreCandidate(cs *classState, order []core.Strategy, pick core.Strategy) (core.Strategy, bool) {
	alt := core.Auto
	altTrials := uint64(math.MaxUint64)
	for _, s := range order {
		if s == pick || s == core.BottomUp || cs.banned[s].Load() {
			continue
		}
		if t := cs.trials[s].Load(); t < altTrials {
			alt, altTrials = s, t
		}
	}
	return alt, alt != core.Auto
}

// Observe feeds one evaluation outcome back: the strategy that ran,
// how long it took, and whether it failed structurally (tripped
// bottomup.ErrTableLimit). Failures ban the strategy for the shape
// class; successes update the class EWMA and, when an
// observation-driven pick beat the rule pick's running estimate, count
// a win.
func (p *Planner) Observe(q *core.Query, docNodes int, s core.Strategy, d time.Duration, failed bool) {
	p.ObserveShape(Extract(q, docNodes), s, d, failed)
}

// ObserveShape is Observe with an already-extracted shape — the
// serving hot path's variant, fed from the cache entry's memoized
// shape so feedback costs no second AST walk.
func (p *Planner) ObserveShape(sh Shape, s core.Strategy, d time.Duration, failed bool) {
	if int(s) < 0 || int(s) >= numStrategies {
		return
	}
	cs := p.class(sh.Class())
	if failed {
		if !cs.banned[s].Swap(true) {
			p.nBan.Add(1)
		}
		return
	}
	secs := d.Seconds()
	order, _ := sh.ruleOrder()
	for _, r := range order {
		if cs.banned[r].Load() {
			continue
		}
		if s != r {
			if v, ok := ewmaLoad(&cs.ewma[r]); ok && secs < v {
				p.nWin.Add(1)
			}
		}
		break
	}
	ewmaUpdate(&cs.ewma[s], secs)
}

// Stats is a point-in-time reading of the planner's counters, the same
// atomics the /metrics instruments read.
type Stats struct {
	Mode string
	// Decisions counts committed Decide calls; Explored the subset
	// that sampled an under-tried strategy.
	Decisions, Explored uint64
	// Bans counts (class, strategy) pairs banned after a structural
	// failure; Wins counts observation-driven picks that measured
	// faster than the rule pick's running estimate.
	Bans, Wins uint64
	// Classes is the number of distinct shape classes with state.
	Classes int
}

// Stats returns current planner statistics.
func (p *Planner) Stats() Stats {
	p.mu.RLock()
	classes := len(p.classes)
	p.mu.RUnlock()
	return Stats{
		Mode:      p.mode.String(),
		Decisions: p.nDecide.Load(),
		Explored:  p.nExplore.Load(),
		Bans:      p.nBan.Load(),
		Wins:      p.nWin.Load(),
		Classes:   classes,
	}
}
