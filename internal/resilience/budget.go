package resilience

import "repro/internal/guard"

// DefaultBudgetCap bounds how many retry tokens a Budget can bank:
// a long quiet stretch must not save up an unbounded burst of retries
// for the next outage.
const DefaultBudgetCap = 10

// Budget is a token-bucket retry budget: every first attempt deposits
// ratio tokens (capped), every retry spends one whole token. With
// ratio r, retries are bounded to ~r per request in steady state —
// retry volume degrades proportionally with traffic instead of
// multiplying it during an outage. Safe for concurrent use; a nil
// Budget never denies (retries unbounded).
type Budget struct {
	ratio, max float64
	state      guard.Locked[budgetState]
}

// budgetState is what a budget's lock guards.
type budgetState struct {
	tokens float64
	denied uint64
}

// NewBudget creates a Budget granting ratio retries per first attempt
// (0.2 = one retry per five requests), banking at most
// DefaultBudgetCap tokens. A ratio <= 0 returns nil — the unlimited
// budget.
func NewBudget(ratio float64) *Budget {
	if ratio <= 0 {
		return nil
	}
	// Start full: a cold router facing an outage on its first requests
	// may still retry.
	return &Budget{ratio: ratio, max: DefaultBudgetCap, state: guard.New(budgetState{tokens: DefaultBudgetCap})}
}

// Deposit credits one first attempt's worth of retry allowance.
func (b *Budget) Deposit() {
	if b == nil {
		return
	}
	st := b.state.Lock()
	st.tokens = min(st.tokens+b.ratio, b.max)
	b.state.Unlock()
}

// Spend takes one retry token, reporting whether the retry is within
// budget. A denied retry is counted but costs nothing.
func (b *Budget) Spend() bool {
	if b == nil {
		return true
	}
	st := b.state.Lock()
	defer b.state.Unlock()
	if st.tokens < 1 {
		st.denied++
		return false
	}
	st.tokens--
	return true
}

// Denied returns how many retries the budget has rejected.
func (b *Budget) Denied() uint64 {
	if b == nil {
		return 0
	}
	denied := b.state.Lock().denied
	b.state.Unlock()
	return denied
}
