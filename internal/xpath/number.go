package xpath

import "sync/atomic"

// # Slots
//
// What a query's syntax fixes is decided when the tree is built, never
// again per evaluation (Section 8.2: Relev(N) "depends only on the
// query"). Parse numbers the tree it returns: its n expression nodes
// carry the slots 0 … n−1 in post-order and each records its Relev, so
// an evaluator keeps its per-node state in slices of Slots(e) entries
// indexed by Slot, and RelevantContext of a numbered node is a field
// read. The contract:
//
//   - a numbered tree is never written again — but for the one form per
//     node an evaluator derives from its syntax alone (Memo), stored
//     once, atomically — so any number of goroutines may evaluate it at
//     once;
//   - Optimize keeps the numbering of its argument. A node a rule builds
//     takes over the record of the node it stands for (the rules
//     preserve Relev), the rest is shared: the literal and the optimized
//     tree of a query are two views of one numbering, and a slot is
//     vacant in the second only where self elimination dropped a path in
//     favour of its head;
//   - a tree put together by hand has no slots (Slots 0, Slot −1);
//     RelevantContext computes on it, and the evaluators that index by
//     slot refuse it rather than guess.

// slotInfo is the record numbering leaves in a node. Every Expr node
// type embeds it.
type slotInfo struct {
	nb    *numbering // nil: not numbered
	slot  int32
	relev Relev
}

func (s *slotInfo) info() *slotInfo { return s }

// numbering is what the nodes of one numbered tree share: the slot
// count, and the memo of Memo by slot, made on first use.
type numbering struct {
	n    int32
	memo atomic.Pointer[[]atomic.Pointer[any]]
}

// number numbers the tree e, whose nodes the caller has just built, in
// place, and returns it.
func number(e Expr) Expr {
	nb := &numbering{}
	walk(e, func(Expr) {}, func(x Expr) {
		// x's subexpressions have their records: the rules read them.
		*x.info() = slotInfo{nb: nb, slot: nb.n, relev: RelevantContext(x)}
		nb.n++
	})
	return e
}

// Memo returns derive(e), derived at most once per node of a numbered
// tree and kept with the query: what an evaluator compiles from a
// node's syntax alone — the rank test of a positional predicate — is
// then compiled once per query, not once per evaluation. A slot has one
// such form — every caller for it must pass the same derive, and the
// nodes Optimize builds share their slot, so the form must be one
// Optimize does not change — and its value must be safe to share
// between goroutines; two racing on a slot both derive, and one store
// wins. A tree without slots derives every time.
func Memo[T any](e Expr, derive func(Expr) T) T {
	in := e.info()
	if in.nb == nil {
		return derive(e)
	}
	memo := in.nb.memo.Load()
	if memo == nil {
		fresh := make([]atomic.Pointer[any], in.nb.n)
		in.nb.memo.CompareAndSwap(nil, &fresh)
		memo = in.nb.memo.Load()
	}
	slot := &(*memo)[in.slot]
	if p := slot.Load(); p != nil {
		return (*p).(T)
	}
	var v any = derive(e)
	slot.Store(&v)
	return v.(T)
}

// Slots returns the number of slots of the numbering e belongs to, 0 if
// e is not numbered.
func Slots(e Expr) int {
	if nb := e.info().nb; nb != nil {
		return int(nb.n)
	}
	return 0
}

// Slot returns e's slot, −1 if e is not numbered.
func Slot(e Expr) int {
	if in := e.info(); in.nb != nil {
		return int(in.slot)
	}
	return -1
}
