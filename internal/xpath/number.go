package xpath

// # Slots
//
// What a query's syntax fixes is decided when the tree is built, never
// again per evaluation (Section 8.2: Relev(N) "depends only on the
// query"). Parse and Substitute number the tree they return: its n
// expression nodes carry the slots 0 … n−1 in post-order and each
// records its Relev, so an evaluator keeps its per-node state in slices
// of Slots(e) entries indexed by Slot, and RelevantContext of a
// numbered node is a field read. The contract:
//
//   - a numbered tree is never written again: any number of goroutines
//     may evaluate it at once;
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
// count.
type numbering struct{ n int32 }

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
