// Fixture for the cancelcheck analyzer: document-sized loops in code
// that has a Canceller in scope must hit a checkpoint on the loop path.
package cancelcheck

import (
	"repro/internal/evalutil"
	"repro/internal/xmltree"
)

type eval struct {
	doc    *xmltree.Document
	cancel *evalutil.Canceller
}

// chk is a same-package helper that transitively checks: loops calling
// it are covered through the call-graph fixpoint.
func (ev *eval) chk() error { return ev.cancel.Check() }

// Unbilled range over a NodeSet: the seeded violation.
func (ev *eval) sumRange(set xmltree.NodeSet) int {
	total := 0
	for _, n := range set { // want `document-sized loop without a cancellation checkpoint`
		total += int(n)
	}
	return total
}

// Unbilled for loop bounded by Document.Len().
func (ev *eval) scanDoc() xmltree.NodeSet {
	var out xmltree.NodeSet
	for i := 0; i < ev.doc.Len(); i++ { // want `document-sized loop without a cancellation checkpoint`
		out = append(out, xmltree.NodeID(i))
	}
	return out
}

// Unbilled for loop bounded by len(NodeSet).
func (ev *eval) scanSet(set xmltree.NodeSet) int {
	total := 0
	for i := 0; i < len(set); i++ { // want `document-sized loop without a cancellation checkpoint`
		total += int(set[i])
	}
	return total
}

// A direct Check inside the body covers the loop.
func (ev *eval) checkedInside(set xmltree.NodeSet) error {
	for _, n := range set {
		if err := ev.cancel.Check(); err != nil {
			return err
		}
		_ = n
	}
	return nil
}

// Billing the whole operation before the loop covers it (the bulk
// CheckN idiom).
func (ev *eval) billedBefore(set xmltree.NodeSet) (int, error) {
	if err := ev.cancel.CheckN(len(set)); err != nil {
		return 0, err
	}
	total := 0
	for _, n := range set {
		total += int(n)
	}
	return total, nil
}

// A transitively-checking same-package call inside the body covers it.
func (ev *eval) checkedTransitively(set xmltree.NodeSet) error {
	for range set {
		if err := ev.chk(); err != nil {
			return err
		}
	}
	return nil
}

// A goroutine's loop cannot lean on the spawner's bulk bill: the
// worker runs concurrently with (and after) the spawner's checkpoint,
// so every worker would run unbilled.
func (ev *eval) spawnUnbilled(set xmltree.NodeSet, done chan<- int) error {
	if err := ev.cancel.CheckN(len(set)); err != nil {
		return err
	}
	go func() {
		total := 0
		for _, n := range set { // want `document-sized loop in a spawned worker without a cancellation checkpoint`
			total += int(n)
		}
		done <- total
	}()
	return nil
}

// A worker that bills its own share inside the literal is covered.
func (ev *eval) spawnBilled(set xmltree.NodeSet, done chan<- int) {
	go func() {
		if ev.cancel.CheckN(len(set)) != nil {
			return
		}
		total := 0
		for _, n := range set {
			total += int(n)
		}
		done <- total
	}()
}

// The converse direction: a checkpoint inside a spawned worker never
// covers a loop running on the spawning goroutine.
func (ev *eval) workerCheckDoesNotLeak(set xmltree.NodeSet) int {
	go func() {
		_ = ev.cancel.Check()
	}()
	total := 0
	for _, n := range set { // want `document-sized loop without a cancellation checkpoint`
		total += int(n)
	}
	return total
}

// A non-spawned literal (called synchronously on the same goroutine)
// keeps the old rule: the bulk bill before the call covers its loop.
func (ev *eval) inlineLiteralBilled(set xmltree.NodeSet) (int, error) {
	if err := ev.cancel.CheckN(len(set)); err != nil {
		return 0, err
	}
	sum := func() int {
		total := 0
		for _, n := range set {
			total += int(n)
		}
		return total
	}
	return sum(), nil
}

// No canceller in scope: out of the analyzer's scope — the invariant
// is the caller's.
func plainHelper(set xmltree.NodeSet) int {
	total := 0
	for _, n := range set {
		total += int(n)
	}
	return total
}
