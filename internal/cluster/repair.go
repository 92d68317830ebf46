package cluster

import (
	"context"
	"time"

	"repro/internal/resilience"
)

// A repair round writes at most repairBurst copies, spaced
// repairCopyDelay apart, so it trickles instead of bursting into live
// traffic.
const (
	repairBurst     = 32
	repairCopyDelay = 10 * time.Millisecond
)

// repairLoop is the anti-entropy background loop Start launches when
// RepairInterval is positive: every interval it runs one RepairNow
// round. Stop ends it between rounds and cancels a round in flight.
func (r *Router) repairLoop() {
	//lint:ignore ctxhttp the background repair loop owns its work; every peer call inside a round is bounded by the per-attempt timeout, and Stop cancels the root
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-r.stop
		cancel()
	}()
	t := time.NewTicker(r.opts.RepairInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		r.RepairNow(ctx)
	}
}

// RepairNow runs one anti-entropy round — the convergence pass
// (converge.go) over the router's own ring — and reports how many
// replica copies it wrote. Unreachable peers are skipped: their
// holdings are unknown, not empty, so nothing is inferred from their
// absence. A peer that cannot be listed, a document no holder still
// returns and a failed copy each count in repairErrs.
func (r *Router) RepairNow(ctx context.Context) int {
	defer r.repairRounds.Add(1)
	ls := inventory(ctx, r.ring.Peers(), r.backoff)
	for _, l := range ls {
		if l.err != nil && ctx.Err() == nil {
			r.repairErrs.Add(1)
		}
	}
	copies, budget := 0, repairBurst
	for _, p := range plan(ls, r.ring, r.opts.Replicas) {
		if len(p.targets) == 0 {
			continue
		}
		if ctx.Err() != nil || budget <= 0 {
			break
		}
		info, err := fetch(ctx, p)
		if err != nil {
			if ctx.Err() == nil {
				r.repairErrs.Add(1)
			}
			continue
		}
		for _, n := range p.targets {
			if ctx.Err() != nil || budget <= 0 {
				break
			}
			budget--
			if _, rv, err := n.PutDocumentAt(ctx, p.name, info.XML, info.Version); err != nil {
				r.repairErrs.Add(1)
			} else if rv >= info.Version {
				// rv > info.Version: a client write superseded the copy
				// mid-flight; the replica is newer either way.
				r.repairCopies.Add(1)
				copies++
			}
			if err := resilience.Sleep(ctx, repairCopyDelay); err != nil {
				break
			}
		}
	}
	return copies
}
