// Package resilience is the cluster's failure-handling substrate:
// the small, dependency-free primitives the router and node layers
// consult whenever they re-issue work against a peer, plus the fault
// injector the chaos harness drives them with.
//
// The pieces, and the failure mode each one bounds:
//
//   - Backoff: jittered exponential delays between retry attempts, so
//     a fleet of routers retrying against a struggling peer spreads
//     its load instead of synchronizing into waves.
//
//   - Budget: a token-bucket retry budget. Every first attempt
//     deposits a fraction of a token, every retry spends a whole one,
//     so retries are bounded to a fixed fraction of live traffic and
//     cannot amplify an outage into a retry storm.
//
//   - Breaker: a per-peer circuit breaker (closed → open → half-open).
//     Consecutive failures open it; while open, calls fail fast
//     without touching the peer; after a cooldown the next calls
//     probe, and a success closes it again.
//
//   - WithAttemptsLeft / CarveAttempt: per-attempt deadline carving.
//     A caller deadline of D with k attempts remaining gives each
//     attempt min(flat timeout, remaining/k), so a tight client
//     deadline is honored across the whole retry chain instead of the
//     first attempt eating all of it.
//
//   - Faults: a seeded, deterministic fault injector — connection
//     refusals, latency spikes, injected 5xx answers, and mid-stream
//     cuts, matched per path/method/peer with a probability and a
//     trigger budget. It mounts either as a server middleware
//     (Faults.Handler, the -fault-spec hook in xpathserve and
//     xpathrouter) or as a client transport wrapper (Faults.Transport)
//     and is what scripts/chaos_smoke.sh drives.
//
// Everything here is safe for concurrent use, nil-tolerant (a nil
// Breaker allows everything, a nil Budget never denies, a nil Backoff
// never sleeps) so call sites stay unconditional, and free of
// repository imports so any layer can depend on it without cycles.
//
// In the cluster the contract holds by construction: Router.walk is the
// router's one attempt loop, so every failover is budgeted, backed off
// and deadline-carved there; the one-peer retries of repair and
// resharding go through Retry.
package resilience
