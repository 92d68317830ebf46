// Package lint assembles the repository's analyzer suite and runs it
// over type-checked packages, honouring //lint:ignore suppressions.
// cmd/xpathlint is the driver; CI runs it as a gate.
//
// The analyzers and the invariant each one encodes:
//
//   - cancelcheck: a function with access to an evalutil.Canceller
//     that loops over document-sized data (a NodeSet, the node arena)
//     must consult it — bill the loop with CheckN up front or call
//     Check inside the body, directly or through a helper that does.
//     Otherwise a cancelled query keeps burning its worker until the
//     loop drains.
//
//   - sharedset: posting lists returned by xmltree.Index (Named,
//     NamedRange) are shared sub-slices — mutating them in place
//     (Normalized, Reversed, element stores, append, IntersectSet's
//     destination) is flagged unless the set was Cloned first; pooled
//     Scratch may not escape the evaluation that acquired it via a
//     struct field or a return; and memory of an evaluation's arena may
//     not be stored in a field of anything that outlives the run,
//     returned from an entry point that acquired the arena itself, or
//     handed to a goroutine.
//
//   - wiretag: in the wire packages (serve, cluster) every exported
//     field of a json-tagged struct carries a json tag, and keyed
//     literals of structs with a Version field must set it (or assign
//     it before use) so version-keyed caches can invalidate.
//
//   - ctxhttp: no context-free HTTP (http.Get and friends,
//     http.NewRequest, http.DefaultClient, http.Client without a
//     Timeout) and no context.Background/TODO where a caller's
//     context is in scope — in the cluster package, anywhere outside
//     main.
//
//   - metricname: every obs.Registry registration (Counter, Gauge,
//     Histogram, the Func and Vec variants) names its metric with a
//     compile-time constant snake_case string that is unique within
//     the package, and Vec label names are constant snake_case
//     strings — a duplicate name would silently share one instrument
//     under the registry's get-or-create semantics.
//
// Lock discipline needs no analyzer: what a mutex guards lives in a
// guard.Locked (internal/guard), reachable only through its Lock.
//
// A finding is suppressed by a directive comment of the form
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the flagged line or on the line immediately above it
// (<analyzer> may be * to match any). The reason is mandatory: an
// ignore without one is itself reported, as is a directive that no
// longer suppresses anything, so suppressions cannot silently rot.
//
// See the README's "Correctness tooling" section for the user-facing
// summary, and internal/lint/linttest for the fixture harness the
// analyzer tests run on.
package lint
