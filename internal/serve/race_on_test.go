//go:build race

package serve

// raceEnabled: under the race detector sync.Pool drops a share of what
// is Put, so allocation counts that rely on the pooled buffer are not
// steady.
const raceEnabled = true
