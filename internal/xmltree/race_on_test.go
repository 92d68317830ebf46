//go:build race

package xmltree

// raceEnabled: the race detector keeps shadow memory and its own
// bookkeeping beside every allocation, so the live heap a test reads
// with runtime.ReadMemStats is not the program's.
const raceEnabled = true
