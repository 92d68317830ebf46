// Package planner is a compatibility shim, not a planner. The auto
// strategy is one static table, core.Explain, and there is no mode to
// choose. The process-level benchmark still names one: benchmark/proc.go
// and benchmark/workloads.go start xpathserve with -planner rules,
// benchmark/trace.go passes -planner to the layer probe, and
// benchmark/layers/main.go resolves it with ModeByName and sets
// engine.Options.Planner. A PR may not edit benchmark/ together with
// other code, so these names stay until the follow-up [benchmark] issue
// drops those uses and deletes this package, engine.Options.Planner and
// xpathserve's -planner flag with them.
package planner

// Mode is a legacy -planner flag value. Every mode means the table.
type Mode string

// ModeByName resolves a -planner flag value: the three names the flag
// used to take are accepted, anything else is not.
func ModeByName(name string) (Mode, bool) {
	switch name {
	case "rules", "adaptive", "off":
		return Mode(name), true
	}
	return "", false
}

// String returns the mode's flag name.
func (m Mode) String() string { return string(m) }
