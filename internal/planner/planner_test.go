package planner

import "testing"

// TestModeByName: the three legacy flag values resolve (the benchmark
// passes "rules" and "adaptive"), anything else is refused.
func TestModeByName(t *testing.T) {
	for _, name := range []string{"off", "rules", "adaptive"} {
		got, ok := ModeByName(name)
		if !ok || got.String() != name {
			t.Fatalf("ModeByName(%q) = %q, %v", name, got, ok)
		}
	}
	for _, name := range []string{"", "bogus", "Rules", "legacy"} {
		if _, ok := ModeByName(name); ok {
			t.Fatalf("mode %q resolved", name)
		}
	}
}
