package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) CPU
BenchmarkServingCachedVsCold/cold-8         	    1201	    987654 ns/op	  512 B/op	      12 allocs/op
BenchmarkServingCachedVsCold/cached-8       	   26400	     45123 ns/op
BenchmarkServingBatchWorkers/workers=4-8    	     800	   1500000 ns/op	      42.5 queries/ms
PASS
ok  	repro	12.345s
`

func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if got.Context["goos"] != "linux" || got.Context["pkg"] != "repro" {
		t.Fatalf("context = %v", got.Context)
	}
	if len(got.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(got.Benchmarks))
	}
	b := got.Benchmarks[0]
	if b.Name != "BenchmarkServingCachedVsCold/cold" || b.CPU != 8 || b.Iterations != 1201 || b.NsPerOp != 987654 {
		t.Fatalf("first benchmark = %+v", b)
	}
	if b.Metrics["B/op"] != 512 || b.Metrics["allocs/op"] != 12 {
		t.Fatalf("first benchmark metrics = %v", b.Metrics)
	}
	if got.Benchmarks[2].Metrics["queries/ms"] != 42.5 {
		t.Fatalf("custom metric lost: %+v", got.Benchmarks[2])
	}
	if got.Context["gomaxprocs"] != "8" {
		t.Fatalf("gomaxprocs context = %q, want \"8\"", got.Context["gomaxprocs"])
	}
}

// TestParseCPUSuffix pins the suffix rules: `go test` omits the -N
// suffix at GOMAXPROCS=1, sub-benchmark parameters keep their digits,
// and a -cpu list yields one entry per value.
func TestParseCPUSuffix(t *testing.T) {
	input := "BenchmarkAxesEval/doc=50000 100 2000 ns/op\n" +
		"BenchmarkAxesEval/doc=50000-4 100 600 ns/op\n" +
		"BenchmarkExp4/k=20 50 9000 ns/op\n"
	got, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name string
		cpu  int
	}{
		{"BenchmarkAxesEval/doc=50000", 1},
		{"BenchmarkAxesEval/doc=50000", 4},
		{"BenchmarkExp4/k=20", 1},
	}
	if len(got.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d", len(got.Benchmarks), len(want))
	}
	for i, w := range want {
		if got.Benchmarks[i].Name != w.name || got.Benchmarks[i].CPU != w.cpu {
			t.Fatalf("benchmark %d = %q cpu=%d, want %q cpu=%d",
				i, got.Benchmarks[i].Name, got.Benchmarks[i].CPU, w.name, w.cpu)
		}
	}
	if got.Context["gomaxprocs"] != "1,4" {
		t.Fatalf("gomaxprocs context = %q, want \"1,4\"", got.Context["gomaxprocs"])
	}
}

func TestParseSkipsGarbage(t *testing.T) {
	got, err := parse(strings.NewReader("hello\nBenchmarkBroken\nok  repro 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from garbage", len(got.Benchmarks))
	}
}

func TestNextBenchPath(t *testing.T) {
	dir := t.TempDir()
	p, err := nextBenchPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != "BENCH_1.json" {
		t.Fatalf("first path = %s, want BENCH_1.json", p)
	}
	for _, name := range []string{"BENCH_1.json", "BENCH_2.json", "BENCH_9.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err = nextBenchPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != "BENCH_3.json" {
		t.Fatalf("next path = %s, want BENCH_3.json (first gap)", p)
	}
}

func writeBenchFile(t *testing.T, path string, f *benchFile) {
	t.Helper()
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDiffBenchFiles(t *testing.T) {
	oldF := &benchFile{Benchmarks: []benchResult{
		{Name: "BenchmarkStable", CPU: 8, NsPerOp: 1000},
		{Name: "BenchmarkSlower", CPU: 8, NsPerOp: 1000},
		{Name: "BenchmarkFaster", CPU: 8, NsPerOp: 1000},
		{Name: "BenchmarkRemoved", CPU: 8, NsPerOp: 500},
	}}
	newF := &benchFile{Benchmarks: []benchResult{
		{Name: "BenchmarkStable", CPU: 8, NsPerOp: 1030}, // +3%: within threshold
		{Name: "BenchmarkSlower", CPU: 8, NsPerOp: 1300}, // +30%: regression
		{Name: "BenchmarkFaster", CPU: 8, NsPerOp: 600},  // -40%: improvement
		{Name: "BenchmarkAdded", CPU: 8, NsPerOp: 42},    // new: informational
	}}
	report, regressions := diffBenchFiles(oldF, newF, 5)
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", regressions, report)
	}
	for _, want := range []string{
		"BenchmarkSlower-8", "REGRESSED", "+30.0%",
		"BenchmarkStable-8", "BenchmarkFaster-8", "-40.0%",
		"(new)", "(removed)",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	// A looser threshold admits the slowdown.
	if _, n := diffBenchFiles(oldF, newF, 50); n != 0 {
		t.Fatalf("threshold 50%% still flagged %d regressions", n)
	}
}

// TestDiffKeysByNameAndCPU pins the multicore gating rule: the same
// benchmark at different -cpu values is two independent entries. A
// 4-CPU run being slower per op than last week's 1-CPU run is not a
// regression; only the matching (name, cpu) pair gates.
func TestDiffKeysByNameAndCPU(t *testing.T) {
	oldF := &benchFile{Benchmarks: []benchResult{
		{Name: "BenchmarkAxes", CPU: 1, NsPerOp: 1000},
		{Name: "BenchmarkAxes", CPU: 4, NsPerOp: 400},
	}}
	newF := &benchFile{Benchmarks: []benchResult{
		{Name: "BenchmarkAxes", CPU: 1, NsPerOp: 1010}, // fine at cpu=1
		{Name: "BenchmarkAxes", CPU: 4, NsPerOp: 900},  // regressed at cpu=4
	}}
	report, regressions := diffBenchFiles(oldF, newF, 10)
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (only the cpu=4 entry)\n%s", regressions, report)
	}
	if !strings.Contains(report, "BenchmarkAxes-4") {
		t.Fatalf("report does not name the cpu=4 entry:\n%s", report)
	}
	// A -cpu value with no old counterpart is informational, never a gate.
	withNewCPU := &benchFile{Benchmarks: []benchResult{
		{Name: "BenchmarkAxes", CPU: 1, NsPerOp: 1010},
		{Name: "BenchmarkAxes", CPU: 16, NsPerOp: 5000},
	}}
	report, regressions = diffBenchFiles(oldF, withNewCPU, 10)
	if regressions != 0 {
		t.Fatalf("new -cpu value gated: %d regressions\n%s", regressions, report)
	}
	if !strings.Contains(report, "(new)") {
		t.Fatalf("cpu=16 entry not listed as new:\n%s", report)
	}
}

// TestLoadBenchFileNormalizesLegacy covers artifacts written before
// the cpu field existed: the suffix still inside the name is split out
// on load, so old and new files diff against each other.
func TestLoadBenchFileNormalizesLegacy(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "legacy.json")
	writeBenchFile(t, path, &benchFile{Benchmarks: []benchResult{
		{Name: "BenchmarkOld/k=5-8", NsPerOp: 100, Iterations: 1},
		{Name: "BenchmarkOld/k=5", NsPerOp: 300, Iterations: 1},
	}})
	f, err := loadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Benchmarks[0].Name != "BenchmarkOld/k=5" || f.Benchmarks[0].CPU != 8 {
		t.Fatalf("legacy suffixed entry = %+v", f.Benchmarks[0])
	}
	if f.Benchmarks[1].Name != "BenchmarkOld/k=5" || f.Benchmarks[1].CPU != 1 {
		t.Fatalf("legacy bare entry = %+v", f.Benchmarks[1])
	}
}

// TestRunDiffExitCodes drives the subcommand end to end through files
// on disk: 0 when clean, 1 on regression, 2 on bad usage.
func TestRunDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeBenchFile(t, oldPath, &benchFile{Benchmarks: []benchResult{{Name: "B-8", NsPerOp: 100, Iterations: 1}}})
	writeBenchFile(t, newPath, &benchFile{Benchmarks: []benchResult{{Name: "B-8", NsPerOp: 200, Iterations: 1}}})

	var out strings.Builder
	if code := runDiff([]string{"-threshold", "10", oldPath, newPath}, &out); code != 1 {
		t.Fatalf("regressing diff exit = %d, want 1\n%s", code, out.String())
	}
	out.Reset()
	if code := runDiff([]string{"-threshold", "150", oldPath, newPath}, &out); code != 0 {
		t.Fatalf("tolerant diff exit = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "B-8") {
		t.Fatalf("report missing benchmark line:\n%s", out.String())
	}
	if code := runDiff([]string{oldPath}, &out); code != 2 {
		t.Fatalf("one-file usage exit = %d, want 2", code)
	}
	if code := runDiff([]string{oldPath, filepath.Join(dir, "missing.json")}, &out); code != 2 {
		t.Fatalf("missing file exit = %d, want 2", code)
	}
}
