// Command benchjson converts `go test -bench` text output into a JSON
// document, so benchmark runs can be persisted as artifacts and
// compared across commits instead of scrolling away in CI logs — and
// diffs two such artifacts so CI can gate on regressions.
//
// Usage:
//
//	go test -bench . -run '^$' . | benchjson -out BENCH_42.json
//	go test -bench Serving -run '^$' . | benchjson -dir benchruns
//	benchjson diff -threshold 10 BENCH_41.json BENCH_42.json
//
// With -out the result goes exactly there; with -dir (and no -out) the
// file is named BENCH_<n>.json for the smallest n not already present
// in the directory, so successive runs form a numbered trajectory.
// Standard input must be the plain (non -json) `go test` output; lines
// that are not benchmark results are preserved under "context" when
// they carry goos/goarch/pkg/cpu metadata and ignored otherwise.
//
// The diff subcommand compares ns/op per benchmark name between an old
// and a new artifact, prints every comparison, and exits 1 when any
// benchmark got slower by more than -threshold percent — the CI gate
// over the artifacts CI already uploads. Benchmarks present in only
// one file are reported but never gate (renames must not fail builds).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one parsed benchmark line. NsPerOp is pulled out of
// Metrics because every result has it and trend tooling keys on it;
// all other "value unit" pairs (B/op, allocs/op, custom ReportMetric
// units) stay in Metrics. Name is stored without the GOMAXPROCS
// suffix `go test` appends (BenchmarkFoo-8); the suffix lands in CPU
// instead (1 when absent), so runs at different -cpu values are
// distinct entries that never gate against each other.
type benchResult struct {
	Name       string             `json:"name"`
	CPU        int                `json:"cpu"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// key identifies a benchmark across artifacts: the same name measured
// at a different GOMAXPROCS is a different measurement.
func (b benchResult) key() benchKey { return benchKey{b.Name, b.CPU} }

// display renders the key the way `go test` prints it.
func (b benchResult) display() string {
	if b.CPU > 1 {
		return fmt.Sprintf("%s-%d", b.Name, b.CPU)
	}
	return b.Name
}

type benchKey struct {
	Name string
	CPU  int
}

// splitCPUSuffix splits the `-N` GOMAXPROCS suffix off a benchmark
// name; a name without one ran at GOMAXPROCS=1 (`go test` omits the
// suffix then).
func splitCPUSuffix(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			return name[:i], n
		}
	}
	return name, 1
}

type benchFile struct {
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []benchResult     `json:"benchmarks"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(runDiff(os.Args[2:], os.Stdout))
	}
	runConvert(os.Args[1:])
}

func runConvert(args []string) {
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	in := fs.String("in", "", "read `go test -bench` output from this file instead of stdin")
	out := fs.String("out", "", "write JSON here (default: BENCH_<n>.json under -dir)")
	dir := fs.String("dir", ".", "directory for auto-numbered BENCH_<n>.json files")
	fs.Parse(args)

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	parsed, err := parse(r)
	if err != nil {
		fatal(err)
	}
	if len(parsed.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found in input"))
	}
	path := *out
	if path == "" {
		path, err = nextBenchPath(*dir)
		if err != nil {
			fatal(err)
		}
	}
	buf, err := json.MarshalIndent(parsed, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(parsed.Benchmarks), path)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}

// runDiff implements `benchjson diff [-threshold pct] old.json new.json`,
// returning the process exit code: 0 when no benchmark regressed
// beyond the threshold, 1 when at least one did, 2 on usage or read
// errors.
func runDiff(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("benchjson diff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 5, "max tolerated ns/op regression in percent")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	if len(rest) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson diff: want exactly two files: old.json new.json")
		return 2
	}
	oldFile, err := loadBenchFile(rest[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson diff: %v\n", err)
		return 2
	}
	newFile, err := loadBenchFile(rest[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson diff: %v\n", err)
		return 2
	}
	report, regressions := diffBenchFiles(oldFile, newFile, *threshold)
	fmt.Fprint(w, report)
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchjson diff: %d benchmark(s) regressed beyond %.1f%%\n", regressions, *threshold)
		return 1
	}
	return 0
}

func loadBenchFile(path string) (*benchFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	// Artifacts written before the cpu field carried the GOMAXPROCS
	// suffix inside the name; normalize so (name, cpu) keying holds
	// across old and new files.
	for i, b := range f.Benchmarks {
		if b.CPU == 0 {
			f.Benchmarks[i].Name, f.Benchmarks[i].CPU = splitCPUSuffix(b.Name)
		}
	}
	return &f, nil
}

// diffBenchFiles compares ns/op per (benchmark name, cpu) pair and
// renders one line per comparison; a positive delta is a slowdown. It
// returns the rendered report and how many benchmarks regressed beyond
// threshold percent. Only keys present in both files can gate;
// additions and removals are listed informationally — in particular a
// run at a new -cpu value never gates against the other value's
// numbers.
func diffBenchFiles(oldFile, newFile *benchFile, threshold float64) (string, int) {
	oldNs := map[benchKey]float64{}
	for _, b := range oldFile.Benchmarks {
		oldNs[b.key()] = b.NsPerOp
	}
	var sb strings.Builder
	regressions := 0
	seen := map[benchKey]bool{}
	for _, b := range newFile.Benchmarks {
		old, ok := oldNs[b.key()]
		if !ok {
			fmt.Fprintf(&sb, "%-60s %12s %12.0f  (new)\n", b.display(), "-", b.NsPerOp)
			continue
		}
		seen[b.key()] = true
		if old <= 0 {
			fmt.Fprintf(&sb, "%-60s %12.0f %12.0f  (old is zero, skipped)\n", b.display(), old, b.NsPerOp)
			continue
		}
		delta := (b.NsPerOp - old) / old * 100
		verdict := "ok"
		if delta > threshold {
			verdict = "REGRESSED"
			regressions++
		}
		fmt.Fprintf(&sb, "%-60s %12.0f %12.0f  %+7.1f%%  %s\n", b.display(), old, b.NsPerOp, delta, verdict)
	}
	var gone []benchResult
	for _, b := range oldFile.Benchmarks {
		if !seen[b.key()] {
			gone = append(gone, b)
		}
	}
	sort.Slice(gone, func(i, j int) bool {
		if gone[i].Name != gone[j].Name {
			return gone[i].Name < gone[j].Name
		}
		return gone[i].CPU < gone[j].CPU
	})
	for _, b := range gone {
		fmt.Fprintf(&sb, "%-60s %12.0f %12s  (removed)\n", b.display(), oldNs[b.key()], "-")
	}
	return sb.String(), regressions
}

// parse consumes `go test -bench` output: metadata lines (goos:,
// goarch:, pkg:, cpu:) land in Context, Benchmark* result lines are
// parsed, everything else is skipped.
func parse(r io.Reader) (*benchFile, error) {
	out := &benchFile{Context: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if key, val, ok := strings.Cut(line, ": "); ok && !strings.HasPrefix(line, "Benchmark") {
			switch key {
			case "goos", "goarch", "pkg", "cpu":
				out.Context[key] = strings.TrimSpace(val)
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		out.Benchmarks = append(out.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Record the distinct GOMAXPROCS values measured (the -cpu list of
	// the run), so an artifact tells apart 1-CPU and multicore runs at
	// a glance.
	cpuSet := map[int]bool{}
	for _, b := range out.Benchmarks {
		cpuSet[b.CPU] = true
	}
	if len(cpuSet) > 0 {
		var cpus []int
		for c := range cpuSet {
			cpus = append(cpus, c)
		}
		sort.Ints(cpus)
		parts := make([]string, len(cpus))
		for i, c := range cpus {
			parts[i] = strconv.Itoa(c)
		}
		out.Context["gomaxprocs"] = strings.Join(parts, ",")
	}
	if len(out.Context) == 0 {
		out.Context = nil
	}
	return out, nil
}

// parseBenchLine parses one result line:
//
//	BenchmarkName-8   1234   987654 ns/op   16 B/op   2 allocs/op
//
// Fields after the iteration count come in "value unit" pairs.
func parseBenchLine(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return benchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	name, cpu := splitCPUSuffix(fields[0])
	res := benchResult{Name: name, CPU: cpu, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			res.NsPerOp = v
		}
		res.Metrics[unit] = v
	}
	if len(res.Metrics) == 0 {
		return benchResult{}, false
	}
	return res, true
}

// nextBenchPath returns dir/BENCH_<n>.json for the smallest n not yet
// taken, starting at 1.
func nextBenchPath(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	taken := map[int]bool{}
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	for _, m := range matches {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_"), ".json")
		if n, err := strconv.Atoi(base); err == nil {
			taken[n] = true
		}
	}
	n := 1
	for taken[n] {
		n++
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n)), nil
}
