// Command benchmark is the repository's process-level load benchmark:
// it builds cmd/xpathserve and cmd/xpathrouter, starts them as child
// processes, drives them over loopback HTTP with closed-loop clients,
// verifies every answer against an oracle that shares no code with the
// engines, and prints every metric by name with its unit. README.md in
// this directory defines the workloads and metrics.
//
// Usage (through run.sh, which builds this program inside the checkout):
//
//	run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//	run.sh [-seed N] [-seconds S] [-runs R] [-out F]       every workload, both kinds of run
//	run.sh compare A.json B.json                           judge B against A by the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the driver reads: it is the one
// place that names the metrics, their units and their bounds.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	root := flag.String("root", "..", "repository checkout (run.sh passes it)")
	workloadName := flag.String("workload", "", "run this one workload once and print one JSON result line; without it, every workload runs")
	seed := flag.Int64("seed", 1, "seeds the documents and the request order")
	seconds := flag.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the traced windows and prints the per-layer metrics")
	runs := flag.Int("runs", 1, "without -workload: repeat the whole set this many times and report medians and quartiles")
	out := flag.String("out", "", "without -workload: also write every run's numbers to this JSON file")
	flag.Parse()

	p, err := newPaths(*root)
	if err != nil {
		return fail(err)
	}
	sp, err := loadSpec(p.root)
	if err != nil {
		return fail(err)
	}
	if flag.Arg(0) == "compare" {
		if flag.NArg() != 3 {
			return fail(fmt.Errorf("usage: compare A.json B.json"))
		}
		return compareFiles(os.Stdout, sp, flag.Arg(1), flag.Arg(2))
	}
	if flag.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds == 0 {
		*seconds = sp.RunSeconds
	}
	if *seconds < 3 {
		return fail(fmt.Errorf("-seconds %d: need at least 3, one for each window of the traced run", *seconds))
	}

	// Children die with the harness: stopAll runs on return and on a
	// signal, and a panic on this goroutine unwinds through the defer.
	e := env{paths: p, procs: &procs{}}
	defer e.procs.stopAll()
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if err := p.buildServers(ctx); err != nil {
		return fail(err)
	}
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		return e.contractRun(ctx, sp, w, *seed, *seconds, *trace == 1)
	}
	return e.suite(ctx, sp, *seed, *seconds, *runs, *out)
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 1
}

// contractResult is the one line a single run prints last.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractRun runs one workload once and prints the result line: the
// end-to-end metrics, or with traced the per-layer metrics. Anything
// that keeps the run from measuring exits non-zero without a result.
func (e env) contractRun(ctx context.Context, sp *spec, w workload, seed int64, seconds int, traced bool) int {
	specs := sp.EndToEnd
	if traced {
		specs = sp.PerLayer
		if err := e.paths.buildProbe(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: layers_ok=false\n")
			return fail(err)
		}
	}
	res, err := e.runWorkload(ctx, w, seed, seconds, traced)
	for _, n := range res.Notes {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.name, n)
	}
	if err != nil {
		printMetrics(os.Stderr, specs, res)
		return fail(fmt.Errorf("%s: %w", w.name, err))
	}
	out := contractResult{
		Correct:   res.Failed == 0 && res.Attempted > 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]contractMetric{},
	}
	for _, m := range specs {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fail(fmt.Errorf("BENCHMARK.json names metric %q, which the run did not produce", m.Name))
		}
		out.Metrics[m.Name] = contractMetric{Value: v, Unit: m.Unit}
	}
	printMetrics(os.Stderr, specs, res)
	line, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

// printMetrics prints whatever of the named metrics a run measured,
// one per line with its unit.
func printMetrics(w *os.File, specs []metricSpec, res *result) {
	for _, m := range specs {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "%-14s %-30s %14.4f %s\n", res.Workload, m.Name, v, m.Unit)
		}
	}
}

// suiteFile is what the whole-set mode writes with -out and compare
// reads.
type suiteFile struct {
	Meta struct {
		Date    string `json:"date"`
		Commit  string `json:"commit"`
		Go      string `json:"go"`
		NProc   int    `json:"nproc"`
		Seed    int64  `json:"seed"`
		Seconds int    `json:"seconds"`
		Runs    int    `json:"runs"`
	} `json:"meta"`
	// Results holds one end-to-end and one traced result per workload
	// per run, in the order they ran.
	Results []*result `json:"results"`
}

// suite runs every workload, end to end and traced, runs times over:
// runs outermost and workloads inner, so that drift of the machine hits
// every workload alike.
func (e env) suite(ctx context.Context, sp *spec, seed int64, seconds, runs int, outPath string) int {
	var file suiteFile
	file.Meta.Date = time.Now().UTC().Format(time.RFC3339)
	file.Meta.Commit = commitOf(e.paths.root)
	file.Meta.Go = runtime.Version()
	file.Meta.NProc = runtime.NumCPU()
	file.Meta.Seed, file.Meta.Seconds, file.Meta.Runs = seed, seconds, runs

	if err := e.paths.buildProbe(ctx); err != nil {
		// Without the probe the servers' own counts still come out of
		// the traced run's first window; only the probe metrics go.
		e.noProbe = true
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	}
	fmt.Printf("layers_ok=%v\n", !e.noProbe)

	code := 0
runs:
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				res, err := e.runWorkload(ctx, w, seed, seconds, traced)
				file.Results = append(file.Results, res)
				if traced {
					printMetrics(os.Stdout, sp.PerLayer, res)
				} else {
					printMetrics(os.Stdout, sp.EndToEnd, res)
					fmt.Printf("%-14s %-30s %14.6f ratio (%d failed of %d attempted; %d /query samples)\n",
						w.name, "error_rate", res.Metrics["error_rate"], res.Failed, res.Attempted, res.Samples)
				}
				for _, n := range res.Notes {
					fmt.Printf("%-14s note: %s\n", w.name, n)
				}
				if err != nil {
					// An abort ends the set; what was measured stays printed
					// and is still written to -out.
					code = fail(fmt.Errorf("%s: %w", w.name, err))
					break runs
				}
				if res.Failed > 0 {
					code = 1
				}
			}
		}
	}
	if runs > 1 {
		printSummary(os.Stdout, sp, file.Results)
	}
	if outPath != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			return fail(fmt.Errorf("write %s: %w", outPath, err))
		}
	}
	return code
}

// commitOf names the commit of a git checkout, or "unknown" when root
// is not one (the files of a commit without its history).
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
