// Command xpathbench regenerates the tables and figures of the paper's
// evaluation section on the current machine: the rows of
// bench.Experiments, by name (-h lists them with their figures).
//
// Usage:
//
//	xpathbench -exp all                 # everything (several minutes)
//	xpathbench -exp exp1                # Figure 2 left
//	xpathbench -exp table7 -cap 5s      # Table VII with a 5s point cap
//	xpathbench -exp exp4 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The profiles cover the measured experiments, so performance PRs can
// attach `go tool pprof` evidence for where the time and allocations go.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run holds every deferred profile finalizer, so any exit path still
// stops the CPU profile and closes its file (os.Exit in main would skip
// defers and truncate the profile); the named return lets the deferred
// heap-profile writer report failure.
func run(args []string, stdout, stderr io.Writer) (exitCode int) {
	var names []string
	for _, x := range bench.Experiments {
		names = append(names, x.Name+" ("+x.Figure+")")
	}
	fs := flag.NewFlagSet("xpathbench", flag.ExitOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: all, or one of "+strings.Join(names, ", "))
	cap := fs.Duration("cap", 2*time.Second, "wall-clock cap per measured point")
	scale := fs.Float64("scale", 1, "document-size scale factor for exp4 (1 = paper-sized)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memprofile := fs.String("memprofile", "", "write an allocation profile taken after the run to `file`")
	fs.Parse(args) // ExitOnError: a bad flag exits 2

	todo := bench.Experiments
	if *exp != "all" {
		i := slices.IndexFunc(todo, func(x bench.Experiment) bool { return x.Name == *exp })
		if i < 0 {
			fmt.Fprintf(stderr, "unknown experiment %q; choose all or one of %s\n", *exp, strings.Join(names, ", "))
			return 2
		}
		todo = todo[i : i+1]
	}
	cfg := bench.Config{Cap: *cap, Scale: *scale, Out: stdout}
	cfg.FprintConfig(stdout)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "xpathbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "xpathbench: start cpu profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "xpathbench: %v\n", err)
				exitCode = 1
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "xpathbench: write heap profile: %v\n", err)
				exitCode = 1
			}
		}()
	}

	for _, x := range todo {
		bench.Run(x, cfg)
	}
	return exitCode
}
