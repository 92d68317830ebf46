// Command xpathbench regenerates the tables and figures of the paper's
// evaluation section on the current machine.
//
// Usage:
//
//	xpathbench -exp all                 # everything (several minutes)
//	xpathbench -exp exp1                # Figure 2 left
//	xpathbench -exp table7 -cap 5s      # Table VII with a 5s point cap
//	xpathbench -exp exp4 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiments: exp1, exp2, exp3, exp4, exp5a, exp5b, table5 (also covers
// Figure 12), table7, ablate.
//
// -cpuprofile and -memprofile write pprof profiles covering the
// measured experiments, so performance PRs can attach `go tool pprof`
// evidence for where the time and allocations go. -blockprofile and
// -mutexprofile add the contention profiles: where goroutines block and
// which locks they fight over.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
)

func main() {
	os.Exit(run())
}

// run holds every deferred profile finalizer, so any exit path — bad
// flags included — still stops the CPU profile and closes its file
// (os.Exit in main would skip defers and truncate the profile). The
// named return lets the deferred heap-profile writer report failure.
func run() (exitCode int) {
	exp := flag.String("exp", "all", "experiment to run: exp1|exp2|exp3|exp4|exp5a|exp5b|table5|table7|ablate|all")
	cap := flag.Duration("cap", 2*time.Second, "wall-clock cap per measured point")
	scale := flag.Float64("scale", 1, "document-size scale factor for exp4 (1 = paper-sized)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken after the run to `file`")
	blockprofile := flag.String("blockprofile", "", "write a goroutine blocking profile taken after the run to `file`")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex contention profile taken after the run to `file`")
	flag.Parse()

	cfg := bench.Config{Cap: *cap, Scale: *scale, Out: os.Stdout}
	cfg.FprintConfig(os.Stdout)
	runners := map[string]func(){
		"exp1":   func() { bench.Exp1(cfg) },
		"exp2":   func() { bench.Exp2(cfg) },
		"exp3":   func() { bench.Exp3(cfg) },
		"exp4":   func() { bench.Exp4(cfg) },
		"exp5a":  func() { bench.Exp5(cfg, false) },
		"exp5b":  func() { bench.Exp5(cfg, true) },
		"table5": func() { bench.Table5(cfg) },
		"table7": func() { bench.Table7(cfg) },
		"ablate": func() { bench.Ablation(cfg) },
	}
	order := []string{"exp1", "exp2", "exp3", "exp4", "exp5a", "exp5b", "table5", "table7", "ablate"}
	var todo []func()
	if *exp == "all" {
		for _, name := range order {
			todo = append(todo, runners[name])
		}
	} else if r, ok := runners[*exp]; ok {
		todo = append(todo, r)
	} else {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose one of %v or all\n", *exp, order)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xpathbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "xpathbench: start cpu profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xpathbench: %v\n", err)
				exitCode = 1
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "xpathbench: write heap profile: %v\n", err)
				exitCode = 1
			}
		}()
	}
	// Contention profiles for the worker pools and multicore kernels:
	// sampling must be on BEFORE the experiments run, and the lookup
	// profiles are written after, mirroring the heap-profile pattern.
	if *blockprofile != "" {
		runtime.SetBlockProfileRate(1)
		defer func() {
			if err := writeLookupProfile("block", *blockprofile); err != nil {
				fmt.Fprintf(os.Stderr, "xpathbench: %v\n", err)
				exitCode = 1
			}
		}()
	}
	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(1)
		defer func() {
			if err := writeLookupProfile("mutex", *mutexprofile); err != nil {
				fmt.Fprintf(os.Stderr, "xpathbench: %v\n", err)
				exitCode = 1
			}
		}()
	}

	for _, r := range todo {
		r()
	}
	return exitCode
}

// writeLookupProfile writes one of the runtime's named profiles
// ("block", "mutex") to path.
func writeLookupProfile(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("no %s profile in this runtime", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := p.WriteTo(f, 0); err != nil {
		return fmt.Errorf("write %s profile: %v", name, err)
	}
	return nil
}
