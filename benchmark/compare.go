package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// This file judges one set of runs against another by the bounds of
// BENCHMARK.json, and prints the medians and quartiles of a set.

// verdict is the outcome of comparing one (workload, metric) pair.
type verdict string

const (
	better      verdict = "better"
	withinBound verdict = "within-bound"
	worse       verdict = "worse"
	// unresolved means the base's own runs spread wider than the bound,
	// so a change of the size of the bound cannot be told from noise.
	unresolved verdict = "unresolved"
)

// comparison is one row of compare's output.
type comparison struct {
	baseMedian, baseQ1, baseQ3 float64
	newMedian, newQ1, newQ3    float64
	ratio                      float64 // new median ÷ base median
	verdict                    verdict
}

// judge compares the values of one metric on one workload. The metric
// is worse when the new median is off the base median, in the
// direction m.Better says is bad, by more than m.Bound of the base
// median; better when it is off by more than that in the good
// direction.
func judge(m metricSpec, base, new []float64) comparison {
	c := comparison{baseMedian: median(base), newMedian: median(new)}
	c.baseQ1, c.baseQ3 = quartiles(base)
	c.newQ1, c.newQ3 = quartiles(new)
	c.ratio = ratio(c.newMedian, c.baseMedian)
	change := ratio(c.newMedian-c.baseMedian, c.baseMedian) // relative, positive = grew
	if m.Better == "lower" {
		change = -change // positive = improved
	}
	switch {
	case ratio(c.baseQ3-c.baseQ1, c.baseMedian) > m.Bound:
		c.verdict = unresolved
	case change < -m.Bound:
		c.verdict = worse
	case change > m.Bound:
		c.verdict = better
	default:
		c.verdict = withinBound
	}
	return c
}

// valuesOf collects, per workload, the values of every metric over the
// end-to-end (or traced) results of a file.
func valuesOf(results []*result, traced bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range results {
		if r.Traced != traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out
}

func readSuiteFile(path string) (*suiteFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per (workload, end-to-end metric), both medians
// with quartiles, the ratio with its base and the verdict. It returns a
// non-zero exit code when any pair is worse or the error rate rose.
func compareFiles(w io.Writer, sp *spec, basePath, newPath string) int {
	baseFile, err := readSuiteFile(basePath)
	if err != nil {
		return fail(err)
	}
	newFile, err := readSuiteFile(newPath)
	if err != nil {
		return fail(err)
	}
	base, new := valuesOf(baseFile.Results, false), valuesOf(newFile.Results, false)
	code := 0
	fmt.Fprintf(w, "base %s (commit %s, %d runs)  new %s (commit %s, %d runs)\n",
		basePath, baseFile.Meta.Commit, baseFile.Meta.Runs, newPath, newFile.Meta.Commit, newFile.Meta.Runs)
	fmt.Fprintf(w, "%-14s %-18s %36s %36s %14s  %s\n", "workload", "metric",
		"base median [q1, q3]", "new median [q1, q3]", "new/base", "verdict")
	for _, wl := range workloads {
		for _, m := range sp.EndToEnd {
			b, n := base[wl.name][m.Name], new[wl.name][m.Name]
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			c := judge(m, b, n)
			fmt.Fprintf(w, "%-14s %-18s %12.4f [%10.4f,%10.4f] %12.4f [%10.4f,%10.4f] %7.3f of %-4.4g %s (bound %.2f, %s is better)\n",
				wl.name, m.Name, c.baseMedian, c.baseQ1, c.baseQ3, c.newMedian, c.newQ1, c.newQ3,
				c.ratio, c.baseMedian, c.verdict, m.Bound, m.Better)
			if c.verdict == worse {
				code = 1
			}
		}
		be, ne := median(base[wl.name]["error_rate"]), median(new[wl.name]["error_rate"])
		if ne > be {
			fmt.Fprintf(w, "%-14s %-18s rose from %.6f to %.6f\n", wl.name, "error_rate", be, ne)
			code = 1
		}
	}
	return code
}

// printSummary prints the median and quartiles of every metric over the
// runs of a set.
func printSummary(w io.Writer, sp *spec, results []*result) {
	fmt.Fprintf(w, "\nmedian [q1, q3] over the runs\n")
	for _, kind := range []struct {
		traced bool
		specs  []metricSpec
	}{{false, sp.EndToEnd}, {true, sp.PerLayer}} {
		vals := valuesOf(results, kind.traced)
		for _, wl := range workloads {
			for _, m := range kind.specs {
				v := vals[wl.name][m.Name]
				if len(v) == 0 {
					continue
				}
				q1, q3 := quartiles(v)
				fmt.Fprintf(w, "%-14s %-30s %14.4f [%12.4f,%12.4f] %s\n", wl.name, m.Name, median(v), q1, q3, m.Unit)
			}
		}
	}
}
