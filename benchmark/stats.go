package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// This file holds the pure functions the measurements rest on:
// percentiles and quartiles, /proc parsing and Prometheus text parsing.

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 1) of sorted by the
// nearest-rank rule. ok is false when fewer than minBeyond samples lie
// beyond it: such a percentile is set by a handful of requests.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median returns the middle value of vals (the mean of the two middle
// values when there are an even number). It does not modify vals.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vals as Python's
// statistics.quantiles(vals, n=4) does (the exclusive method), which
// is how the spread of repeated runs is judged. With fewer than two
// values both quartiles are the one value.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 in 1-based ranks; like Python, the rank is
		// clamped first and the interpolation weight taken afterwards.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// clockTicksPerSecond is the unit of utime and stime in /proc/<pid>/stat.
// Linux has reported 100 to user space on every architecture Go runs on
// since 2.6, whatever the kernel's own timer frequency.
const clockTicksPerSecond = 100

// parseProcStat extracts user+system CPU seconds from the content of
// /proc/<pid>/stat. The command name (field 2) may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseProcStat(content string) (cpuSeconds float64, err error) {
	end := strings.LastIndexByte(content, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", content)
	}
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	fields := strings.Fields(content[end+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// readProcCPU returns the CPU seconds a process has used so far.
func readProcCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// procStatus is the memory part of /proc/<pid>/status.
type procStatus struct {
	rssMB  float64 // VmRSS: resident now
	peakMB float64 // VmHWM: the most ever resident
}

// parseProcStatus reads VmRSS and VmHWM (both in kB) from the content
// of /proc/<pid>/status.
func parseProcStatus(content string) (procStatus, error) {
	var st procStatus
	found := 0
	sc := bufio.NewScanner(strings.NewReader(content))
	for sc.Scan() {
		key, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || (key != "VmRSS" && key != "VmHWM") {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return st, fmt.Errorf("proc status: unexpected %s line %q", key, sc.Text())
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return st, fmt.Errorf("proc status %s: %w", key, err)
		}
		if key == "VmRSS" {
			st.rssMB = kb / 1024
		} else {
			st.peakMB = kb / 1024
		}
		found++
	}
	if found != 2 {
		return st, fmt.Errorf("proc status: found %d of VmRSS and VmHWM", found)
	}
	return st, nil
}

func readProcStatus(pid int) (procStatus, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procStatus{}, err
	}
	return parseProcStatus(string(b))
}

// parseMetricsText parses Prometheus text exposition into a map from
// the sample's full name, labels included as written
// (`xpath_stage_seconds_sum{stage="route"}`), to its value. Comment
// lines and samples whose value is not a number are skipped.
func parseMetricsText(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] += v
	}
	return out
}

// counters is a reading of named monotonic counters; readings of
// several servers are added together.
type counters map[string]float64

func (c counters) add(other counters) {
	for k, v := range other {
		c[k] += v
	}
}

// delta returns after − before for every counter of after.
func delta(before, after counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// ratio returns num/den, or 0 when den is 0 (a share of nothing).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
