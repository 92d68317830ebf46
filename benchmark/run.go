package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// This file runs one workload once: either the end-to-end measurement
// with tracing off, or the traced run that gives the per-layer numbers.

const (
	warmUp = 2 * time.Second
	// windowLen is the length of the consecutive windows the measured time
	// is split into. Between two windows the clients are held and the
	// machine's speed is measured (calibrate.go); every time in a window
	// is scaled by the speed on either side of it. Throughput, the median
	// latency and CPU per operation are the median of the window values,
	// so that a stall of the machine, which on a shared host takes a
	// second now and then, costs a window and not the run; the 99th
	// percentile is taken over the pooled samples, which a single window
	// is too small for.
	windowLen = time.Second
	// setUps is how many times an end-to-end run sets the servers up;
	// setup_s is the median.
	setUps = 11
	// setUpAllowance is the part of a run's planned time that is not
	// warm-up or measurement: set-ups, the probe topology, the
	// measurements inside evaluate. The watchdog aborts at overrunFactor
	// times the whole.
	setUpAllowance = 8 * time.Second
)

// result is the outcome of one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is the number of pooled /query latencies behind the
	// percentiles. Notes holds what a reader must know to trust the
	// numbers, such as a percentile with too few samples beyond it.
	Samples int      `json:"samples"`
	Notes   []string `json:"notes,omitempty"`
}

// env is what every run needs.
type env struct {
	paths paths
	procs *procs
	// noProbe is set when the layer probe did not build: a traced run
	// then stops after its first window and reports the servers' own
	// counts only.
	noProbe bool
}

// selfCPU returns the CPU seconds this process has used.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// mark is what the harness reads at a window boundary.
type mark struct {
	at  time.Time
	cpu float64 // CPU seconds the servers have used
}

func takeMark(t *topology) (mark, error) {
	m := mark{at: time.Now()}
	for _, s := range t.servers() {
		cpu, err := readProcCPU(s.pid())
		if err != nil {
			return m, fmt.Errorf("cpu of %s: %w", s.name, err)
		}
		m.cpu += cpu
	}
	return m, nil
}

// rssSample is the servers' summed resident set at one moment.
type rssSample struct {
	at time.Time
	mb float64
}

// rssEvery is how often the servers' resident sets are sampled. A Go
// server's resident set is a sawtooth of allocation and return to the
// system with a period of a second or less, so a window's figure is the
// mean of many samples, not one reading.
const rssEvery = 50 * time.Millisecond

// sampleRSS samples the servers' summed resident set every rssEvery
// until ctx ends and then returns the samples.
func sampleRSS(ctx context.Context, t *topology) []rssSample {
	var out []rssSample
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return out
		case now := <-tick.C:
			total := 0.0
			for _, s := range t.servers() {
				st, err := readProcStatus(s.pid())
				if err != nil {
					return out // the server is gone; the run is ending
				}
				total += st.rssMB
			}
			out = append(out, rssSample{at: now, mb: total})
		}
	}
}

// meanRSS is the mean of the samples taken in (from, to].
func meanRSS(samples []rssSample, from, to time.Time) (float64, bool) {
	var vals []float64
	for _, s := range samples {
		if s.at.After(from) && !s.at.After(to) {
			vals = append(vals, s.mb)
		}
	}
	return mean(vals), len(vals) > 0
}

// newClients builds the workload's numClients clients.
func newClients(w workload, docs []*docState, entry string, seed int64) []*client {
	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = newClient(i, w, docs, entry, seed)
	}
	return clients
}

// closeClients drops the clients' connections and notes the first
// failure any of them saw, for the report.
func closeClients(clients []*client, res *result) {
	for _, c := range clients {
		c.close()
		if c.firstErr != nil && len(res.Notes) == 0 {
			res.Notes = append(res.Notes, "first failure: "+c.firstErr.Error())
		}
	}
}

// runWorkload runs w once under the watchdog. A watchdog abort or any
// harness failure is returned as the error; failed operations are not
// errors, they are counted in the result.
func (e env) runWorkload(ctx context.Context, w workload, seed int64, seconds int, traced bool) (*result, error) {
	ctx, abort := context.WithCancelCause(ctx)
	planned := warmUp + time.Duration(seconds)*windowLen + setUpAllowance
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		watchdog(ctx, abort, planned, e.procs)
	}()
	defer func() {
		abort(nil)
		<-watched
	}()

	res := &result{Workload: w.name, Seed: seed, Traced: traced, Metrics: map[string]float64{}}
	var err error
	if traced {
		err = e.runTraced(ctx, w, seed, seconds, res)
	} else {
		err = e.runEndToEnd(ctx, w, seed, seconds, res)
	}
	e.procs.stopAll()
	if cause := context.Cause(ctx); errors.Is(cause, errAborted) {
		return res, cause
	}
	return res, err
}

func (e env) runEndToEnd(ctx context.Context, w workload, seed int64, seconds int, res *result) error {
	docs := genDocs(w, seed)
	// The servers are set up setUps times, the machine's speed measured
	// before and after each; the last set-up is measured on.
	var topo *topology
	var took []float64
	setUpCals := []calibration{calibrate()}
	for i := 0; i < setUps; i++ {
		if topo != nil {
			topo.stop(e.procs)
		}
		t, d, err := setUp(ctx, e.procs, e.paths, w, docs)
		if err != nil {
			return err
		}
		topo = t
		took = append(took, d.Seconds())
		setUpCals = append(setUpCals, calibrate())
	}
	setUpSeconds := make([]float64, setUps)
	for i, s := range took {
		setUpSeconds[i] = s * speedAround(setUpCals, i).wall
	}

	clients := newClients(w, docs, topo.entry.url, seed)
	defer closeClients(clients, res)
	// Window i runs from opens[i] to closes[i], between calibrations i
	// and i+1.
	var opens, closes []mark
	var cals []calibration
	sampling, stopSampling := context.WithCancel(ctx)
	sampled := make(chan []rssSample, 1)
	go func() { sampled <- sampleRSS(sampling, topo) }()
	g := newGate()
	err := drive(ctx, clients, g, warmUp, windowLen, func(i int) (bool, error) {
		m, err := takeMark(topo)
		if err != nil {
			return false, err
		}
		if i > 0 {
			closes = append(closes, m)
		}
		g.hold()
		cals = append(cals, calibrate())
		m, err = takeMark(topo)
		g.release()
		opens = append(opens, m)
		return i < seconds, err
	})
	stopSampling()
	rssSamples := <-sampled
	if err != nil {
		return err
	}
	var rates, p50s, cpuPerOp, rss, lat []float64
	for i := range closes {
		from, to := opens[i], closes[i]
		win := summarise(clients, from.at, to.at)
		res.Attempted += win.attempted
		res.Failed += win.failed
		speed := speedAround(cals, i)
		rate := float64(win.correct()) / win.seconds
		resident, haveRSS := meanRSS(rssSamples, from.at, to.at)
		fmt.Fprintf(os.Stderr, "benchmark: window %2d: %8.1f ops/s at speed %.3f = %8.1f ops/s at speed 1, %7.1f MB resident\n",
			i, rate, speed.wall, rate/speed.wall, resident)
		rates = append(rates, rate/speed.wall)
		if haveRSS {
			rss = append(rss, resident)
		}
		if len(win.queryMs) > 0 {
			p50s = append(p50s, median(win.queryMs)*speed.wall)
			for _, ms := range win.queryMs {
				lat = append(lat, ms*speed.wall)
			}
		}
		if win.correct() > 0 {
			cpuPerOp = append(cpuPerOp, (to.cpu-from.cpu)*1e3/float64(win.correct())*speed.cpu)
		}
	}
	sort.Float64s(lat)
	res.Samples = len(lat)
	p99, ok := percentile(lat, 0.99)
	if !ok {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"query_p99_ms rests on %d samples, fewer than %d beyond it", len(lat), minBeyond))
	}
	res.Metrics["throughput_ops_s"] = median(rates)
	res.Metrics["query_p50_ms"] = median(p50s)
	res.Metrics["query_p99_ms"] = p99
	res.Metrics["cpu_ms_per_op"] = median(cpuPerOp)
	res.Metrics["rss_mb"] = mean(rss)
	res.Metrics["setup_s"] = median(setUpSeconds)
	res.Metrics["error_rate"] = ratio(float64(res.Failed), float64(res.Attempted))
	return nil
}

func (e env) runTraced(ctx context.Context, w workload, seed int64, seconds int, res *result) error {
	docs := genDocs(w, seed)
	topo, _, err := setUp(ctx, e.procs, e.paths, w, docs)
	if err != nil {
		return err
	}
	var pr *prober
	if !e.noProbe {
		if pr, err = newProber(ctx, e.procs, e.paths, w, docs); err != nil {
			return err
		}
		defer pr.stop(e.procs)
	}

	clients := newClients(w, docs, topo.entry.url, seed)
	defer closeClients(clients, res)
	win := time.Duration(seconds) * time.Second / 3

	// Window 1: the full load, tracing off, for the servers' own counts
	// and the generator's CPU.
	var counts [2]counters
	var ownCPU [2]float64
	var times [2]time.Time
	// twoTicks drives one window: tick 0 opens it, tick 1 closes it.
	twoTicks := func(at func(i int) error) func(int) (bool, error) {
		return func(i int) (bool, error) {
			times[i] = time.Now()
			return i == 0, at(i)
		}
	}
	err = drive(ctx, clients, newGate(), warmUp, win, twoTicks(func(i int) (err error) {
		ownCPU[i] = selfCPU()
		counts[i], err = readCounts(ctx, topo)
		return err
	}))
	if err != nil {
		return err
	}
	loaded := summarise(clients, times[0], times[1])
	for k, v := range countMetrics(counts[0], counts[1]) {
		res.Metrics[k] = v
	}
	res.Metrics["bench.client_cpu_ms_per_op"] = ratio((ownCPU[1]-ownCPU[0])*1e3, float64(loaded.correct()))
	res.Attempted, res.Failed = loaded.attempted, loaded.failed
	res.Samples = len(loaded.queryMs)
	for _, s := range topo.servers() {
		st, err := readProcStatus(s.pid())
		if err != nil {
			return fmt.Errorf("memory of %s: %w", s.name, err)
		}
		res.Metrics["peak_rss_mb"] += st.peakMB
	}
	if pr == nil {
		return nil
	}

	// Windows 2 and 3: one client replays the stream, first untraced,
	// then with the layer probe on every probeEvery-th operation.
	one := clients[:1]
	noMark := func(int) error { return nil }
	if err := drive(ctx, one, newGate(), 0, win, twoTicks(noMark)); err != nil {
		return err
	}
	untraced := summarise(one, times[0], times[1])

	ops := 0
	one[0].afterOp = func(o op) {
		if ops%probeEvery == 0 {
			pr.probe(ctx, ops, o)
		}
		ops++
	}
	err = drive(ctx, one, newGate(), 0, win, twoTicks(noMark))
	one[0].afterOp = nil
	if err != nil {
		return err
	}
	traced := summarise(one, times[0], times[1])
	if pr.err != nil {
		return pr.err
	}

	path, err := writeTrace(e.paths, w.name, pr.spans)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %d spans of %d probes written to %s\n", len(pr.spans), pr.probes, path)
	for k, v := range ladderMetrics(pr.spans) {
		res.Metrics[k] = v
	}
	micro, err := pr.micro(docs[0].name)
	if err != nil {
		return err
	}
	for k, v := range micro {
		res.Metrics[k] = v
	}
	untracedRate := float64(untraced.correct()) / untraced.seconds
	tracedRate := float64(traced.correct()) / traced.seconds
	res.Metrics["bench.trace_overhead_pct"] = ratio(untracedRate-tracedRate, untracedRate) * 100

	res.Attempted += untraced.attempted + traced.attempted
	res.Failed += untraced.failed + traced.failed
	return nil
}
