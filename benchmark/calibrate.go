package main

import (
	"encoding/json"
	"runtime"
	"sync"
	"time"
)

// This file measures how fast the machine is right now. The benchmark
// runs on a few cores of a shared host: when a neighbour is busy on the
// other hardware thread of a core, or on the shared cache, the same
// program gets a third less done per second, for seconds or minutes at a
// time, and none of it shows as stolen time. So between the measured
// windows the clients are held and every core runs a fixed piece of work
// of the kind the servers do (decode and encode a JSON answer, which
// allocates, branches and chases pointers); how much of it gets done
// against referenceRate is the machine's speed index for the windows on
// either side.

// calibrationLen is how long one calibration runs. The clients are held
// for that long once per window, so it is as short as still repeats.
const calibrationLen = 50 * time.Millisecond

// referenceRate is how many JSON round trips per second one core of
// this class of machine makes when nothing else runs on the host. It
// only fixes the scale of the index: both sides of a comparison use the
// same constant.
const referenceRate = 60000

var calibrationBody = []byte(`{"doc":"d3","version":7,"query":"//open_auction[bidder/increase > 4]/current","strategy":"optmincontext","planned":true,"value":{"kind":"node-set","count":3,"nodes":[{"node":"/site[1]/open_auctions[1]/open_auction[2]/current[1]","value":"112.50"},{"node":"/site[1]/open_auctions[1]/open_auction[5]/current[1]","value":"48.00"},{"node":"/site[1]/open_auctions[1]/open_auction[9]/current[1]","value":"310.25"}]}}`)

// calibration is what one run of the work came to: round trips per
// second and core on the clock, and per second of this process's CPU
// time, which leaves out the time the hypervisor gave the cores to
// other guests.
type calibration struct {
	wallRate, cpuRate float64
}

// calibrate runs the work on every core at once for calibrationLen. The
// clients are held meanwhile, so the CPU this process uses is the
// work's. Work done in a fixed time, summed over the cores, and not the
// time a fixed amount takes on the slowest: a core the hypervisor takes
// away for a moment then costs its share, as it costs the servers.
func calibrate() calibration {
	cores := runtime.NumCPU()
	rounds := make([]int, cores)
	cpu, start := selfCPU(), time.Now()
	var wg sync.WaitGroup
	for i := range rounds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < calibrationLen {
				var v map[string]any
				if err := json.Unmarshal(calibrationBody, &v); err != nil {
					panic(err) // the body is a constant
				}
				if _, err := json.Marshal(v); err != nil {
					panic(err)
				}
				rounds[i]++
			}
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(start).Seconds(), selfCPU()-cpu
	total := 0
	for _, n := range rounds {
		total += n
	}
	return calibration{
		wallRate: float64(total) / wall / float64(cores),
		cpuRate:  float64(total) / cpu,
	}
}

// speed is the machine's speed index: 1 on a calm machine of the
// reference class, below 1 when it gets less done. wall scales what is
// measured on the clock, cpu what is measured in CPU time.
type speed struct {
	wall, cpu float64
}

// speedAround is the speed in the stretch of time between calibrations
// i and i+1: the mean of those two and of their neighbours on either
// side, over the reference. One calibration is as short as it can be
// and is itself disturbed; the mean of four repeats better, and the
// machine's speed changes more slowly than that.
func speedAround(cals []calibration, i int) speed {
	var wall, cpu float64
	near := cals[max(0, i-1):min(len(cals), i+3)]
	for _, c := range near {
		wall += c.wallRate
		cpu += c.cpuRate
	}
	ref := float64(len(near)) * referenceRate
	return speed{wall: wall / ref, cpu: cpu / ref}
}

// gate lets the harness hold the clients between two operations.
type gate struct {
	mu   sync.Mutex
	cond *sync.Cond
	held bool
	busy int
}

func newGate() *gate {
	g := &gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// enter is called by a client before an operation; it waits while the
// gate is held.
func (g *gate) enter() {
	g.mu.Lock()
	for g.held {
		g.cond.Wait()
	}
	g.busy++
	g.mu.Unlock()
}

// leave is called by a client after an operation.
func (g *gate) leave() {
	g.mu.Lock()
	g.busy--
	g.mu.Unlock()
	g.cond.Broadcast()
}

// hold stops clients from starting operations and returns once none is
// in flight.
func (g *gate) hold() {
	g.mu.Lock()
	g.held = true
	for g.busy > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

func (g *gate) release() {
	g.mu.Lock()
	g.held = false
	g.mu.Unlock()
	g.cond.Broadcast()
}
