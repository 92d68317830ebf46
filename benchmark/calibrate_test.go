package main

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSpeedAround(t *testing.T) {
	cals := make([]calibration, 6)
	for i := range cals {
		cals[i] = calibration{wallRate: referenceRate * float64(i+1) / 10, cpuRate: referenceRate}
	}
	// The stretch between calibrations i and i+1 takes i-1 … i+2, as far
	// as they exist.
	for _, c := range []struct {
		i    int
		want float64
	}{
		{0, (0.1 + 0.2 + 0.3) / 3},
		{2, (0.2 + 0.3 + 0.4 + 0.5) / 4},
		{4, (0.4 + 0.5 + 0.6) / 3},
	} {
		got := speedAround(cals, c.i)
		if math.Abs(got.wall-c.want) > 1e-12 || got.cpu != 1 {
			t.Errorf("speedAround(_, %d) = %+v, want wall %v, cpu 1", c.i, got, c.want)
		}
	}
}

func TestCalibrateCounts(t *testing.T) {
	c := calibrate()
	if c.wallRate <= 0 || c.cpuRate <= 0 {
		t.Errorf("calibrate() = %+v, want positive rates", c)
	}
}

func TestGateHoldsClients(t *testing.T) {
	g := newGate()
	var inFlight, done atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				g.enter()
				inFlight.Add(1)
				time.Sleep(100 * time.Microsecond)
				inFlight.Add(-1)
				done.Add(1)
				g.leave()
			}
		}()
	}
	for round := 0; round < 3; round++ {
		time.Sleep(2 * time.Millisecond)
		g.hold()
		if n := inFlight.Load(); n != 0 {
			t.Errorf("hold returned with %d operations in flight", n)
		}
		before := done.Load()
		time.Sleep(2 * time.Millisecond)
		if after := done.Load(); after != before {
			t.Errorf("%d operations completed while the gate was held", after-before)
		}
		g.release()
	}
	stop.Store(true)
	wg.Wait()
	if done.Load() == 0 {
		t.Error("no operation ever passed the gate")
	}
}
