package harness

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// A per-cpu harness benchmark (since replaced by the benchmark's
// harness.parallel_speedup layer metric) showed "no speedup over serial" on
// a 1-CPU host. That is by design,
// not a scheduler bug: workers <= 0 resolves to runtime.GOMAXPROCS(0), so
// on one CPU the per-cpu case runs the single-worker inline path and is
// identical to serial. These tests pin both halves of that diagnosis —
// workers genuinely overlap whenever more than one is requested, and the
// per-cpu setting beats serial whenever the host can actually run two
// workers at once.

// TestParallelOrderedOverlap proves the pool really runs jobs
// concurrently: with 4 workers over sleeping jobs the in-flight high-water
// mark must exceed 1 even on a single CPU (a sleeping job releases the
// processor).
func TestParallelOrderedOverlap(t *testing.T) {
	var inFlight, peak atomic.Int64
	err := ParallelOrdered(4, 8, func(i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 {
		t.Errorf("peak in-flight jobs = %d with 4 workers: pool is not overlapping", peak.Load())
	}
}

// TestParallelOrderedPerCPUSpeedup asserts that the per-cpu setting
// (workers = 0) beats serial on CPU-bound jobs whenever the host has more
// than one CPU to schedule on. On a 1-CPU host per-cpu is serial by
// design (the inline single-worker path), so there is nothing to measure.
func TestParallelOrderedPerCPUSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("per-cpu equals serial by design on a single-CPU host")
	}
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	spin := func(d time.Duration) {
		deadline := time.Now().Add(d)
		x := 0
		for time.Now().Before(deadline) {
			x++ // CPU-bound: never yields the processor voluntarily
		}
		_ = x
	}
	n := 4 * runtime.GOMAXPROCS(0)
	job := func(i int) error { spin(10 * time.Millisecond); return nil }

	measure := func(workers int) time.Duration {
		start := time.Now()
		if err := ParallelOrdered(workers, n, job); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	measure(0) // warm up the pool and the scheduler

	serial := measure(1)
	perCPU := measure(0)
	// Demand any real speedup (the bound is deliberately loose: CI hosts
	// share cores). Linear would be serial/GOMAXPROCS.
	if perCPU >= serial*9/10 {
		t.Errorf("per-cpu %v vs serial %v on %d CPUs: expected a speedup",
			perCPU, serial, runtime.GOMAXPROCS(0))
	}
}
