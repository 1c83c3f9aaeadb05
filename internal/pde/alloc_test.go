package pde

import (
	"runtime"
	"runtime/debug"
	"testing"

	"ftsg/internal/grid"
	"ftsg/internal/mpi"
)

// TestHaloExchangeRecyclesRows pins the steady-state allocation of the halo
// exchange: after a warm-up that fills the transport's buffer pool, an
// 8-rank solver must allocate less than 64 bytes per rank per step — every
// halo row sent is a recycled row some rank released — where it used to
// allocate the two rows it sends (2·nx·8 bytes). GC is off so nothing
// empties the pool mid-measurement.
func TestHaloExchangeRecyclesRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build's sync.Pool drops items at random")
	}
	const (
		ranks  = 8
		warm   = 16
		steps  = 256
		budget = 64 // bytes per rank per step
	)
	lv := grid.Level{I: 7, J: 6} // nx = 128: a 1 KiB halo row
	prob := testProblem()
	dt := 0.25 / 128.0
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One processor: sync.Pool caches per processor, and a row released on
	// one but requested on another would count the scheduler's placement.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	_, err := mpi.Run(mpi.Options{NProcs: ranks, Entry: func(proc *mpi.Proc) {
		c := proc.World()
		s, err := NewParallelSolver(c, prob, lv, dt)
		if err != nil {
			t.Errorf("NewParallelSolver: %v", err)
			return
		}
		defer s.Release()
		// The barriers fence the measured region: no rank is still
		// warming up, or already tearing down, while rank 0 reads.
		measure := func(m *runtime.MemStats) {
			if err := c.Barrier(); err != nil {
				t.Errorf("Barrier: %v", err)
			}
			if c.Rank() == 0 {
				runtime.ReadMemStats(m)
			}
			if err := c.Barrier(); err != nil {
				t.Errorf("Barrier: %v", err)
			}
		}
		if err := s.Run(warm); err != nil {
			t.Errorf("Run: %v", err)
			return
		}
		measure(&before)
		if err := s.Run(steps); err != nil {
			t.Errorf("Run: %v", err)
			return
		}
		measure(&after)
	}})
	if err != nil {
		t.Fatal(err)
	}
	perStep := float64(after.TotalAlloc-before.TotalAlloc) / (ranks * steps)
	t.Logf("%.1f B per rank per step", perStep)
	if perStep >= budget {
		t.Errorf("%.1f B per rank per step, want < %d", perStep, budget)
	}
}
