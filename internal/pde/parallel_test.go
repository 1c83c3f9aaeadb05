package pde

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"ftsg/internal/checkpoint"
	"ftsg/internal/grid"
	"ftsg/internal/mpi"
	"ftsg/internal/vtime"
)

// runSolverWorld runs the parallel solver on nprocs ranks for nsteps and
// returns the gathered grid from root.
func runSolverWorld(t *testing.T, nprocs int, lv grid.Level, nsteps int) *grid.Grid {
	t.Helper()
	p := testProblem()
	dt := 0.25 / float64(int(1)<<uint(maxInt(lv.I, lv.J)))
	var result *grid.Grid
	_, err := mpi.Run(mpi.Options{NProcs: nprocs, Entry: func(proc *mpi.Proc) {
		s, err := NewParallelSolver(proc.World(), p, lv, dt)
		if err != nil {
			t.Errorf("NewParallelSolver: %v", err)
			return
		}
		if err := s.Run(nsteps); err != nil {
			t.Errorf("Run: %v", err)
			return
		}
		g, err := s.Gather(0)
		if err != nil {
			t.Errorf("Gather: %v", err)
			return
		}
		if proc.World().Rank() == 0 {
			result = g
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	return result
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestParallelMatchesSerial checks bit-identical agreement between the
// domain-decomposed solver and the serial reference, for several process
// counts including uneven row splits.
func TestParallelMatchesSerial(t *testing.T) {
	lv := grid.Level{I: 4, J: 5}
	p := testProblem()
	dt := 0.25 / 32.0
	nsteps := 40
	serial := Solve(lv, p, dt, nsteps)
	for _, np := range []int{1, 2, 3, 7, 8, 32} {
		par := runSolverWorld(t, np, lv, nsteps)
		d, err := grid.L1Diff(serial, par)
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Errorf("nprocs=%d: parallel differs from serial by %g", np, d)
		}
	}
}

func TestTooManyProcsRejected(t *testing.T) {
	_, err := mpi.Run(mpi.Options{NProcs: 5, Entry: func(proc *mpi.Proc) {
		_, err := NewParallelSolver(proc.World(), testProblem(), grid.Level{I: 4, J: 2}, 1e-3)
		if err == nil {
			t.Error("5 procs accepted for 4 rows")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnstableDtRejected(t *testing.T) {
	_, err := mpi.Run(mpi.Options{NProcs: 1, Entry: func(proc *mpi.Proc) {
		_, err := NewParallelSolver(proc.World(), testProblem(), grid.Level{I: 6, J: 6}, 0.5)
		if err == nil {
			t.Error("unstable dt accepted")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStateRestoreRoundTrip(t *testing.T) {
	_, err := mpi.Run(mpi.Options{NProcs: 4, Entry: func(proc *mpi.Proc) {
		s, err := NewParallelSolver(proc.World(), testProblem(), grid.Level{I: 4, J: 4}, 1e-3)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Run(10); err != nil {
			t.Error(err)
			return
		}
		saved := slices.Clone(s.Rows())
		savedStep := s.StepCount
		if err := s.Run(10); err != nil {
			t.Error(err)
			return
		}
		after20 := slices.Clone(s.Rows())
		if err := s.Restore(savedStep, saved); err != nil {
			t.Error(err)
			return
		}
		if s.StepCount != 10 {
			t.Errorf("StepCount after restore = %d", s.StepCount)
		}
		if err := s.Run(10); err != nil {
			t.Error(err)
			return
		}
		recomputed := s.Rows()
		for i := range after20 {
			if after20[i] != recomputed[i] {
				t.Errorf("restore+recompute differs at %d: %g vs %g", i, after20[i], recomputed[i])
				return
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointFromRowsRoundTrip writes each rank's checkpoint straight from
// Rows, as Checkpoint/Restart's commit does, steps on, and restores the
// checkpoint: the rows come back bit for bit, and the recompute reproduces
// the steps taken after the write.
func TestCheckpointFromRowsRoundTrip(t *testing.T) {
	store, err := checkpoint.Open(checkpoint.Options{Backend: checkpoint.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	const at, more = 7, 5
	_, err = mpi.Run(mpi.Options{NProcs: 4, Entry: func(proc *mpi.Proc) {
		c := proc.World()
		s, err := NewParallelSolver(c, testProblem(), grid.Level{I: 4, J: 4}, 1e-3)
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Release()
		if err := s.Run(at); err != nil {
			t.Error(err)
			return
		}
		written := slices.Clone(s.Rows())
		if err := store.Write(proc, 0, c.Rank(), s.StepCount, s.Rows()); err != nil {
			t.Error(err)
			return
		}
		if err := s.Run(more); err != nil {
			t.Error(err)
			return
		}
		later := slices.Clone(s.Rows())
		data, err := store.ReadAt(proc, 0, c.Rank(), at)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Restore(at, data); err != nil {
			t.Error(err)
			return
		}
		sameBits(t, "restored checkpoint", s.Rows(), written)
		if err := s.Run(more); err != nil {
			t.Error(err)
			return
		}
		sameBits(t, "recompute from the checkpoint", s.Rows(), later)
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRestoreValidatesLength(t *testing.T) {
	_, err := mpi.Run(mpi.Options{NProcs: 1, Entry: func(proc *mpi.Proc) {
		s, _ := NewParallelSolver(proc.World(), testProblem(), grid.Level{I: 3, J: 3}, 1e-3)
		if err := s.Restore(0, []float64{1, 2, 3}); err == nil {
			t.Error("short restore accepted")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSetFromGrid checks recovering a solver's state from a full grid (the
// replication/resampling recovery path) reproduces the same rows as direct
// solving.
func TestSetFromGrid(t *testing.T) {
	lv := grid.Level{I: 4, J: 4}
	p := testProblem()
	dt := 1e-3
	ref := Solve(lv, p, dt, 25)
	_, err := mpi.Run(mpi.Options{NProcs: 4, Entry: func(proc *mpi.Proc) {
		s, err := NewParallelSolver(proc.World(), p, lv, dt)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.SetFromGrid(ref, 25); err != nil {
			t.Error(err)
			return
		}
		if s.StepCount != 25 {
			t.Errorf("StepCount = %d", s.StepCount)
		}
		g, err := s.Gather(0)
		if err != nil {
			t.Error(err)
			return
		}
		if proc.World().Rank() == 0 {
			if d, _ := grid.L1Diff(ref, g); d != 0 {
				t.Errorf("SetFromGrid rows differ by %g", d)
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChargeHook verifies that ChargeScale charges each step's owned cells
// as virtual compute on the solver's process, at the given scale, and that
// the zero value charges nothing.
func TestChargeHook(t *testing.T) {
	const scale = 3
	for _, charge := range []float64{0, scale} {
		_, err := mpi.Run(mpi.Options{NProcs: 1, Entry: func(proc *mpi.Proc) {
			s, err := NewParallelSolver(proc.World(), testProblem(), grid.Level{I: 3, J: 4}, 1e-3)
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Release()
			s.ChargeScale = charge
			t0 := proc.Now()
			if err := s.Run(3); err != nil {
				t.Error(err)
				return
			}
			cells := 3 * 16 * 8 // 3 steps x 16 rows x 8 cols on the only rank
			want := float64(cells) * vtime.Generic().CellCost * charge
			if got := proc.Now() - t0; math.Abs(got-want) > 1e-12*want {
				t.Errorf("scale %v: charged %g s, want %g s", charge, got, want)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestHaloExchangeDetectsFailure: a dead group member surfaces as
// MPI_ERR_PROC_FAILED from Step at its neighbours.
func TestHaloExchangeDetectsFailure(t *testing.T) {
	var sawError atomic.Bool
	_, err := mpi.Run(mpi.Options{NProcs: 4, Entry: func(proc *mpi.Proc) {
		c := proc.World()
		s, err := NewParallelSolver(c, testProblem(), grid.Level{I: 4, J: 4}, 1e-3)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 2 {
			proc.Kill()
		}
		for i := 0; i < 50; i++ {
			if err := s.Step(); err != nil {
				if c.Rank() == 1 || c.Rank() == 3 {
					sawError.Store(true) // neighbours of the dead rank 2
				}
				return
			}
		}
		t.Errorf("rank %d finished all steps despite dead neighbour", c.Rank())
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !sawError.Load() {
		t.Fatal("no neighbour observed the failure")
	}
}

func TestGatherAssemblesWholeGrid(t *testing.T) {
	g := runSolverWorld(t, 3, grid.Level{I: 3, J: 4}, 0)
	// Zero steps: the gathered grid equals the initial condition up to the
	// periodic duplicates, which are copies of x=0 rather than evaluations
	// at x=1 (sin(2π) is only zero to rounding).
	if e := g.L1Error(testProblem().U0); e > 1e-15 {
		t.Fatalf("gathered initial grid error %g", e)
	}
	if g.At(0, 3) != g.At(g.Nx-1, 3) {
		t.Fatal("gathered grid lost periodic duplicate column")
	}
}

func TestCombinedConvergenceUnderSharedDt(t *testing.T) {
	// A level-4 combination's component grids all run the same dt; check
	// that the worst-conditioned grid stays stable over a long run.
	p := testProblem()
	n := 7
	h := math.Pow(2, -float64(n))
	dt := StableDt(h, h, p.Ax, p.Ay, 0.9)
	g := Solve(grid.Level{I: 3, J: 7}, p, dt, 500)
	for _, v := range g.V {
		if math.IsNaN(v) || math.Abs(v) > 5 {
			t.Fatalf("instability on extreme anisotropic grid: %g", v)
		}
	}
}

// TestHaloRingWakesOnlyForItsMessage runs a failure-free halo ring and reads
// the runtime's per-rank wake-up accounting: a rank parked on one neighbour's
// row must not be woken by the other neighbour's, which in a ring arrives
// first about half the time, so no park may end with nothing to receive.
func TestHaloRingWakesOnlyForItsMessage(t *testing.T) {
	const ranks, steps = 8, 256
	lv := grid.Level{I: 7, J: 6}
	prob := testProblem()
	var in mpi.Introspection
	var parks, empty, direct uint64
	_, err := mpi.Run(mpi.Options{NProcs: ranks, Introspect: &in, Entry: func(proc *mpi.Proc) {
		c := proc.World()
		s, err := NewParallelSolver(c, prob, lv, 0.25/128.0)
		if err != nil {
			t.Errorf("NewParallelSolver: %v", err)
			return
		}
		defer s.Release()
		if err := s.Run(steps); err != nil {
			t.Errorf("Run: %v", err)
		}
		// Every rank is through its last exchange once the barrier completes.
		if err := c.Barrier(); err != nil {
			t.Errorf("Barrier: %v", err)
		}
		if c.Rank() == 0 {
			for _, r := range in.Snapshots()[0].Ranks {
				parks += r.Parks
				empty += r.EmptyWakes
				direct += r.DirectRecvs
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d receives: %d parks, %d woke to nothing, %d delivered directly", 2*ranks*steps, parks, empty, direct)
	if parks == 0 {
		t.Error("no receive parked: the ring did not exercise the wake path")
	}
	if empty != 0 {
		t.Errorf("%d of %d parks woke to nothing", empty, parks)
	}
}
