package pde

import (
	"fmt"

	"ftsg/internal/grid"
	"ftsg/internal/mpi"
)

// Halo-exchange tags used on the solver's dedicated communicator.
const (
	tagHaloUp   = 101 // carries a rank's top row to the rank above
	tagHaloDown = 102 // carries a rank's bottom row to the rank below
)

// ParallelSolver advances one sub-grid of the combination technique on a
// process group, decomposing the grid by rows with one halo row on each
// side, exactly one Lax–Wendroff stencil deep. It is the application's only
// sub-grid solver: every group builds one after its split and rebuilds it on
// the repaired communicator after every repair. All members of the
// communicator construct it with identical arguments.
type ParallelSolver struct {
	Comm *mpi.Comm
	Prob *Problem
	Lv   grid.Level
	Dt   float64

	// ChargeScale, when positive, charges each step's local cell updates as
	// virtual compute on the communicator's process, at this scale
	// (mpi.Proc.ComputeCells).
	ChargeScale float64

	// StepCount is the number of steps taken so far.
	StepCount int

	nx, ny   int // periodic unknowns per dimension
	r0, r1   int // owned global rows [r0, r1)
	local    []float64
	scratch  []float64
	rowWidth int
}

// rowsFor computes the contiguous block of rows owned by rank of nprocs.
func rowsFor(rank, nprocs, ny int) (int, int) {
	r0 := rank * ny / nprocs
	r1 := (rank + 1) * ny / nprocs
	return r0, r1
}

// NewParallelSolver initialises the local block from the problem's initial
// condition. The communicator must have at most 2^lv.J members (at least
// one row each).
func NewParallelSolver(c *mpi.Comm, prob *Problem, lv grid.Level, dt float64) (*ParallelSolver, error) {
	s := new(ParallelSolver)
	if err := s.Init(c, prob, lv, dt); err != nil {
		return nil, err
	}
	return s, nil
}

// Init is NewParallelSolver in place: it makes s a fresh solver, as if
// built by NewParallelSolver, so an application can hold its solver by
// value and rebuild it after every repair. Whatever s held before is
// overwritten, not released: Release the old solver first.
func (s *ParallelSolver) Init(c *mpi.Comm, prob *Problem, lv grid.Level, dt float64) error {
	ny := 1 << lv.J
	if c.Size() > ny {
		return fmt.Errorf("pde: %d processes for %d rows of %v", c.Size(), ny, lv)
	}
	if err := CheckStable(lv, prob, dt); err != nil {
		return err
	}
	*s = ParallelSolver{
		Comm: c,
		Prob: prob,
		Lv:   lv,
		Dt:   dt,
		nx:   1 << lv.I,
		ny:   ny,
	}
	s.r0, s.r1 = rowsFor(c.Rank(), c.Size(), ny)
	s.rowWidth = s.nx
	nloc := s.r1 - s.r0
	// Pooled storage with unspecified contents: the owned rows are set
	// here, both halo rows by every exchange before the stencil reads them,
	// and scratch is written before it is read.
	s.local = mpi.AcquireBuf[float64]((nloc + 2) * s.nx)
	s.scratch = mpi.AcquireBuf[float64]((nloc + 2) * s.nx)
	prob.fillRows(s.local[s.nx:], s.nx, s.r0, nloc, 1.0/float64(s.nx), 1.0/float64(s.ny))
	return nil
}

// Release returns the solver's storage to the transport's buffer pool. The
// solver must not be used afterwards.
func (s *ParallelSolver) Release() {
	mpi.ReleaseBuf(s.local)
	mpi.ReleaseBuf(s.scratch)
	s.local, s.scratch = nil, nil
}

// exchangeHalos refreshes the two halo rows from the neighbouring ranks
// (periodic in rank space, matching the periodic domain).
func (s *ParallelSolver) exchangeHalos() error {
	p := s.Comm.Size()
	nloc := s.r1 - s.r0
	top := s.local[nloc*s.nx : (nloc+1)*s.nx]
	bottom := s.local[s.nx : 2*s.nx]
	if p == 1 {
		copy(s.local[0:s.nx], top)
		copy(s.local[(nloc+1)*s.nx:], bottom)
		return nil
	}
	up := (s.Comm.Rank() + 1) % p
	down := (s.Comm.Rank() - 1 + p) % p
	if err := mpi.Send(s.Comm, up, tagHaloUp, top); err != nil {
		return err
	}
	if err := mpi.Send(s.Comm, down, tagHaloDown, bottom); err != nil {
		return err
	}
	if _, err := mpi.RecvInto(s.Comm, down, tagHaloUp, s.local[0:s.nx]); err != nil {
		return err
	}
	_, err := mpi.RecvInto(s.Comm, up, tagHaloDown, s.local[(nloc+1)*s.nx:])
	return err
}

// Step advances the local block one timestep (halo exchange followed by the
// Lax–Wendroff update). It returns MPI errors from the halo exchange, which
// is how a process group first observes a peer failure mid-solve.
func (s *ParallelSolver) Step() error {
	if err := s.exchangeHalos(); err != nil {
		return err
	}
	s.update()
	return nil
}

// update applies the Lax–Wendroff stencil to the owned rows (halos must be
// fresh) and advances the step counter — the purely local half of Step,
// shared with the event path's FiberStep. The new rows are written into
// scratch and the two buffers then trade places: the solver owns both
// exclusively, every accessor reads owned rows only, and the two halo rows
// of the buffer that becomes local — stale by two steps — are rewritten by
// exchangeHalos before the stencil reads them again.
func (s *ParallelSolver) update() {
	nloc := s.r1 - s.r0
	c := newLWCoef(s.Prob.Ax*s.Dt*float64(s.nx), s.Prob.Ay*s.Dt*float64(s.ny))
	v, w, nx := s.local, s.scratch, s.nx
	for k := 1; k <= nloc; k++ {
		c.periodicRow(w[k*nx:(k+1)*nx], v[(k-1)*nx:k*nx], v[k*nx:(k+1)*nx], v[(k+1)*nx:(k+2)*nx])
	}
	s.local, s.scratch = w, v
	s.StepCount++
	if s.ChargeScale > 0 {
		s.Comm.Proc().ComputeCells(nloc*nx, s.ChargeScale)
	}
}

// Run advances n steps, stopping at the first error.
func (s *ParallelSolver) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Gather assembles the full sub-grid (with periodic duplicate row/column)
// at root; other ranks receive nil.
func (s *ParallelSolver) Gather(root int) (*grid.Grid, error) {
	nloc := s.r1 - s.r0
	mine := s.local[s.nx : (nloc+1)*s.nx]
	pieces, err := mpi.Gather(s.Comm, root, mine)
	if err != nil {
		return nil, err
	}
	if s.Comm.Rank() != root {
		return nil, nil
	}
	return s.assemble(pieces)
}

// Rows returns the owned rows (no halos) in place, for checkpointing and
// for carrying the state across a repair. The slice is the solver's own
// storage: it is valid until the next Step (or FiberStep), Restore,
// SetFromGrid or Release, and the caller must not write to it.
func (s *ParallelSolver) Rows() []float64 {
	end := (s.r1 - s.r0 + 1) * s.nx
	return s.local[s.nx:end:end]
}

// Restore overwrites the owned rows and step counter from a checkpoint.
func (s *ParallelSolver) Restore(step int, rows []float64) error {
	nloc := s.r1 - s.r0
	if len(rows) != nloc*s.nx {
		return fmt.Errorf("pde: Restore: %d values for %d owned cells", len(rows), nloc*s.nx)
	}
	copy(s.local[s.nx:(nloc+1)*s.nx], rows)
	s.StepCount = step
	return nil
}

// SetFromGrid overwrites the owned rows by sampling the given full grid of
// the same level — used when recovering a lost sub-grid from a duplicate, a
// finer grid's restriction, or an alternate-combination approximation.
func (s *ParallelSolver) SetFromGrid(g *grid.Grid, step int) error {
	if g.Lv != s.Lv {
		return fmt.Errorf("pde: SetFromGrid: level %v != %v", g.Lv, s.Lv)
	}
	nloc := s.r1 - s.r0
	for k := 0; k < nloc; k++ {
		gy := s.r0 + k
		copy(s.local[(k+1)*s.nx:(k+2)*s.nx], g.V[gy*g.Nx:gy*g.Nx+s.nx])
	}
	s.StepCount = step
	return nil
}
