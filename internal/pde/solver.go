package pde

import (
	"ftsg/internal/grid"
	"ftsg/internal/mpi"
)

// Solver abstracts the domain-decomposed sub-grid solvers: the row-banded
// ParallelSolver and the block-based ParallelSolver2D are interchangeable
// behind it, so applications can pick a decomposition per configuration.
type Solver interface {
	// Step advances one timestep (halo exchange + stencil update).
	Step() error
	// Run advances n steps, stopping at the first error.
	Run(n int) error
	// Gather assembles the full sub-grid at the group root. The grid is
	// pooled: the root SHOULD Free it once it is no longer referenced.
	Gather(root int) (*grid.Grid, error)
	// State returns a copy of the owned cells for checkpointing.
	State() []float64
	// Restore overwrites the owned cells and step counter.
	Restore(step int, vals []float64) error
	// SetFromGrid overwrites the owned cells from a full sub-grid.
	SetFromGrid(g *grid.Grid, step int) error
	// Steps returns the number of steps taken so far.
	Steps() int
	// SetCharge installs the per-step virtual-compute hook.
	SetCharge(f func(cells int))
	// GroupComm returns the communicator the solver's halo exchange and
	// gather actually run on (the 2D solver communicates on a duplicate of
	// the communicator it was built over — revoking the original would not
	// wake its blocked peers).
	GroupComm() *mpi.Comm
	// Release returns the solver's storage to the transport's buffer pool
	// when its rank is done with it; the solver is unusable afterwards.
	Release()
}

// StateAppender is implemented by solvers that can serialise their owned
// cells into a caller-provided buffer. AppendState(dst[:0]) with a buffer
// kept across calls makes periodic checkpointing allocation-free, where
// State must allocate a fresh copy each time.
type StateAppender interface {
	AppendState(dst []float64) []float64
}

// AppendState appends s's owned cells to dst and returns the extended
// buffer, using the solver's allocation-free path when available.
func AppendState(s Solver, dst []float64) []float64 {
	if a, ok := s.(StateAppender); ok {
		return a.AppendState(dst)
	}
	return append(dst, s.State()...)
}

// Interface checks.
var (
	_ Solver        = (*ParallelSolver)(nil)
	_ Solver        = (*ParallelSolver2D)(nil)
	_ StateAppender = (*ParallelSolver)(nil)
	_ StateAppender = (*ParallelSolver2D)(nil)
)
