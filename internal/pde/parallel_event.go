package pde

import (
	"fmt"

	"ftsg/internal/grid"
	"ftsg/internal/mpi"
)

// The parallel solver on the event-driven MPI path: the halo exchange and
// gather become parked continuations (mpi.FiberRecv / mpi.FiberGather) while
// the stencil update, state access and checkpoint plumbing stay the shared
// local code. The fiber halo exchange mirrors the blocking send/recv schedule
// — same tags, same send order, same receive order — so virtual times and
// results are byte-identical to Step/Run/Gather.

// FiberStep is Step for fiber code: CPS halo exchange, then the shared local
// stencil update.
func (s *ParallelSolver) FiberStep(f *mpi.Fiber, k func(error)) {
	s.fiberExchangeHalos(f, func(err error) {
		if err != nil {
			k(err)
			return
		}
		s.update()
		k(nil)
	})
}

// fiberExchangeHalos is exchangeHalos in CPS: the same eager sends in the
// same order, then the two receives as parked continuations.
func (s *ParallelSolver) fiberExchangeHalos(f *mpi.Fiber, k func(error)) {
	n := s.Comm.Size()
	nloc := s.r1 - s.r0
	top := s.local[nloc*s.nx : (nloc+1)*s.nx]
	bottom := s.local[s.nx : 2*s.nx]
	if n == 1 {
		copy(s.local[0:s.nx], top)
		copy(s.local[(nloc+1)*s.nx:], bottom)
		k(nil)
		return
	}
	up := (s.Comm.Rank() + 1) % n
	down := (s.Comm.Rank() - 1 + n) % n
	if err := mpi.Send(s.Comm, up, tagHaloUp, top); err != nil {
		k(err)
		return
	}
	if err := mpi.Send(s.Comm, down, tagHaloDown, bottom); err != nil {
		k(err)
		return
	}
	mpi.FiberRecv[float64](f, s.Comm, down, tagHaloUp, func(lower []float64, _ mpi.Status, err error) {
		if err != nil {
			k(err)
			return
		}
		copy(s.local[0:s.nx], lower)
		mpi.ReleaseBuf(lower)
		mpi.FiberRecv[float64](f, s.Comm, up, tagHaloDown, func(upper []float64, _ mpi.Status, err error) {
			if err != nil {
				k(err)
				return
			}
			copy(s.local[(nloc+1)*s.nx:], upper)
			mpi.ReleaseBuf(upper)
			k(nil)
		})
	})
}

// FiberRun is Run for fiber code. A single-member group never communicates,
// so its steps run through the plain blocking loop (identical code, no
// continuation per step); multi-member groups chain FiberStep.
func (s *ParallelSolver) FiberRun(f *mpi.Fiber, n int, k func(error)) {
	if s.Comm.Size() == 1 {
		k(s.Run(n))
		return
	}
	var step func(remaining int)
	step = func(remaining int) {
		if remaining <= 0 {
			k(nil)
			return
		}
		s.FiberStep(f, func(err error) {
			if err != nil {
				k(err)
				return
			}
			step(remaining - 1)
		})
	}
	step(n)
}

// FiberGather is Gather for fiber code: the same mpi gather (CPS twin) and
// the identical root-side assembly.
func (s *ParallelSolver) FiberGather(f *mpi.Fiber, root int, k func(*grid.Grid, error)) {
	nloc := s.r1 - s.r0
	mine := s.local[s.nx : (nloc+1)*s.nx]
	mpi.FiberGather(f, s.Comm, root, mine, func(pieces [][]float64, err error) {
		if err != nil {
			k(nil, err)
			return
		}
		if s.Comm.Rank() != root {
			k(nil, nil)
			return
		}
		k(s.assemble(pieces))
	})
}

// assemble builds the full sub-grid from the gathered per-rank pieces —
// Gather's root-side body, shared by both paths.
func (s *ParallelSolver) assemble(pieces [][]float64) (*grid.Grid, error) {
	g := grid.NewPooled(s.Lv)
	row := 0
	for r, piece := range pieces {
		wantRows := func() int { a, b := rowsFor(r, s.Comm.Size(), s.ny); return b - a }()
		if len(piece) != wantRows*s.nx {
			return nil, fmt.Errorf("pde: Gather: rank %d sent %d values, want %d", r, len(piece), wantRows*s.nx)
		}
		for k := 0; k < wantRows; k++ {
			copy(g.V[row*g.Nx:row*g.Nx+s.nx], piece[k*s.nx:(k+1)*s.nx])
			g.V[row*g.Nx+s.nx] = piece[k*s.nx] // duplicate column
			row++
		}
		mpi.ReleaseBuf(piece) // Gather hands ownership of every piece to root
	}
	// Duplicate row.
	copy(g.V[s.ny*g.Nx:], g.V[:g.Nx])
	return g, nil
}
