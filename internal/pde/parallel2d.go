package pde

import (
	"fmt"

	"ftsg/internal/grid"
	"ftsg/internal/mpi"
)

// Tags for the 2D halo exchange.
const (
	tagHaloEast  = 111
	tagHaloWest  = 112
	tagHaloNorth = 113
	tagHaloSouth = 114
)

// ParallelSolver2D advances one sub-grid on a 2D Cartesian process grid:
// each process owns a rectangular block with a one-cell halo on all four
// sides. The exchange runs in two phases — east/west columns first, then
// north/south rows including the freshly received corner cells — so the
// Lax–Wendroff cross-derivative term sees correct diagonal neighbours.
type ParallelSolver2D struct {
	Cart *mpi.Cart
	Prob *Problem
	Lv   grid.Level
	Dt   float64

	// Charge, when non-nil, is called once per step with the local cell
	// count (see ParallelSolver.Charge).
	Charge func(cells int)

	// StepCount is the number of steps taken so far.
	StepCount int

	nx, ny          int // global periodic unknowns
	cx0, cx1        int // owned global columns [cx0, cx1)
	cy0, cy1        int // owned global rows [cy0, cy1)
	lw              int // local row width including halos = (cx1-cx0)+2
	local, scratch  []float64
	colBuf, colBuf2 []float64 // column scratch: packs a send, then takes a receive
}

// NewParallelSolver2D initialises the local block from the initial
// condition. The communicator is organised as a py x px Cartesian grid
// (px*py must equal the communicator size); both dimensions are periodic.
func NewParallelSolver2D(c *mpi.Comm, prob *Problem, lv grid.Level, dt float64, px, py int) (*ParallelSolver2D, error) {
	nx, ny := 1<<lv.I, 1<<lv.J
	if px <= 0 || py <= 0 || px*py != c.Size() {
		return nil, fmt.Errorf("pde: 2D decomposition %dx%d does not match %d processes", px, py, c.Size())
	}
	if px > nx || py > ny {
		return nil, fmt.Errorf("pde: 2D decomposition %dx%d exceeds grid %dx%d", px, py, nx, ny)
	}
	if err := CheckStable(lv, prob, dt); err != nil {
		return nil, err
	}
	cart, err := mpi.NewCart(c, []int{py, px}, []bool{true, true})
	if err != nil {
		return nil, err
	}
	s := &ParallelSolver2D{Cart: cart, Prob: prob, Lv: lv, Dt: dt, nx: nx, ny: ny}
	cyIdx, cxIdx := cart.Coords[0], cart.Coords[1]
	s.cx0, s.cx1 = cxIdx*nx/px, (cxIdx+1)*nx/px
	s.cy0, s.cy1 = cyIdx*ny/py, (cyIdx+1)*ny/py
	s.lw = (s.cx1 - s.cx0) + 2
	rows := (s.cy1 - s.cy0) + 2
	// Pooled storage with unspecified contents: the owned block is set here,
	// the halo ring (corners included) by every exchange before the stencil
	// reads it, and scratch and both column buffers are written before they
	// are read.
	s.local = mpi.AcquireBuf[float64](rows * s.lw)
	s.scratch = mpi.AcquireBuf[float64](rows * s.lw)
	s.colBuf = mpi.AcquireBuf[float64](s.cy1 - s.cy0)
	s.colBuf2 = mpi.AcquireBuf[float64](s.cy1 - s.cy0)
	prob.fillBlock(s.local[s.lw+1:], s.lw, s.cx0, s.cx1-s.cx0, s.cy0, s.cy1-s.cy0, 1.0/float64(nx), 1.0/float64(ny))
	return s, nil
}

// Release returns the solver's storage to the transport's buffer pool (Solver
// interface). The solver must not be used afterwards.
func (s *ParallelSolver2D) Release() {
	mpi.ReleaseBuf(s.local)
	mpi.ReleaseBuf(s.scratch)
	mpi.ReleaseBuf(s.colBuf)
	mpi.ReleaseBuf(s.colBuf2)
	s.local, s.scratch, s.colBuf, s.colBuf2 = nil, nil, nil, nil
}

// OwnedBlock returns the owned global column and row ranges.
func (s *ParallelSolver2D) OwnedBlock() (cx0, cx1, cy0, cy1 int) {
	return s.cx0, s.cx1, s.cy0, s.cy1
}

// at indexes the local block: lx, ly in [0, nloc+2) including halos.
func (s *ParallelSolver2D) at(lx, ly int) int { return ly*s.lw + lx }

// exchangeHalos refreshes all four halo sides plus corners.
func (s *ParallelSolver2D) exchangeHalos() error {
	nlx, nly := s.cx1-s.cx0, s.cy1-s.cy0
	c := s.Cart.Comm

	// Phase 1: east/west columns of the owned block.
	_, east := s.Cart.Shift(1, 1)
	_, west := s.Cart.Shift(1, -1)
	if east == c.Rank() && west == c.Rank() {
		for ly := 1; ly <= nly; ly++ {
			s.local[s.at(0, ly)] = s.local[s.at(nlx, ly)]
			s.local[s.at(nlx+1, ly)] = s.local[s.at(1, ly)]
		}
	} else {
		for ly := 1; ly <= nly; ly++ {
			s.colBuf[ly-1] = s.local[s.at(nlx, ly)]
		}
		if err := mpi.Send(c, east, tagHaloEast, s.colBuf); err != nil {
			return err
		}
		for ly := 1; ly <= nly; ly++ {
			s.colBuf[ly-1] = s.local[s.at(1, ly)]
		}
		if err := mpi.Send(c, west, tagHaloWest, s.colBuf); err != nil {
			return err
		}
		if _, err := mpi.RecvInto(c, west, tagHaloEast, s.colBuf); err != nil {
			return err
		}
		if _, err := mpi.RecvInto(c, east, tagHaloWest, s.colBuf2); err != nil {
			return err
		}
		for ly := 1; ly <= nly; ly++ {
			s.local[s.at(0, ly)] = s.colBuf[ly-1]
			s.local[s.at(nlx+1, ly)] = s.colBuf2[ly-1]
		}
	}

	// Phase 2: north/south rows INCLUDING the east/west halo columns, so
	// the four corner cells arrive via the neighbours' phase-1 results.
	_, north := s.Cart.Shift(0, 1)
	_, south := s.Cart.Shift(0, -1)
	if north == c.Rank() && south == c.Rank() {
		copy(s.local[s.at(0, 0):s.at(0, 0)+s.lw], s.local[s.at(0, nly):s.at(0, nly)+s.lw])
		copy(s.local[s.at(0, nly+1):s.at(0, nly+1)+s.lw], s.local[s.at(0, 1):s.at(0, 1)+s.lw])
		return nil
	}
	if err := mpi.Send(c, north, tagHaloNorth, s.local[s.at(0, nly):s.at(0, nly)+s.lw]); err != nil {
		return err
	}
	if err := mpi.Send(c, south, tagHaloSouth, s.local[s.at(0, 1):s.at(0, 1)+s.lw]); err != nil {
		return err
	}
	if _, err := mpi.RecvInto(c, south, tagHaloNorth, s.local[s.at(0, 0):s.at(0, 0)+s.lw]); err != nil {
		return err
	}
	_, err := mpi.RecvInto(c, north, tagHaloSouth, s.local[s.at(0, nly+1):s.at(0, nly+1)+s.lw])
	return err
}

// Step advances the local block one Lax–Wendroff timestep. Every local row
// carries its own west and east halo cells, so the owned cells are exactly
// the row kernel's interior and no periodic edge remains. As in
// ParallelSolver.update the new block is written into scratch and the two
// buffers trade places; the stale halo ring of the buffer that becomes local
// is rewritten, corners included, by the next exchangeHalos.
func (s *ParallelSolver2D) Step() error {
	if err := s.exchangeHalos(); err != nil {
		return err
	}
	nlx, nly := s.cx1-s.cx0, s.cy1-s.cy0
	c := newLWCoef(s.Prob.Ax*s.Dt*float64(s.nx), s.Prob.Ay*s.Dt*float64(s.ny))
	v, w, lw := s.local, s.scratch, s.lw
	for ly := 1; ly <= nly; ly++ {
		c.interior(w[ly*lw:(ly+1)*lw], v[(ly-1)*lw:ly*lw], v[ly*lw:(ly+1)*lw], v[(ly+1)*lw:(ly+2)*lw])
	}
	s.local, s.scratch = w, v
	s.StepCount++
	if s.Charge != nil {
		s.Charge(nlx * nly)
	}
	return nil
}

// Run advances n steps, stopping at the first error.
func (s *ParallelSolver2D) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Gather assembles the full sub-grid (with periodic duplicates) at root.
func (s *ParallelSolver2D) Gather(root int) (*grid.Grid, error) {
	c := s.Cart.Comm
	nlx, nly := s.cx1-s.cx0, s.cy1-s.cy0
	mine := mpi.AcquireBuf[float64](nlx * nly)
	for ly := 1; ly <= nly; ly++ {
		copy(mine[(ly-1)*nlx:ly*nlx], s.local[s.at(1, ly):s.at(nlx+1, ly)])
	}
	pieces, err := mpi.Gather(c, root, mine)
	mpi.ReleaseBuf(mine) // Gather copies eagerly; root's own piece is a fresh copy
	if err != nil {
		return nil, err
	}
	if c.Rank() != root {
		return nil, nil
	}
	g := grid.NewPooled(s.Lv)
	py, px := s.Cart.Dims[0], s.Cart.Dims[1]
	for r, piece := range pieces {
		coords := s.Cart.CoordsOf(r)
		ry0, ry1 := coords[0]*s.ny/py, (coords[0]+1)*s.ny/py
		rx0, rx1 := coords[1]*s.nx/px, (coords[1]+1)*s.nx/px
		if len(piece) != (ry1-ry0)*(rx1-rx0) {
			return nil, fmt.Errorf("pde: Gather2D: rank %d sent %d values", r, len(piece))
		}
		for gy := ry0; gy < ry1; gy++ {
			copy(g.V[gy*g.Nx+rx0:gy*g.Nx+rx1], piece[(gy-ry0)*(rx1-rx0):(gy-ry0+1)*(rx1-rx0)])
		}
		mpi.ReleaseBuf(piece) // Gather hands ownership of every piece to root
	}
	// Periodic duplicates.
	for gy := 0; gy < s.ny; gy++ {
		g.V[gy*g.Nx+s.nx] = g.V[gy*g.Nx]
	}
	copy(g.V[s.ny*g.Nx:], g.V[:g.Nx])
	return g, nil
}

// State returns a copy of the owned block (no halos), row-major, for
// checkpointing and replication-based recovery.
func (s *ParallelSolver2D) State() []float64 {
	return s.AppendState(nil)
}

// AppendState appends the owned block to dst (StateAppender interface).
func (s *ParallelSolver2D) AppendState(dst []float64) []float64 {
	nlx, nly := s.cx1-s.cx0, s.cy1-s.cy0
	for ly := 1; ly <= nly; ly++ {
		dst = append(dst, s.local[s.at(1, ly):s.at(nlx+1, ly)]...)
	}
	return dst
}

// Restore overwrites the owned block and step counter from a checkpoint.
func (s *ParallelSolver2D) Restore(step int, vals []float64) error {
	nlx, nly := s.cx1-s.cx0, s.cy1-s.cy0
	if len(vals) != nlx*nly {
		return fmt.Errorf("pde: Restore2D: %d values for %d owned cells", len(vals), nlx*nly)
	}
	for ly := 1; ly <= nly; ly++ {
		copy(s.local[s.at(1, ly):s.at(nlx+1, ly)], vals[(ly-1)*nlx:ly*nlx])
	}
	s.StepCount = step
	return nil
}

// SetFromGrid overwrites the owned block from a full grid of the same
// level.
func (s *ParallelSolver2D) SetFromGrid(g *grid.Grid, step int) error {
	if g.Lv != s.Lv {
		return fmt.Errorf("pde: SetFromGrid2D: level %v != %v", g.Lv, s.Lv)
	}
	nlx := s.cx1 - s.cx0
	for gy := s.cy0; gy < s.cy1; gy++ {
		ly := gy - s.cy0 + 1
		copy(s.local[s.at(1, ly):s.at(nlx+1, ly)], g.V[gy*g.Nx+s.cx0:gy*g.Nx+s.cx1])
	}
	s.StepCount = step
	return nil
}

// Steps returns the number of steps taken (Solver interface).
func (s *ParallelSolver2D) Steps() int { return s.StepCount }

// SetCharge installs the virtual-compute hook (Solver interface).
func (s *ParallelSolver2D) SetCharge(f func(cells int)) { s.Charge = f }

// GroupComm returns the communicator the halo exchange runs on — the
// Cartesian duplicate, not the communicator the solver was built over
// (Solver interface).
func (s *ParallelSolver2D) GroupComm() *mpi.Comm { return s.Cart.Comm }
