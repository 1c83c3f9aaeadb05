// Package grid provides the 2D tensor-product grids of the sparse grid
// combination technique: anisotropic grids of (2^i+1) x (2^j+1) points on
// the unit square, level-vector algebra, injection/restriction resampling
// (the paper's Resampling and Copying recovery), bilinear accumulation (used
// to combine sub-grid solutions onto a common grid), and error norms.
package grid

import (
	"fmt"
	"math"
)

// Level is a 2D level vector: the sub-grid u_{i,j} of the paper has
// (2^i + 1) x (2^j + 1) points.
type Level struct {
	I, J int
}

// Sum returns i + j, the quantity the combination formula constrains.
func (l Level) Sum() int { return l.I + l.J }

// LE reports componentwise l <= m, the partial order of the grid lattice.
func (l Level) LE(m Level) bool { return l.I <= m.I && l.J <= m.J }

// Points returns the number of grid points of the level's grid.
func (l Level) Points() int { return ((1 << l.I) + 1) * ((1 << l.J) + 1) }

// Cells returns the number of interior cells (periodic unknowns).
func (l Level) Cells() int { return (1 << l.I) * (1 << l.J) }

func (l Level) String() string { return fmt.Sprintf("(%d,%d)", l.I, l.J) }

// Grid is a dense 2D grid of values on the unit square [0,1]^2 with
// (2^Li + 1) x (2^Lj + 1) points. Point (ix, iy) sits at
// (ix * 2^-Li, iy * 2^-Lj); row-major storage. For periodic problems the
// last row and column duplicate the first.
type Grid struct {
	Lv     Level
	Nx, Ny int
	V      []float64
}

// New allocates a zeroed grid of the given level. Levels must be
// non-negative and small enough to allocate.
func New(lv Level) *Grid {
	if !validLevel(lv) {
		panic(fmt.Sprintf("grid: invalid level %v", lv))
	}
	nx, ny := (1<<lv.I)+1, (1<<lv.J)+1
	return &Grid{Lv: lv, Nx: nx, Ny: ny, V: make([]float64, nx*ny)}
}

// FromValues wraps an existing row-major value slice as a grid of the given
// level without copying; len(v) must equal the level's point count.
func FromValues(lv Level, v []float64) (*Grid, error) {
	nx, ny := (1<<lv.I)+1, (1<<lv.J)+1
	if len(v) != nx*ny {
		return nil, fmt.Errorf("grid: FromValues: %d values for level %v (%d points)", len(v), lv, nx*ny)
	}
	return &Grid{Lv: lv, Nx: nx, Ny: ny, V: v}, nil
}

// Hx returns the grid spacing in x.
func (g *Grid) Hx() float64 { return 1.0 / float64(g.Nx-1) }

// Hy returns the grid spacing in y.
func (g *Grid) Hy() float64 { return 1.0 / float64(g.Ny-1) }

// At returns the value at point (ix, iy).
func (g *Grid) At(ix, iy int) float64 { return g.V[iy*g.Nx+ix] }

// Clone returns a deep copy.
func (g *Grid) Clone() *Grid {
	out := &Grid{Lv: g.Lv, Nx: g.Nx, Ny: g.Ny, V: make([]float64, len(g.V))}
	copy(out.V, g.V)
	return out
}

// Fill evaluates f at every grid point.
func (g *Grid) Fill(f func(x, y float64) float64) {
	hx, hy := g.Hx(), g.Hy()
	for iy := 0; iy < g.Ny; iy++ {
		y := float64(iy) * hy
		row := iy * g.Nx
		for ix := 0; ix < g.Nx; ix++ {
			g.V[row+ix] = f(float64(ix)*hx, y)
		}
	}
}

// Zero clears the grid.
func (g *Grid) Zero() {
	for i := range g.V {
		g.V[i] = 0
	}
}

// RestrictInto samples a finer (or equal) grid down to coarse's level by
// injection: the coarse points coincide with a stride of the fine points, so
// the operation is exact at shared points. This is the paper's "resampling"
// of a lower-diagonal sub-grid from the finer diagonal sub-grid above it. The
// caller provides the destination (typically a pooled grid, see NewPooled),
// so the recovery hot path allocates nothing per call.
func RestrictInto(fine, coarse *Grid) error {
	if !coarse.Lv.LE(fine.Lv) {
		return fmt.Errorf("grid: cannot restrict %v to finer level %v", fine.Lv, coarse.Lv)
	}
	sx := 1 << (fine.Lv.I - coarse.Lv.I)
	sy := 1 << (fine.Lv.J - coarse.Lv.J)
	for iy := 0; iy < coarse.Ny; iy++ {
		frow := iy * sy * fine.Nx
		crow := iy * coarse.Nx
		for ix := 0; ix < coarse.Nx; ix++ {
			coarse.V[crow+ix] = fine.V[frow+ix*sx]
		}
	}
	return nil
}

// AccumulateSampled adds coeff times src's bilinear interpolant, evaluated
// at every point of g, into g. It is the elementary operation of the
// combination formula u_c = sum_i c_i u_i evaluated on a common grid.
//
// The kernel is separable: a target column always maps to the same source
// column interval and x-weight regardless of the row, so the per-column
// source index and weight are computed once into pooled scratch tables and
// the inner loop is a pure fused row interpolation — no divisions, bounds
// clamps or function calls per point, and no allocation per call.
func (g *Grid) AccumulateSampled(src *Grid, coeff float64) {
	sc := getSampleScratch(g.Nx)
	ixs, txs := sc.idx, sc.wt
	hx := g.Hx()
	fw := float64(src.Nx - 1)
	for ix := 0; ix < g.Nx; ix++ {
		fx := clamp01(float64(ix)*hx) * fw
		ix0 := int(fx)
		if ix0 >= src.Nx-1 {
			ix0 = src.Nx - 2
		}
		ixs[ix] = ix0
		txs[ix] = fx - float64(ix0)
	}
	hy := g.Hy()
	fh := float64(src.Ny - 1)
	sv := src.V
	for iy := 0; iy < g.Ny; iy++ {
		fy := clamp01(float64(iy)*hy) * fh
		iy0 := int(fy)
		if iy0 >= src.Ny-1 {
			iy0 = src.Ny - 2
		}
		ty := fy - float64(iy0)
		w0 := (1 - ty) * coeff
		w1 := ty * coeff
		row0 := iy0 * src.Nx
		row1 := row0 + src.Nx
		dst := g.V[iy*g.Nx : iy*g.Nx+g.Nx]
		for ix := range dst {
			ix0, tx := ixs[ix], txs[ix]
			a0 := sv[row0+ix0]
			a1 := sv[row0+ix0+1]
			b0 := sv[row1+ix0]
			b1 := sv[row1+ix0+1]
			dst[ix] += w0*(a0+tx*(a1-a0)) + w1*(b0+tx*(b1-b0))
		}
	}
	putSampleScratch(sc)
}

// L1Error returns the mean absolute difference between the grid and f
// evaluated at every grid point — the error measure of the paper's Fig. 10
// (the l1-norm of the difference with the exact analytic solution, averaged
// over points).
func (g *Grid) L1Error(f func(x, y float64) float64) float64 {
	var sum float64
	hx, hy := g.Hx(), g.Hy()
	for iy := 0; iy < g.Ny; iy++ {
		y := float64(iy) * hy
		row := iy * g.Nx
		for ix := 0; ix < g.Nx; ix++ {
			sum += math.Abs(g.V[row+ix] - f(float64(ix)*hx, y))
		}
	}
	return sum / float64(len(g.V))
}

// MaxError returns the maximum absolute difference between the grid and f.
func (g *Grid) MaxError(f func(x, y float64) float64) float64 {
	var m float64
	hx, hy := g.Hx(), g.Hy()
	for iy := 0; iy < g.Ny; iy++ {
		y := float64(iy) * hy
		row := iy * g.Nx
		for ix := 0; ix < g.Nx; ix++ {
			if d := math.Abs(g.V[row+ix] - f(float64(ix)*hx, y)); d > m {
				m = d
			}
		}
	}
	return m
}

// L1Diff returns the mean absolute difference between two grids of the same
// level.
func L1Diff(a, b *Grid) (float64, error) {
	if a.Lv != b.Lv {
		return 0, fmt.Errorf("grid: L1Diff level mismatch %v vs %v", a.Lv, b.Lv)
	}
	var sum float64
	for i := range a.V {
		sum += math.Abs(a.V[i] - b.V[i])
	}
	return sum / float64(len(a.V)), nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
