// Package pde implements the paper's model problem: the scalar advection
// equation u_t + a·∇u = 0 in two spatial dimensions on the periodic unit
// square, solved with the Lax–Wendroff scheme on regular (possibly
// anisotropic) grids. It provides a serial stepper, exact analytic
// solutions for error measurement, and a parallel solver that decomposes a
// grid by rows over an MPI communicator with halo exchange — the per-
// sub-grid "domain decomposition" of the paper's Section II-A.
package pde

import (
	"fmt"
	"math"

	"ftsg/internal/grid"
	"ftsg/internal/mpi"
)

// Problem describes one advection problem instance.
type Problem struct {
	// Ax, Ay are the constant advection velocities.
	Ax, Ay float64
	// U0 is the initial condition on [0,1)^2; it must be 1-periodic in
	// both arguments for the periodic boundary conditions to be exact.
	U0 func(x, y float64) float64
	// U0X and U0Y, when both set, are the one-dimensional factors of a
	// product-form initial condition: U0(x, y) == U0X(x)*U0Y(y) bit for bit
	// (one float64 multiplication of the two factors, in that order). The
	// solvers and L1Error then evaluate each factor once per column and once
	// per row instead of U0 once per cell. Leave them nil for anything else.
	U0X, U0Y func(float64) float64
}

// Exact returns the analytic solution at time t: the initial condition
// advected by (Ax t, Ay t) with periodic wrapping.
func (p *Problem) Exact(t float64) func(x, y float64) float64 {
	return func(x, y float64) float64 {
		return p.U0(wrap01(x-p.Ax*t), wrap01(y-p.Ay*t))
	}
}

// fillRows sets dst[k*nx+i] = U0(x, y) at the grid points x = i·hx,
// y = (j0+k)hy of nj whole rows of nx cells — the owned rows of a solver's
// local array. A product-form U0 costs nx+nj factor evaluations, not nx·nj
// calls.
func (p *Problem) fillRows(dst []float64, nx, j0, nj int, hx, hy float64) {
	if p.U0X == nil || p.U0Y == nil {
		for k := 0; k < nj; k++ {
			y := float64(j0+k) * hy
			for i := 0; i < nx; i++ {
				dst[k*nx+i] = p.U0(float64(i)*hx, y)
			}
		}
		return
	}
	xs := mpi.AcquireBuf[float64](nx)
	for i := range xs {
		xs[i] = p.U0X(float64(i) * hx)
	}
	for k := 0; k < nj; k++ {
		fy := p.U0Y(float64(j0+k) * hy)
		row := dst[k*nx : (k+1)*nx]
		for i, fx := range xs {
			row[i] = fx * fy
		}
	}
	mpi.ReleaseBuf(xs)
}

// L1Error returns g.L1Error(p.Exact(t)): the mean absolute difference between
// g and the exact solution at time t over g's points (the error measure of the
// paper's Fig. 10). For a product-form U0 it samples the two shifted factors
// once per column and once per row — the same factors, multiplied in the same
// order and summed in the same order, so the result is the same float64.
func (p *Problem) L1Error(g *grid.Grid, t float64) float64 {
	if p.U0X == nil || p.U0Y == nil {
		return g.L1Error(p.Exact(t))
	}
	hx, hy := g.Hx(), g.Hy()
	xs := mpi.AcquireBuf[float64](g.Nx)
	// The float64 conversions keep each product a rounded value of its own,
	// as an argument or result of the per-cell call is: no fused
	// multiply-subtract on the architectures that have one.
	for ix := range xs {
		xs[ix] = p.U0X(wrap01(float64(float64(ix)*hx) - p.Ax*t))
	}
	var sum float64
	for iy := 0; iy < g.Ny; iy++ {
		fy := p.U0Y(wrap01(float64(float64(iy)*hy) - p.Ay*t))
		row := g.V[iy*g.Nx : (iy+1)*g.Nx]
		for ix, fx := range xs {
			sum += math.Abs(row[ix] - float64(fx*fy))
		}
	}
	mpi.ReleaseBuf(xs)
	return sum / float64(len(g.V))
}

// Sin2Pi is sin(2πx): SinProduct's factor in each dimension, for
// Problem.U0X and Problem.U0Y.
func Sin2Pi(x float64) float64 { return math.Sin(2 * math.Pi * x) }

// SinProduct is the standard smooth periodic initial condition
// sin(2πx)·sin(2πy).
func SinProduct(x, y float64) float64 { return Sin2Pi(x) * Sin2Pi(y) }

// StableDt returns a timestep satisfying the 2D Lax–Wendroff stability
// condition |ax| dt/hx + |ay| dt/hy <= cfl for the FINEST spacings hx, hy.
// The paper fixes one dt across all sub-grids for stability, sized by the
// finest resolution present; callers pass hx = hy = 2^-n.
func StableDt(hx, hy, ax, ay, cfl float64) float64 {
	denom := math.Abs(ax)/hx + math.Abs(ay)/hy
	if denom == 0 {
		return cfl * math.Min(hx, hy)
	}
	return cfl / denom
}

// Step advances g one timestep of size dt with the unsplit two-dimensional
// Lax–Wendroff scheme (including the cross-derivative term) under periodic
// boundary conditions. The scheme is second-order accurate in space and
// time for the linear advection equation (Lax & Wendroff 1960). g.V keeps
// its identity; the returned slice is the scratch, for reuse by the next
// call.
func Step(g *grid.Grid, prob *Problem, dt float64, scratch []float64) []float64 {
	c := newLWCoef(prob.Ax*dt/g.Hx(), prob.Ay*dt/g.Hy())
	return sweepPeriodic(g, scratch, c.periodicRow)
}

// sweepPeriodic advances g one step of the scheme given as a row update:
// row(dst, south, centre, north) writes one row's new values from that row
// and its two periodic neighbours, each passed without its duplicate column.
// The new field is built in scratch (replaced if too short) and copied back,
// and the periodic duplicate column and row — which no stencil reads — are
// closed last.
func sweepPeriodic(g *grid.Grid, scratch []float64, row func(dst, south, centre, north []float64)) []float64 {
	nx, ny := g.Nx-1, g.Ny-1 // periodic unknowns; last row/col duplicate first
	if len(scratch) < g.Nx*g.Ny {
		scratch = make([]float64, g.Nx*g.Ny)
	}
	v, w := g.V, scratch
	for j := 0; j < ny; j++ {
		r, rS, rN := j*g.Nx, (j-1+ny)%ny*g.Nx, (j+1)%ny*g.Nx
		row(w[r:r+nx], v[rS:rS+nx], v[r:r+nx], v[rN:rN+nx])
		w[r+nx] = w[r] // periodic duplicate column
	}
	copy(v, w[:ny*g.Nx])
	// Periodic duplicate row.
	copy(v[ny*g.Nx:], v[:g.Nx])
	return scratch
}

// Solve runs nsteps Lax–Wendroff steps on a fresh grid of the given level,
// returning the final grid. It is the serial reference implementation.
func Solve(lv grid.Level, prob *Problem, dt float64, nsteps int) *grid.Grid {
	g := grid.New(lv)
	g.Fill(prob.U0)
	var scratch []float64
	for s := 0; s < nsteps; s++ {
		scratch = Step(g, prob, dt, scratch)
	}
	return g
}

// wrap01 maps v into [0,1).
func wrap01(v float64) float64 {
	v -= math.Floor(v)
	if v >= 1 {
		v = 0
	}
	return v
}

// Courant returns the two Courant numbers (cx, cy) of a grid/timestep pair,
// for stability diagnostics.
func Courant(lv grid.Level, prob *Problem, dt float64) (float64, float64) {
	hx := 1.0 / float64(int(1)<<lv.I)
	hy := 1.0 / float64(int(1)<<lv.J)
	return prob.Ax * dt / hx, prob.Ay * dt / hy
}

// CheckStable returns an error if the fixed timestep violates the combined
// Courant condition on the given level.
func CheckStable(lv grid.Level, prob *Problem, dt float64) error {
	cx, cy := Courant(lv, prob, dt)
	if s := math.Abs(cx) + math.Abs(cy); s > 1.0+1e-12 {
		return fmt.Errorf("pde: unstable timestep on %v: |cx|+|cy| = %g > 1", lv, s)
	}
	return nil
}
