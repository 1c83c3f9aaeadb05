package pde

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ftsg/internal/grid"
	"ftsg/internal/mpi"
)

// The oracles below are the per-cell modulo loops the row kernels replaced,
// transcribed unchanged. Every comparison against them is ==, never a
// tolerance: the goldens, journals and CSV hashes downstream depend on the
// exact float64 of every cell.

// oracleLW is one Lax–Wendroff step of a doubly periodic nx × ny field,
// row-major with row stride nx.
func oracleLW(w, v []float64, nx, ny int, cx, cy float64) {
	for j := 0; j < ny; j++ {
		jm := (j - 1 + ny) % ny
		jp := (j + 1) % ny
		row, rowM, rowP := j*nx, jm*nx, jp*nx
		for i := 0; i < nx; i++ {
			im := (i - 1 + nx) % nx
			ip := (i + 1) % nx
			u := v[row+i]
			uE, uW := v[row+ip], v[row+im]
			uN, uS := v[rowP+i], v[rowM+i]
			uNE, uNW := v[rowP+ip], v[rowP+im]
			uSE, uSW := v[rowM+ip], v[rowM+im]
			w[row+i] = u -
				0.5*cx*(uE-uW) - 0.5*cy*(uN-uS) +
				0.5*cx*cx*(uE-2*u+uW) + 0.5*cy*cy*(uN-2*u+uS) +
				0.25*cx*cy*(uNE-uNW-uSE+uSW)
		}
	}
}

// stepPeriodicRows is one step of a doubly periodic nx × ny field through a
// periodicRow kernel: what serial Step and ParallelSolver.update do with it.
func stepPeriodicRows(w, v []float64, nx, ny int, row func(dst, south, centre, north []float64)) {
	for j := 0; j < ny; j++ {
		r, rS, rN := j*nx, (j-1+ny)%ny*nx, (j+1)%ny*nx
		row(w[r:r+nx], v[rS:rS+nx], v[r:r+nx], v[rN:rN+nx])
	}
}

// stepHaloRows is one step of the same field through lwCoef.interior alone
// over rows padded with a wrapped halo cell on each side and a halo row above
// and below, so the interior kernel is checked on every cell of the field,
// edge columns included. Only the interior of w is written; its halo ring is
// garbage.
func stepHaloRows(w, v []float64, nx, ny int, c lwCoef) {
	lw := nx + 2
	pad := make([]float64, (ny+2)*lw)
	out := make([]float64, (ny+2)*lw)
	for k := range out {
		out[k] = -12345 // never read back outside the interior
	}
	for j := -1; j <= ny; j++ {
		for i := -1; i <= nx; i++ {
			pad[(j+1)*lw+i+1] = v[(j+ny)%ny*nx+(i+nx)%nx]
		}
	}
	for ly := 1; ly <= ny; ly++ {
		c.interior(out[ly*lw:(ly+1)*lw], pad[(ly-1)*lw:ly*lw], pad[ly*lw:(ly+1)*lw], pad[(ly+1)*lw:(ly+2)*lw])
	}
	for j := 0; j < ny; j++ {
		copy(w[j*nx:(j+1)*nx], out[(j+1)*lw+1:(j+1)*lw+1+nx])
	}
}

// cpuAVX records whether lwCoef.interior found the AVX row kernel usable.
var cpuAVX = useAVX

// rowPath is one way lwCoef.interior can run: the Go loop alone ("go") or
// the AVX row kernel in front of it ("avx").
type rowPath struct {
	name string
	avx  bool
}

// rowPathsHere lists the row paths this CPU can run.
func rowPathsHere() []rowPath {
	paths := []rowPath{{"go", false}}
	if cpuAVX {
		paths = append(paths, rowPath{"avx", true})
	}
	return paths
}

// rowPaths runs f as a subtest once per row path. All must produce the same
// bits.
func rowPaths(t *testing.T, f func(t *testing.T)) {
	defer func(saved bool) { useAVX = saved }(useAVX)
	for _, p := range rowPathsHere() {
		useAVX = p.avx
		t.Run(p.name, f)
	}
}

// TestRowKernelsMatchModuloOracle runs each row kernel and its oracle side by
// side from the same random field for a dozen steps, over every shape class
// of the peel: nx = 1 (a column that is its own neighbour), nx = 2 (each
// column the other's east and west), nx = 3 (one interior cell), odd and
// even, power of two or not. Between them, nx = 6 to 11 leave every
// remainder of zero to three cells after the AVX kernel's groups of four.
func TestRowKernelsMatchModuloOracle(t *testing.T) {
	rowPaths(t, testRowKernelsMatchModuloOracle)
}

func testRowKernelsMatchModuloOracle(t *testing.T) {
	const steps = 12
	rng := rand.New(rand.NewSource(22))
	for _, nx := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 33, 64} {
		for _, ny := range []int{1, 2, 3, 8} {
			for _, sign := range [][2]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
				cx, cy := 0.4*sign[0], 0.3*sign[1]
				lw := newLWCoef(cx, cy)
				kernels := []struct {
					name   string
					oracle func(w, v []float64)
					kernel func(w, v []float64)
				}{
					{"lw/periodicRow",
						func(w, v []float64) { oracleLW(w, v, nx, ny, cx, cy) },
						func(w, v []float64) { stepPeriodicRows(w, v, nx, ny, lw.periodicRow) }},
					{"lw/interior",
						func(w, v []float64) { oracleLW(w, v, nx, ny, cx, cy) },
						func(w, v []float64) { stepHaloRows(w, v, nx, ny, lw) }},
				}
				start := make([]float64, nx*ny)
				for k := range start {
					start[k] = rng.Float64()*2 - 1
				}
				for _, kc := range kernels {
					want, got := append([]float64(nil), start...), append([]float64(nil), start...)
					wantNext, gotNext := make([]float64, nx*ny), make([]float64, nx*ny)
					for s := 1; s <= steps; s++ {
						kc.oracle(wantNext, want)
						kc.kernel(gotNext, got)
						want, wantNext = wantNext, want
						got, gotNext = gotNext, got
						for k := range want {
							if got[k] != want[k] {
								t.Fatalf("%s nx=%d ny=%d c=(%g,%g) step %d cell (%d,%d): got %v, oracle %v",
									kc.name, nx, ny, cx, cy, s, k%nx, k/nx, got[k], want[k])
							}
						}
					}
				}
			}
		}
	}
}

// TestAVXRowMatchesGoLoop compares interior through the AVX row kernel with
// the Go loop alone, cell by cell, on rows of 0 to 70 cells. The rows start at
// odd element offsets of one backing array, so their alignment varies, and
// hold signed zeros, infinities, subnormals, values whose products overflow
// and NaN beside ordinary values. Every result must have the Go loop's bits,
// except that a NaN need only be a NaN (its payload is the hardware's
// choice); the edge columns must stay untouched.
func TestAVXRowMatchesGoLoop(t *testing.T) {
	if !cpuAVX {
		t.Skip("no AVX on this CPU")
	}
	defer func(saved bool) { useAVX = saved }(useAVX)
	useAVX = true
	const maxLen, stride = 70, 74 // stride even: every row starts odd
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64}
	rng := rand.New(rand.NewSource(28))
	value := func() float64 {
		switch r := rng.Intn(16); {
		case r == 0:
			return special[rng.Intn(len(special))]
		case r < 4:
			return (rng.Float64()*2 - 1) * 1e-307 // subnormal once scaled by a coefficient
		case r < 6:
			return (rng.Float64()*2 - 1) * 1e308
		default:
			return rng.Float64()*2 - 1
		}
	}
	const sentinel = -12345.0
	back := make([]float64, 5*stride)
	for _, cxy := range [][2]float64{{0.4, 0.3}, {-0.9, 0.7}, {1, -1}} {
		lw := newLWCoef(cxy[0], cxy[1])
		for n := 0; n <= maxLen; n++ {
			for _, off := range []int{1, 3} {
				row := func(r int) []float64 { return back[off+r*stride : off+r*stride+n] }
				south, centre, north, vec, scal := row(0), row(1), row(2), row(3), row(4)
				for trial := 0; trial < 4; trial++ {
					for i := 0; i < n; i++ {
						south[i], centre[i], north[i] = value(), value(), value()
						vec[i], scal[i] = sentinel, sentinel
					}
					lw.interior(vec, south, centre, north)
					lw.interiorGo(scal, south, centre, north)
					for i := range scal {
						if g, v := scal[i], vec[i]; math.IsNaN(g) && !math.IsNaN(v) ||
							!math.IsNaN(g) && math.Float64bits(v) != math.Float64bits(g) {
							t.Fatalf("c=%v n=%d offset %d trial %d cell %d: AVX %v (%#x), Go %v (%#x)",
								cxy, n, off, trial, i, v, math.Float64bits(v), g, math.Float64bits(g))
						}
					}
				}
			}
		}
	}
}

// TestSerialStepsMatchModuloOracle checks the serial steppers end to end —
// row sweep, periodic duplicate column and row, copy back into g.V — against
// the oracles on the grid's nx × ny unknowns, down to one-column and one-row
// grids.
func TestSerialStepsMatchModuloOracle(t *testing.T) {
	rowPaths(t, testSerialStepsMatchModuloOracle)
}

func testSerialStepsMatchModuloOracle(t *testing.T) {
	const steps = 10
	steppers := []struct {
		name   string
		step   func(g *grid.Grid, prob *Problem, dt float64, scratch []float64) []float64
		oracle func(w, v []float64, nx, ny int, cx, cy float64)
	}{
		{"Step", Step, oracleLW},
	}
	for _, lv := range []grid.Level{{I: 0, J: 0}, {I: 0, J: 3}, {I: 1, J: 1}, {I: 3, J: 0}, {I: 2, J: 4}, {I: 6, J: 3}} {
		for _, prob := range []*Problem{{Ax: 1, Ay: 0.5, U0: offsetWaves}, {Ax: -0.7, Ay: 1, U0: offsetWaves}, {Ax: -1, Ay: -0.3, U0: TwoWaves}} {
			for _, st := range steppers {
				g := grid.New(lv)
				g.Fill(prob.U0)
				nx, ny := g.Nx-1, g.Ny-1
				dt := StableDt(g.Hx(), g.Hy(), prob.Ax, prob.Ay, 0.8)
				cx, cy := prob.Ax*dt/g.Hx(), prob.Ay*dt/g.Hy()
				want, next := make([]float64, nx*ny), make([]float64, nx*ny)
				for j := 0; j < ny; j++ {
					copy(want[j*nx:(j+1)*nx], g.V[j*g.Nx:j*g.Nx+nx])
				}
				held := g.V
				var scratch []float64
				for s := 1; s <= steps; s++ {
					scratch = st.step(g, prob, dt, scratch)
					st.oracle(next, want, nx, ny, cx, cy)
					want, next = next, want
					if &g.V[0] != &held[0] {
						t.Fatalf("%s %v: g.V changed identity at step %d", st.name, lv, s)
					}
					for j := 0; j <= ny; j++ {
						for i := 0; i <= nx; i++ {
							if got, w := g.V[j*g.Nx+i], want[j%ny*nx+i%nx]; got != w {
								t.Fatalf("%s %v a=(%g,%g) step %d point (%d,%d): got %v, oracle %v",
									st.name, lv, prob.Ax, prob.Ay, s, i, j, got, w)
							}
						}
					}
				}
			}
		}
	}
}

// offsetWaves is periodic and, unlike the package's initial conditions,
// non-zero along x = 0 and y = 0, so one-column and one-row grids carry a
// field that moves.
func offsetWaves(x, y float64) float64 {
	return 1 + math.Sin(2*math.Pi*x)*math.Cos(2*math.Pi*y) + 0.5*math.Cos(2*math.Pi*y) + 0.25*math.Cos(4*math.Pi*x)
}

// solverProcs are the process counts the solver tests split a sub-grid over;
// a count above the level's row count is skipped.
var solverProcs = []int{1, 2, 3, 8}

// swapLevels includes I = 0 and I = 1, where every column of a row-banded
// block is a periodic edge column and the interior loop never runs.
var swapLevels = []grid.Level{{I: 0, J: 3}, {I: 1, J: 3}, {I: 2, J: 1}, {I: 4, J: 5}, {I: 5, J: 3}}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d values, want %d", what, len(got), len(want))
		return
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("%s: value %d is %v, want %v", what, k, got[k], want[k])
			return
		}
	}
}

// TestSolversMatchSerialAtBothParities gathers the solver at every process
// count after an odd and an even number of steps and requires the serial grid bit for bit.
// The solver alternates between two buffers, so a stale halo or a read from
// the wrong buffer would show at one parity only.
func TestSolversMatchSerialAtBothParities(t *testing.T) {
	rowPaths(t, testSolversMatchSerialAtBothParities)
}

func testSolversMatchSerialAtBothParities(t *testing.T) {
	prob := &Problem{Ax: 1.0, Ay: -0.5, U0: offsetWaves}
	for _, lv := range swapLevels {
		dt := StableDt(1/float64(int(1)<<lv.I), 1/float64(int(1)<<lv.J), prob.Ax, prob.Ay, 0.8)
		serial := map[int]*grid.Grid{7: Solve(lv, prob, dt, 7), 8: Solve(lv, prob, dt, 8)}
		for _, procs := range solverProcs {
			if procs > 1<<lv.J {
				continue
			}
			_, err := mpi.Run(mpi.Options{NProcs: procs, Entry: func(proc *mpi.Proc) {
				for _, nsteps := range []int{7, 8} {
					s, err := NewParallelSolver(proc.World(), prob, lv, dt)
					if err != nil {
						t.Errorf("p=%d %v: %v", procs, lv, err)
						return
					}
					if err := s.Run(nsteps); err != nil {
						t.Errorf("p=%d %v: Run: %v", procs, lv, err)
						return
					}
					g, err := s.Gather(0)
					if err != nil {
						t.Errorf("p=%d %v: Gather: %v", procs, lv, err)
						return
					}
					if g != nil {
						sameBits(t, fmt.Sprintf("p=%d %v after %d steps", procs, lv, nsteps), g.V, serial[nsteps].V)
						g.Free()
					}
					s.Release()
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBufferSwapInvisibleToStateAccess drives Rows, Restore and
// SetFromGrid at both buffer parities: a checkpoint taken after a steps and
// restored after b more must recompute the same bits, and a solver k steps
// into its life that is overwritten from a full grid must continue exactly as
// the serial solver does.
func TestBufferSwapInvisibleToStateAccess(t *testing.T) {
	prob := &Problem{Ax: -0.6, Ay: 1.0, U0: offsetWaves}
	for _, lv := range swapLevels {
		dt := StableDt(1/float64(int(1)<<lv.I), 1/float64(int(1)<<lv.J), prob.Ax, prob.Ay, 0.8)
		const from = 4 // SetFromGrid source step
		source := Solve(lv, prob, dt, from)
		serial := map[int]*grid.Grid{5: Solve(lv, prob, dt, from+5), 6: Solve(lv, prob, dt, from+6)}
		for _, procs := range solverProcs {
			if procs > 1<<lv.J {
				continue
			}
			_, err := mpi.Run(mpi.Options{NProcs: procs, Entry: func(proc *mpi.Proc) {
				fail := func(what string, err error) { t.Errorf("p=%d %v: %s: %v", procs, lv, what, err) }
				for _, a := range []int{3, 4} {
					for _, b := range []int{5, 6} {
						what := fmt.Sprintf("p=%d %v a=%d b=%d", procs, lv, a, b)
						s, err := NewParallelSolver(proc.World(), prob, lv, dt)
						if err != nil {
							fail("build", err)
							return
						}
						if err := s.Run(a); err != nil {
							fail("Run", err)
							return
						}
						saved := slices.Clone(s.Rows())
						if err := s.Restore(a, s.Rows()); err != nil {
							fail("Restore from Rows in place", err)
							return
						}
						sameBits(t, what+": Restore from Rows in place", s.Rows(), saved)
						if err := s.Run(b); err != nil {
							fail("Run", err)
							return
						}
						after := slices.Clone(s.Rows())
						if err := s.Restore(a, saved); err != nil {
							fail("Restore", err)
							return
						}
						if err := s.Run(b); err != nil {
							fail("Run", err)
							return
						}
						sameBits(t, what+": restore and recompute", s.Rows(), after)
						s.Release()
					}
				}
				for _, k := range []int{0, 1} {
					for _, b := range []int{5, 6} {
						s, err := NewParallelSolver(proc.World(), prob, lv, dt)
						if err != nil {
							fail("build", err)
							return
						}
						if err := s.Run(k); err != nil {
							fail("Run", err)
							return
						}
						if err := s.SetFromGrid(source, from); err != nil {
							fail("SetFromGrid", err)
							return
						}
						if err := s.Run(b); err != nil {
							fail("Run", err)
							return
						}
						g, err := s.Gather(0)
						if err != nil {
							fail("Gather", err)
							return
						}
						if g != nil {
							sameBits(t, fmt.Sprintf("p=%d %v SetFromGrid after %d steps, then %d", procs, lv, k, b), g.V, serial[b].V)
							g.Free()
						}
						if s.StepCount != from+b {
							t.Errorf("p=%d %v: StepCount = %d, want %d", procs, lv, s.StepCount, from+b)
						}
						s.Release()
					}
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
