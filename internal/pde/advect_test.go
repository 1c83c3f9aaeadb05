package pde

import (
	"math"
	"testing"

	"ftsg/internal/grid"
)

// CosHill is a smooth periodic hill 0.5(1-cos 2πx)(1-cos 2πy), strictly
// non-negative with a single maximum.
func CosHill(x, y float64) float64 {
	return 0.5 * (1 - math.Cos(2*math.Pi*x)) * (1 - math.Cos(2*math.Pi*y))
}

// TwoWaves superposes two frequencies.
func TwoWaves(x, y float64) float64 {
	return math.Sin(2*math.Pi*x)*math.Sin(2*math.Pi*y) +
		0.25*math.Sin(6*math.Pi*x)*math.Sin(4*math.Pi*y)
}

func testProblem() *Problem {
	return &Problem{Ax: 1.0, Ay: 0.5, U0: SinProduct}
}

func TestExactSolutionWraps(t *testing.T) {
	p := testProblem()
	f := p.Exact(2.0) // integer shifts: exact solution equals u0
	for _, pt := range [][2]float64{{0.3, 0.7}, {0, 0}, {0.99, 0.01}} {
		if got, want := f(pt[0], pt[1]), p.U0(pt[0], pt[1]); math.Abs(got-want) > 1e-12 {
			t.Errorf("Exact(2)(%v) = %g, want %g", pt, got, want)
		}
	}
}

func TestStableDt(t *testing.T) {
	dt := StableDt(1.0/256, 1.0/256, 1, 0.5, 0.9)
	if err := CheckStable(grid.Level{I: 8, J: 8}, testProblem(), dt); err != nil {
		t.Fatal(err)
	}
	cx, cy := Courant(grid.Level{I: 8, J: 8}, testProblem(), dt)
	if s := math.Abs(cx) + math.Abs(cy); math.Abs(s-0.9) > 1e-12 {
		t.Fatalf("combined Courant number = %g, want 0.9", s)
	}
	// Zero velocity edge case.
	if dt := StableDt(0.1, 0.2, 0, 0, 0.5); dt <= 0 {
		t.Fatalf("StableDt with zero velocity = %g", dt)
	}
}

func TestCheckStableRejects(t *testing.T) {
	if err := CheckStable(grid.Level{I: 8, J: 8}, testProblem(), 1.0); err == nil {
		t.Fatal("wildly unstable dt accepted")
	}
}

// TestLaxWendroffAccuracy verifies the solver converges on the analytic
// solution with second-order-ish behaviour as resolution doubles.
func TestLaxWendroffAccuracy(t *testing.T) {
	p := testProblem()
	var prev float64
	for _, l := range []int{4, 5, 6} {
		lv := grid.Level{I: l, J: l}
		dt := StableDt(1.0/float64(int(1)<<l), 1.0/float64(int(1)<<l), p.Ax, p.Ay, 0.8)
		nsteps := int(0.25/dt) + 1
		g := Solve(lv, p, dt, nsteps)
		err := g.L1Error(p.Exact(float64(nsteps) * dt))
		if l > 4 {
			ratio := prev / err
			if ratio < 3.0 { // second order would give ~4
				t.Errorf("level %d: error %g only improved %gx over previous", l, err, ratio)
			}
		}
		prev = err
	}
	if prev > 5e-3 {
		t.Errorf("finest error %g too large", prev)
	}
}

// TestLaxWendroffExactForConstant checks a constant field is a fixed point.
func TestLaxWendroffExactForConstant(t *testing.T) {
	p := &Problem{Ax: 0.7, Ay: -0.3, U0: func(x, y float64) float64 { return 4.2 }}
	g := Solve(grid.Level{I: 4, J: 3}, p, 0.001, 50)
	if e := g.L1Error(func(x, y float64) float64 { return 4.2 }); e > 1e-13 {
		t.Fatalf("constant drifted by %g", e)
	}
}

// TestAnisotropicGridStability exercises the paper's anisotropic sub-grids
// (e.g. 2^4 x 2^8) with the shared timestep sized by the finest dimension.
func TestAnisotropicGridStability(t *testing.T) {
	p := testProblem()
	n := 8
	dt := StableDt(math.Pow(2, -float64(n)), math.Pow(2, -float64(n)), p.Ax, p.Ay, 0.8)
	for _, lv := range []grid.Level{{I: 4, J: 8}, {I: 8, J: 4}, {I: 6, J: 6}} {
		if err := CheckStable(lv, p, dt); err != nil {
			t.Fatalf("shared dt unstable on %v: %v", lv, err)
		}
		g := Solve(lv, p, dt, 100)
		for _, v := range g.V {
			if math.IsNaN(v) || math.Abs(v) > 10 {
				t.Fatalf("%v: blow-up, value %g", lv, v)
			}
		}
	}
}

// TestPeriodicConsistency checks the duplicate row/column invariant after
// stepping.
func TestPeriodicConsistency(t *testing.T) {
	p := testProblem()
	g := Solve(grid.Level{I: 5, J: 5}, p, 0.001, 37)
	for iy := 0; iy < g.Ny; iy++ {
		if g.At(0, iy) != g.At(g.Nx-1, iy) {
			t.Fatalf("row %d: periodic column broken", iy)
		}
	}
	for ix := 0; ix < g.Nx; ix++ {
		if g.At(ix, 0) != g.At(ix, g.Ny-1) {
			t.Fatalf("col %d: periodic row broken", ix)
		}
	}
}

// TestMassConservation: Lax–Wendroff on a periodic domain conserves the
// discrete mean exactly (all flux terms telescope).
func TestMassConservation(t *testing.T) {
	p := &Problem{Ax: 1, Ay: 0.5, U0: CosHill}
	lv := grid.Level{I: 5, J: 5}
	g := grid.New(lv)
	g.Fill(p.U0)
	mass := func(g *grid.Grid) float64 {
		var s float64
		for j := 0; j < g.Ny-1; j++ {
			for i := 0; i < g.Nx-1; i++ {
				s += g.At(i, j)
			}
		}
		return s
	}
	m0 := mass(g)
	var scratch []float64
	for s := 0; s < 200; s++ {
		scratch = Step(g, p, 0.002, scratch)
	}
	if d := math.Abs(mass(g) - m0); d > 1e-9 {
		t.Fatalf("mass drifted by %g", d)
	}
}

func TestInitialConditionsPeriodic(t *testing.T) {
	for name, f := range map[string]func(x, y float64) float64{
		"SinProduct": SinProduct,
		"CosHill":    CosHill,
		"TwoWaves":   TwoWaves,
	} {
		for _, v := range []float64{0, 0.25, 0.7} {
			if d := math.Abs(f(0, v) - f(1, v)); d > 1e-12 {
				t.Errorf("%s not 1-periodic in x at y=%g (diff %g)", name, v, d)
			}
			if d := math.Abs(f(v, 0) - f(v, 1)); d > 1e-12 {
				t.Errorf("%s not 1-periodic in y at x=%g (diff %g)", name, v, d)
			}
		}
	}
}

// TestFactorTablesMatchPerCell checks that a product-form initial condition
// evaluated by its two one-dimensional factors — once per column, once per
// row — is the same float64 in every cell as the per-cell U0 call, for solver
// row bands at several levels and offsets, and that the table-based L1Error is
// the same float64 as the per-cell sum against Exact(t). CosHill stands in for
// a second product form: 0.5(1-cos 2πx)·(1-cos 2πy) factors without
// re-association, the 0.5 belonging to the x factor.
func TestFactorTablesMatchPerCell(t *testing.T) {
	cosX := func(x float64) float64 { return 0.5 * (1 - math.Cos(2*math.Pi*x)) }
	cosY := func(y float64) float64 { return 1 - math.Cos(2*math.Pi*y) }
	for name, tabled := range map[string]*Problem{
		"SinProduct": {Ax: 1, Ay: -0.5, U0: SinProduct, U0X: Sin2Pi, U0Y: Sin2Pi},
		"CosHill":    {Ax: -0.7, Ay: 0.3, U0: CosHill, U0X: cosX, U0Y: cosY},
	} {
		perCell := &Problem{Ax: tabled.Ax, Ay: tabled.Ay, U0: tabled.U0}
		for _, lv := range []grid.Level{{I: 0, J: 0}, {I: 1, J: 4}, {I: 5, J: 3}, {I: 6, J: 6}, {I: 3, J: 8}} {
			nx, ny := 1<<lv.I, 1<<lv.J
			hx, hy := 1.0/float64(nx), 1.0/float64(ny)
			// Row bands as the solver cuts them: all rows, and a band from a
			// row offset behind a halo row.
			for _, b := range []struct{ j0, nj, lead int }{{0, ny, 0}, {ny / 3, ny - ny/3, nx}} {
				size := b.lead + b.nj*nx
				got, want := make([]float64, size), make([]float64, size)
				tabled.fillRows(got[b.lead:], nx, b.j0, b.nj, hx, hy)
				perCell.fillRows(want[b.lead:], nx, b.j0, b.nj, hx, hy)
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%s %v rows %+v: cell %d = %v by tables, %v per cell", name, lv, b, k, got[k], want[k])
					}
				}
			}
			g := grid.New(lv)
			g.Fill(func(x, y float64) float64 { return math.Cos(3*x) - y*y })
			for _, tm := range []float64{0, 0.1, 1.0 / 3, 0.5, 2, 7.25} {
				if got, want := tabled.L1Error(g, tm), g.L1Error(perCell.Exact(tm)); got != want {
					t.Errorf("%s %v t=%v: L1Error %v by tables, %v per cell", name, lv, tm, got, want)
				}
				if got, want := perCell.L1Error(g, tm), g.L1Error(perCell.Exact(tm)); got != want {
					t.Errorf("%s %v t=%v: L1Error without factors %v, want %v", name, lv, tm, got, want)
				}
			}
		}
	}
}
