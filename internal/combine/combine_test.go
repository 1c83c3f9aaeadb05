package combine

import (
	"math"
	"slices"
	"testing"

	"ftsg/internal/grid"
	"ftsg/internal/pde"
)

// interpolate samples f on every component grid of s and combines them on
// the target level, isolating the pure combination error from solver error.
func interpolate(s Scheme, f func(x, y float64) float64, target grid.Level) (*grid.Grid, error) {
	sols := make(map[grid.Level]*grid.Grid, len(s))
	for _, c := range s {
		g := grid.New(c.Lv)
		g.Fill(f)
		sols[c.Lv] = g
	}
	return Evaluate(s, sols, target)
}

func TestLayoutRowsMatchFig1(t *testing.T) {
	// Paper Fig. 1 with n = 13, l = 4.
	ly := Layout{N: 13, L: 4}
	if err := ly.Validate(); err != nil {
		t.Fatal(err)
	}
	diag := ly.Diagonal()
	if len(diag) != 4 {
		t.Fatalf("diagonal has %d grids, want 4", len(diag))
	}
	want := []grid.Level{{I: 10, J: 13}, {I: 11, J: 12}, {I: 12, J: 11}, {I: 13, J: 10}}
	for i := range want {
		if diag[i] != want[i] {
			t.Fatalf("diagonal = %v, want %v", diag, want)
		}
	}
	lower := ly.LowerDiagonal()
	wantLower := []grid.Level{{I: 10, J: 12}, {I: 11, J: 11}, {I: 12, J: 10}}
	if len(lower) != 3 {
		t.Fatalf("lower diagonal has %d grids, want 3", len(lower))
	}
	for i := range wantLower {
		if lower[i] != wantLower[i] {
			t.Fatalf("lower = %v, want %v", lower, wantLower)
		}
	}
	extra := append(ly.Row(2), ly.Row(3)...)
	wantExtra := []grid.Level{{I: 10, J: 11}, {I: 11, J: 10}, {I: 10, J: 10}}
	if len(extra) != 3 {
		t.Fatalf("extra layers have %d grids, want 3 (IDs 11-13)", len(extra))
	}
	for _, e := range wantExtra {
		found := false
		for _, g := range extra {
			if g == e {
				found = true
			}
		}
		if !found {
			t.Fatalf("extra layers %v missing %v", extra, e)
		}
	}
}

func TestLayoutRowCounts(t *testing.T) {
	// Row d has L-d grids for any layout with n >= l.
	for _, ly := range []Layout{{N: 8, L: 4}, {N: 13, L: 4}, {N: 10, L: 5}, {N: 9, L: 6}} {
		for d := 0; d < ly.L; d++ {
			if got := len(ly.Row(d)); got != ly.L-d {
				t.Errorf("layout %+v row %d has %d grids, want %d", ly, d, got, ly.L-d)
			}
		}
	}
}

// TestLayoutRowAscendingI pins the order Row emits: ascending I, so the
// sub-grid IDs the layout numbers in row order stay where Fig. 1 puts them.
func TestLayoutRowAscendingI(t *testing.T) {
	for _, ly := range []Layout{{N: 8, L: 4}, {N: 13, L: 4}, {N: 10, L: 5}, {N: 9, L: 6}} {
		for d := -1; d <= ly.L; d++ {
			row := ly.Row(d)
			for k := 1; k < len(row); k++ {
				if row[k].I <= row[k-1].I {
					t.Errorf("layout %+v row %d = %v: I not ascending at %d", ly, d, row, k)
					break
				}
			}
		}
	}
	want := []grid.Level{{I: 5, J: 8}, {I: 6, J: 7}, {I: 7, J: 6}, {I: 8, J: 5}}
	if got := (Layout{N: 8, L: 4}).Row(0); !slices.Equal(got, want) {
		t.Errorf("layout {8 4} diagonal = %v, want %v", got, want)
	}
}

func TestLayoutValidate(t *testing.T) {
	if err := (Layout{N: 8, L: 3}).Validate(); err == nil {
		t.Error("l=3 accepted")
	}
	if err := (Layout{N: 3, L: 4}).Validate(); err == nil {
		t.Error("n<l accepted")
	}
}

func TestClassicSchemeCoefficients(t *testing.T) {
	ly := Layout{N: 8, L: 4}
	s := ly.Classic()
	if len(s) != 7 {
		t.Fatalf("classic scheme has %d components, want 7", len(s))
	}
	var sum float64
	for _, c := range s {
		sum += c.Coeff
	}
	if sum != 1 {
		t.Fatalf("coefficient sum = %g, want 1", sum)
	}
	for _, lv := range ly.Diagonal() {
		if s.Coeff(lv) != 1 {
			t.Errorf("diagonal %v coeff = %g, want 1", lv, s.Coeff(lv))
		}
	}
	for _, lv := range ly.LowerDiagonal() {
		if s.Coeff(lv) != -1 {
			t.Errorf("lower %v coeff = %g, want -1", lv, s.Coeff(lv))
		}
	}
	if s.Coeff(grid.Level{I: 1, J: 1}) != 0 {
		t.Error("absent level has non-zero coefficient")
	}
}

// TestCombinationInterpolationAccuracy: the combined interpolant of a smooth
// function converges as the full-grid exponent n grows (for fixed level l,
// the paper's parameterisation puts the diagonal at i+j = 2n-l+1, so larger
// n means finer component grids).
func TestCombinationInterpolationAccuracy(t *testing.T) {
	f := pde.SinProduct
	var prev float64
	for _, n := range []int{6, 7, 8} {
		ly := Layout{N: n, L: 4}
		target := grid.Level{I: n, J: n}
		comb, err := interpolate(ly.Classic(), f, target)
		if err != nil {
			t.Fatal(err)
		}
		e := comb.L1Error(f)
		if n > 6 && e >= prev {
			t.Errorf("n=%d error %g did not improve on %g", n, e, prev)
		}
		prev = e
	}
	if prev > 1e-5 {
		t.Errorf("n=8 combination error %g too large", prev)
	}
}

// TestCombinationExactForConstant: coefficients sum to 1, so a constant
// combines exactly.
func TestCombinationExactForConstant(t *testing.T) {
	ly := Layout{N: 7, L: 4}
	comb, err := interpolate(ly.Classic(), func(x, y float64) float64 { return 3.25 }, grid.Level{I: 7, J: 7})
	if err != nil {
		t.Fatal(err)
	}
	if e := comb.MaxError(func(x, y float64) float64 { return 3.25 }); e > 1e-12 {
		t.Fatalf("constant combination error %g", e)
	}
}

// TestCombinationExactForBilinear: every component grid reproduces bilinear
// functions exactly, so the combination does too.
func TestCombinationExactForBilinear(t *testing.T) {
	ly := Layout{N: 6, L: 4}
	f := func(x, y float64) float64 { return 1 + 2*x - y + 0.5*x*y }
	comb, err := interpolate(ly.Classic(), f, grid.Level{I: 6, J: 6})
	if err != nil {
		t.Fatal(err)
	}
	if e := comb.MaxError(f); e > 1e-12 {
		t.Fatalf("bilinear combination error %g", e)
	}
}

func TestEvaluateValidation(t *testing.T) {
	ly := Layout{N: 6, L: 4}
	s := ly.Classic()
	// Missing solution.
	if _, err := Evaluate(s, map[grid.Level]*grid.Grid{}, grid.Level{I: 6, J: 6}); err == nil {
		t.Error("missing solutions accepted")
	}
	// Wrong level under a right key.
	sols := make(map[grid.Level]*grid.Grid)
	for _, c := range s {
		sols[c.Lv] = grid.New(c.Lv)
	}
	sols[s[0].Lv] = grid.New(grid.Level{I: 1, J: 1})
	if _, err := Evaluate(s, sols, grid.Level{I: 6, J: 6}); err == nil {
		t.Error("mismatched solution level accepted")
	}
}

// TestCombinedSolverError mirrors the paper's no-failure baseline: solve the
// advection problem on every component grid, combine, and compare with the
// analytic solution. The error must be small but non-zero (it reflects "an
// advection solver using the sparse grid combination technique at the given
// grid resolutions", Section III-C).
func TestCombinedSolverError(t *testing.T) {
	prob := &pde.Problem{Ax: 1, Ay: 0.5, U0: pde.SinProduct}
	ly := Layout{N: 7, L: 4}
	h := math.Pow(2, -float64(ly.N))
	dt := pde.StableDt(h, h, prob.Ax, prob.Ay, 0.8)
	nsteps := 128
	s := ly.Classic()
	sols := make(map[grid.Level]*grid.Grid)
	for _, c := range s {
		sols[c.Lv] = pde.Solve(c.Lv, prob, dt, nsteps)
	}
	comb, err := Evaluate(s, sols, grid.Level{I: ly.N, J: ly.N})
	if err != nil {
		t.Fatal(err)
	}
	e := comb.L1Error(prob.Exact(float64(nsteps) * dt))
	if e == 0 {
		t.Fatal("suspiciously exact combined solution")
	}
	if e > 0.02 {
		t.Fatalf("combined solver error %g too large", e)
	}
}
