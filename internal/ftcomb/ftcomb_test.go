package ftcomb

import (
	"math"
	"math/rand"
	"testing"

	"ftsg/internal/combine"
	"ftsg/internal/grid"
	"ftsg/internal/pde"
)

// alternateHeld returns the grid set held by the Alternate Combination
// technique for a layout: diagonal, lower diagonal, and two extra layers
// (paper Fig. 1: sub-grids 0-6 and 11-13).
func alternateHeld(ly combine.Layout) []grid.Level {
	held := append([]grid.Level(nil), ly.Diagonal()...)
	held = append(held, ly.LowerDiagonal()...)
	held = append(held, ly.Row(2)...)
	return append(held, ly.Row(3)...)
}

func coeffSum(s combine.Scheme) float64 {
	var sum float64
	for _, c := range s {
		sum += c.Coeff
	}
	return sum
}

// interpolate samples f on every component grid of s and combines them on
// the target level, isolating the pure combination error from solver error.
func interpolate(s combine.Scheme, f func(x, y float64) float64, target grid.Level) (*grid.Grid, error) {
	sols := make(map[grid.Level]*grid.Grid, len(s))
	for _, c := range s {
		g := grid.New(c.Lv)
		g.Fill(f)
		sols[c.Lv] = g
	}
	return combine.Evaluate(s, sols, target)
}

func TestDownset(t *testing.T) {
	J := Downset([]grid.Level{{I: 1, J: 2}})
	if len(J) != 6 {
		t.Fatalf("|down((1,2))| = %d, want 6", len(J))
	}
	if !J[grid.Level{I: 0, J: 0}] || !J[grid.Level{I: 1, J: 2}] || J[grid.Level{I: 2, J: 0}] {
		t.Fatal("downset membership wrong")
	}
}

func TestMaximal(t *testing.T) {
	s := NewSet(grid.Level{I: 1, J: 2}, grid.Level{I: 2, J: 1}, grid.Level{I: 1, J: 1}, grid.Level{I: 0, J: 2})
	m := Maximal(s)
	if len(m) != 2 || m[0] != (grid.Level{I: 1, J: 2}) || m[1] != (grid.Level{I: 2, J: 1}) {
		t.Fatalf("Maximal = %v", m)
	}
}

// TestCoefficientsReproduceClassic: on the classic downset, the GCP formula
// gives exactly the +1 diagonal / -1 lower-diagonal scheme.
func TestCoefficientsReproduceClassic(t *testing.T) {
	ly := combine.Layout{N: 13, L: 4}
	J := Downset(ly.Diagonal())
	c := Coefficients(J)
	want := map[grid.Level]int{}
	for _, lv := range ly.Diagonal() {
		want[lv] = 1
	}
	for _, lv := range ly.LowerDiagonal() {
		want[lv] = -1
	}
	// Outside the truncation, lower "corners" appear at the row ends; the
	// classic scheme over the full triangle has them at (9,13)... but the
	// truncated downset ends exactly at the held grids, so:
	if len(c) != len(want) {
		t.Fatalf("got %d non-zero coefficients %v, want %d", len(c), c, len(want))
	}
	for lv, coeff := range want {
		if c[lv] != coeff {
			t.Errorf("coefficient at %v = %d, want %d", lv, c[lv], coeff)
		}
	}
}

// TestCoefficientSumIsOneProperty: for any non-empty downset the GCP
// coefficients telescope to exactly 1.
func TestCoefficientSumIsOneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		ngen := 1 + rng.Intn(5)
		gen := make([]grid.Level, ngen)
		for i := range gen {
			gen[i] = grid.Level{I: rng.Intn(8), J: rng.Intn(8)}
		}
		c := Coefficients(Downset(gen))
		sum := 0
		for _, v := range c {
			sum += v
		}
		if sum != 1 {
			t.Fatalf("trial %d: generators %v, coefficient sum %d", trial, gen, sum)
		}
	}
}

func TestRecoverSchemeNoLossEqualsClassic(t *testing.T) {
	ly := combine.Layout{N: 8, L: 4}
	s, err := RecoverScheme(alternateHeld(ly), nil)
	if err != nil {
		t.Fatal(err)
	}
	classic := ly.Classic()
	if len(s) != len(classic) {
		t.Fatalf("recovered scheme %v, want classic %v", s, classic)
	}
	for _, c := range classic {
		if s.Coeff(c.Lv) != c.Coeff {
			t.Errorf("coeff at %v = %g, want %g", c.Lv, s.Coeff(c.Lv), c.Coeff)
		}
	}
}

func TestRecoverSchemeLostDiagonal(t *testing.T) {
	ly := combine.Layout{N: 8, L: 4}
	lost := NewSet(ly.Diagonal()[0]) // (5,8)
	s, err := RecoverScheme(alternateHeld(ly), lost)
	if err != nil {
		t.Fatal(err)
	}
	assertSupported(t, s, alternateHeld(ly), lost)
	if s.Coeff(ly.Diagonal()[0]) != 0 {
		t.Error("lost grid still has a coefficient")
	}
	if math.Abs(coeffSum(s)-1) > 1e-12 {
		t.Errorf("coefficient sum = %g", coeffSum(s))
	}
}

func TestRecoverSchemeLostLowerUsesCoarserGrids(t *testing.T) {
	ly := combine.Layout{N: 8, L: 4}
	// Lose a diagonal grid and the lower grid beneath it: the recovery must
	// reach into the extra layers (this is why Alternate Combination keeps
	// them).
	diag, lower := ly.Diagonal(), ly.LowerDiagonal()
	lost := NewSet(diag[1], lower[1])
	s, err := RecoverScheme(alternateHeld(ly), lost)
	if err != nil {
		t.Fatal(err)
	}
	assertSupported(t, s, alternateHeld(ly), lost)
	usedExtra := false
	for _, lv := range append(ly.Row(2), ly.Row(3)...) {
		if s.Coeff(lv) != 0 {
			usedExtra = true
		}
	}
	if !usedExtra {
		t.Errorf("scheme %v did not use the extra layers", s)
	}
	if math.Abs(coeffSum(s)-1) > 1e-12 {
		t.Errorf("coefficient sum = %g", coeffSum(s))
	}
}

// TestRecoverSchemeRandomLossProperty: for any loss pattern that keeps at
// least one grid, the recovered scheme is supported on surviving grids and
// its coefficients sum to 1 (up to 5 lost grids, the paper's Fig. 10 range).
func TestRecoverSchemeRandomLossProperty(t *testing.T) {
	ly := combine.Layout{N: 9, L: 5}
	held := alternateHeld(ly)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		nlost := 1 + rng.Intn(5)
		lost := make(Set)
		for len(lost) < nlost {
			lost[held[rng.Intn(len(held))]] = true
		}
		s, err := RecoverScheme(held, lost)
		if err != nil {
			// Legal only if everything was lost, which cannot happen here.
			t.Fatalf("trial %d lost %v: %v", trial, lost, err)
		}
		assertSupported(t, s, held, lost)
		if math.Abs(coeffSum(s)-1) > 1e-12 {
			t.Fatalf("trial %d: coefficient sum %g", trial, coeffSum(s))
		}
	}
}

func TestRecoverSchemeAllLost(t *testing.T) {
	ly := combine.Layout{N: 8, L: 4}
	held := alternateHeld(ly)
	lost := NewSet(held...)
	if _, err := RecoverScheme(held, lost); err == nil {
		t.Fatal("empty survivor set accepted")
	}
}

// TestAlternateCombinationAccuracy: interpolation with recovered
// coefficients degrades, but stays bounded, under single losses. (The
// paper's "within a factor of 10" claim in Fig. 10 is against the combined
// *solver* error, which is much larger than the pure interpolation error of
// a smooth sinusoid measured here; the solver-level property is exercised
// in internal/core.)
func TestAlternateCombinationAccuracy(t *testing.T) {
	ly := combine.Layout{N: 8, L: 4}
	f := pde.SinProduct
	target := grid.Level{I: 8, J: 8}
	base, err := interpolate(ly.Classic(), f, target)
	if err != nil {
		t.Fatal(err)
	}
	baseErr := base.L1Error(f)
	held := alternateHeld(ly)
	for _, lostLv := range append(append([]grid.Level{}, ly.Diagonal()...), ly.LowerDiagonal()...) {
		s, err := RecoverScheme(held, NewSet(lostLv))
		if err != nil {
			t.Fatal(err)
		}
		comb, err := interpolate(s, f, target)
		if err != nil {
			t.Fatal(err)
		}
		e := comb.L1Error(f)
		if e <= baseErr {
			t.Errorf("losing %v: error %g did not degrade from baseline %g", lostLv, e, baseErr)
		}
		if e > 1e-3 {
			t.Errorf("losing %v: error %g unbounded (baseline %g)", lostLv, e, baseErr)
		}
	}
}

// TestSurvivorSchemeEverySubsetUpTo3 is the recovery-mode property test:
// for EVERY subset of up to three lost grids from the Fig. 9 grid set
// (the N=8, L=4 alternate-combination set the harness measures), the
// survivor scheme exists, is supported on the survivors, its coefficients
// sum to exactly 1, and the combined interpolation error stays within the
// documented degraded bound (DegradedErrorFactor times the classic
// full-set combination's error).
func TestSurvivorSchemeEverySubsetUpTo3(t *testing.T) {
	ly := combine.Layout{N: 8, L: 4}
	held := alternateHeld(ly)
	f := pde.SinProduct
	target := grid.Level{I: 8, J: 8}
	base, err := interpolate(ly.Classic(), f, target)
	if err != nil {
		t.Fatal(err)
	}
	baseErr := base.L1Error(f)
	bound := DegradedErrorFactor * baseErr

	check := func(lost Set) {
		t.Helper()
		s, err := SurvivorScheme(held, lost)
		if err != nil {
			t.Fatalf("lost %v: %v", lost, err)
		}
		assertSupported(t, s, held, lost)
		if coeffSum(s) != 1 {
			t.Fatalf("lost %v: coefficient sum %g, want exactly 1", lost, coeffSum(s))
		}
		comb, err := interpolate(s, f, target)
		if err != nil {
			t.Fatalf("lost %v: %v", lost, err)
		}
		if e := comb.L1Error(f); e > bound {
			t.Errorf("lost %v: L1 %g beyond degraded bound %g (%gx classic %g)",
				lost, e, bound, DegradedErrorFactor, baseErr)
		}
	}

	n := len(held)
	subsets := 0
	for i := 0; i < n; i++ {
		check(NewSet(held[i]))
		subsets++
		for j := i + 1; j < n; j++ {
			check(NewSet(held[i], held[j]))
			subsets++
			for k := j + 1; k < n; k++ {
				check(NewSet(held[i], held[j], held[k]))
				subsets++
			}
		}
	}
	want := n + n*(n-1)/2 + n*(n-1)*(n-2)/6
	if subsets != want {
		t.Fatalf("enumerated %d subsets, want %d", subsets, want)
	}
}

// TestSurvivorSchemeRejectsBadSum: the partition-of-unity gate is real — a
// held set whose recovered coefficients cannot reach the survivors is
// rejected as an error rather than silently mis-weighted.
func TestSurvivorSchemeRejectsBadSum(t *testing.T) {
	// No held grids at all: RecoverScheme's error must pass through.
	if _, err := SurvivorScheme(nil, nil); err == nil {
		t.Fatal("empty held set accepted")
	}
}

func assertSupported(t *testing.T, s combine.Scheme, held []grid.Level, lost Set) {
	t.Helper()
	avail := make(Set)
	for _, lv := range held {
		if !lost[lv] {
			avail[lv] = true
		}
	}
	for _, c := range s {
		if c.Coeff != 0 && !avail[c.Lv] {
			t.Errorf("scheme uses unavailable grid %v", c.Lv)
		}
	}
}
