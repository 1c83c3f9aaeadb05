package grid

import (
	"math"
	"testing"
	"testing/quick"
)

// Set stores v at point (ix, iy).
func (g *Grid) Set(ix, iy int, v float64) { g.V[iy*g.Nx+ix] = v }

func TestNewDimensions(t *testing.T) {
	g := New(Level{3, 5})
	if g.Nx != 9 || g.Ny != 33 {
		t.Fatalf("dimensions %dx%d, want 9x33", g.Nx, g.Ny)
	}
	if len(g.V) != 9*33 {
		t.Fatalf("storage %d", len(g.V))
	}
	if g.Hx() != 0.125 || g.Hy() != 1.0/32 {
		t.Fatalf("spacing %g %g", g.Hx(), g.Hy())
	}
}

func TestNewPanicsOnBadLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative level")
		}
	}()
	New(Level{-1, 2})
}

func TestLevelAlgebra(t *testing.T) {
	a, b := Level{2, 3}, Level{3, 3}
	if !a.LE(b) || b.LE(a) {
		t.Fatal("LE wrong")
	}
	if a.Sum() != 5 {
		t.Fatalf("Sum = %d", a.Sum())
	}
	if a.Points() != 5*9 {
		t.Fatalf("Points = %d", a.Points())
	}
	if a.Cells() != 4*8 {
		t.Fatalf("Cells = %d", a.Cells())
	}
	if a.String() != "(2,3)" {
		t.Fatalf("String = %s", a)
	}
}

func TestFillAtSetXY(t *testing.T) {
	g := New(Level{2, 2})
	g.Fill(func(x, y float64) float64 { return x + 10*y })
	if got := g.At(1, 2); math.Abs(got-(0.25+5.0)) > 1e-15 {
		t.Fatalf("At(1,2) = %g", got)
	}
	g.Set(0, 0, -7)
	if g.At(0, 0) != -7 {
		t.Fatal("Set/At roundtrip failed")
	}
	if 4*g.Hx() != 1 || 4*g.Hy() != 1 {
		t.Fatal("spacing wrong")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(Level{1, 1})
	g.Fill(func(x, y float64) float64 { return x * y })
	h := g.Clone()
	h.Set(0, 0, 99)
	if g.At(0, 0) == 99 {
		t.Fatal("clone shares storage")
	}
}

func TestRestrictExactAtSharedPoints(t *testing.T) {
	fine := New(Level{4, 5})
	fine.Fill(func(x, y float64) float64 { return math.Sin(x) + math.Cos(y) })
	coarse := New(Level{2, 3})
	if err := RestrictInto(fine, coarse); err != nil {
		t.Fatal(err)
	}
	// Every coarse point must exactly equal the fine value there.
	for iy := 0; iy < coarse.Ny; iy++ {
		for ix := 0; ix < coarse.Nx; ix++ {
			want := math.Sin(float64(ix)*coarse.Hx()) + math.Cos(float64(iy)*coarse.Hy())
			if got := coarse.At(ix, iy); math.Abs(got-want) > 1e-15 {
				t.Fatalf("restricted value at (%d,%d) = %g, want %g", ix, iy, got, want)
			}
		}
	}
}

func TestRestrictToFinerFails(t *testing.T) {
	g := New(Level{2, 2})
	if err := RestrictInto(g, New(Level{3, 2})); err == nil {
		t.Fatal("restriction to finer level succeeded")
	}
}

func TestRestrictSameLevelIsCopy(t *testing.T) {
	g := New(Level{3, 2})
	g.Fill(func(x, y float64) float64 { return x - y })
	r := New(g.Lv)
	if err := RestrictInto(g, r); err != nil {
		t.Fatal(err)
	}
	if d, _ := L1Diff(g, r); d != 0 {
		t.Fatalf("same-level restrict differs by %g", d)
	}
}

func TestAccumulateSampled(t *testing.T) {
	src := New(Level{5, 5})
	src.Fill(func(x, y float64) float64 { return x + y })
	dst := New(Level{3, 3})
	dst.Fill(func(x, y float64) float64 { return 1 })
	dst.AccumulateSampled(src, 2.0)
	// dst = 1 + 2*(x+y) exactly (bilinear reproduces linear).
	err := dst.L1Error(func(x, y float64) float64 { return 1 + 2*(x+y) })
	if err > 1e-12 {
		t.Fatalf("AccumulateSampled error %g", err)
	}
}

func TestNorms(t *testing.T) {
	g := New(Level{2, 2})
	g.Fill(func(x, y float64) float64 { return 1 })
	zero := func(x, y float64) float64 { return 0 }
	if e := g.L1Error(zero); math.Abs(e-1) > 1e-15 {
		t.Fatalf("L1 = %g", e)
	}
	if e := g.MaxError(zero); e != 1 {
		t.Fatalf("Max = %g", e)
	}
	g.Zero()
	if e := g.L1Error(zero); e != 0 {
		t.Fatalf("L1 after zero = %g", e)
	}
}

func TestL1DiffMismatch(t *testing.T) {
	if _, err := L1Diff(New(Level{1, 1}), New(Level{1, 2})); err == nil {
		t.Fatal("level mismatch accepted")
	}
}

// Property: norms are non-negative and L1 <= Max.
func TestNormOrderingProperty(t *testing.T) {
	f := func(vals [16]float64) bool {
		g := New(Level{2, 2})
		for i := range g.V {
			v := vals[i%16]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			g.V[i] = math.Remainder(v, 1e6) // avoid overflow in the summed norm
		}
		zero := func(x, y float64) float64 { return 0 }
		l1, mx := g.L1Error(zero), g.MaxError(zero)
		return l1 >= 0 && mx >= 0 && l1 <= mx+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
