package grid

import (
	"math"
	"math/rand"
	"testing"
)

// Dehierarchize converts hierarchical surpluses back to nodal values,
// inverting Hierarchize exactly (up to rounding): coarse levels first, so
// parent values are already nodal when a child is restored.
func Dehierarchize(g *Grid) *Grid {
	out := g.Clone()
	line := func(level, offset, stride int) {
		n := 1 << level
		for lev := 1; lev <= level; lev++ {
			step := 1 << (level - lev)
			for idx := step; idx < n; idx += 2 * step {
				i := offset + idx*stride
				out.V[i] += 0.5 * (out.V[i-step*stride] + out.V[i+step*stride])
			}
		}
	}
	if g.Lv.J > 0 {
		for i := 0; i < g.Nx; i++ {
			line(g.Lv.J, i, g.Nx)
		}
	}
	if g.Lv.I > 0 {
		for j := 0; j < g.Ny; j++ {
			line(g.Lv.I, j*g.Nx, 1)
		}
	}
	return out
}

// levelOfIndex returns the hierarchical level of grid index i on a 1D grid
// of maximum level maxLevel: boundary points are level 0; an interior point
// i = odd * 2^(maxLevel-l) has level l.
func levelOfIndex(i, maxLevel int) int {
	if i == 0 || i == 1<<maxLevel {
		return 0
	}
	l := maxLevel
	for i%2 == 0 {
		i /= 2
		l--
	}
	return l
}

func TestHierarchizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, lv := range []Level{{I: 0, J: 0}, {I: 1, J: 0}, {I: 0, J: 3}, {I: 3, J: 3}, {I: 2, J: 5}, {I: 6, J: 4}} {
		g := New(lv)
		for i := range g.V {
			g.V[i] = rng.NormFloat64()
		}
		back := Dehierarchize(Hierarchize(g))
		for i := range g.V {
			if math.Abs(back.V[i]-g.V[i]) > 1e-12 {
				t.Fatalf("%v: round trip differs at %d: %g vs %g", lv, i, back.V[i], g.V[i])
			}
		}
	}
}

// TestHierarchizeLinearVanishes: the surpluses of a (bi)linear function are
// exactly zero at every interior point — the defining property of the
// hierarchical basis.
func TestHierarchizeLinearVanishes(t *testing.T) {
	g := New(Level{I: 4, J: 4})
	g.Fill(func(x, y float64) float64 { return 2 + 3*x - 1.5*y })
	h := Hierarchize(g)
	for iy := 0; iy < h.Ny; iy++ {
		for ix := 0; ix < h.Nx; ix++ {
			lx, ly := levelOfIndex(ix, 4), levelOfIndex(iy, 4)
			if lx == 0 && ly == 0 {
				continue // boundary/corner nodal values
			}
			if v := math.Abs(h.At(ix, iy)); v > 1e-13 {
				t.Fatalf("linear surplus at (%d,%d) level (%d,%d) = %g", ix, iy, lx, ly, v)
			}
		}
	}
}

// TestSurplusDecay: for a smooth function the maximum surplus at level
// (lx, ly) decays roughly like 4^-(lx+ly) — the bound behind the
// combination technique's error analysis.
func TestSurplusDecay(t *testing.T) {
	g := New(Level{I: 7, J: 7})
	g.Fill(func(x, y float64) float64 {
		return math.Sin(2*math.Pi*x) * math.Sin(2*math.Pi*y)
	})
	h := Hierarchize(g)
	norms := map[Level]float64{}
	for iy := 0; iy < h.Ny; iy++ {
		for ix := 0; ix < h.Nx; ix++ {
			key := Level{I: levelOfIndex(ix, h.Lv.I), J: levelOfIndex(iy, h.Lv.J)}
			norms[key] = math.Max(norms[key], math.Abs(h.At(ix, iy)))
		}
	}
	// Along the isotropic diagonal, each level increment should shrink the
	// surplus by roughly 16x (4x per direction); accept anything above 8x.
	prev := norms[Level{I: 2, J: 2}]
	for l := 3; l <= 6; l++ {
		cur := norms[Level{I: l, J: l}]
		if cur <= 0 {
			t.Fatalf("missing surplus at level (%d,%d)", l, l)
		}
		if ratio := prev / cur; ratio < 8 {
			t.Errorf("surplus decay (%d,%d) only %.1fx", l, l, ratio)
		}
		prev = cur
	}
}

func TestLevelOfIndex(t *testing.T) {
	cases := []struct{ i, maxLevel, want int }{
		{0, 4, 0}, {16, 4, 0}, // boundaries
		{8, 4, 1},             // midpoint
		{4, 4, 2}, {12, 4, 2}, // quarter points
		{1, 4, 4}, {15, 4, 4}, // finest
		{6, 4, 3},
	}
	for _, c := range cases {
		if got := levelOfIndex(c.i, c.maxLevel); got != c.want {
			t.Errorf("levelOfIndex(%d, %d) = %d, want %d", c.i, c.maxLevel, got, c.want)
		}
	}
}
