// Package combine implements the sparse grid combination technique of the
// paper (Eq. 1): the solution is computed on several small anisotropic
// sub-grids and combined as
//
//	u_s = Σ_{i+j=2n-l+1} u_{i,j}  −  Σ_{i+j=2n-l} u_{i,j}
//
// where n is the full-grid exponent and l >= 4 the level. The package
// provides the paper's grid layout (diagonal, lower-diagonal, duplicate and
// extra-layer rows, Fig. 1), the classic ±1 coefficients, and evaluation of
// a combination scheme onto a common grid.
package combine

import (
	"fmt"

	"ftsg/internal/grid"
)

// Component is one sub-grid with its combination coefficient.
type Component struct {
	Lv    grid.Level
	Coeff float64
}

// Scheme is a combination scheme: the list of sub-grids to combine with
// their coefficients.
type Scheme []Component

// Coeff returns the coefficient of the given level, or 0 if absent.
func (s Scheme) Coeff(lv grid.Level) float64 {
	for _, c := range s {
		if c.Lv == lv {
			return c.Coeff
		}
	}
	return 0
}

// Layout fixes the paper's grid geometry: full-grid exponent N and level L.
type Layout struct {
	N, L int
}

// Validate checks the paper's constraint l >= 4 (so every row is non-empty
// down to two extra layers) and n >= l.
func (ly Layout) Validate() error {
	if ly.L < 4 {
		return fmt.Errorf("combine: level %d < 4", ly.L)
	}
	if ly.N < ly.L {
		return fmt.Errorf("combine: full grid exponent %d < level %d", ly.N, ly.L)
	}
	return nil
}

// Row returns the sub-grid levels with i+j = 2N-L+1-d and i,j >= N-L+1:
// d = 0 is the diagonal (L grids), d = 1 the lower diagonal (L-1 grids),
// d >= 2 the extra layers used by the Alternate Combination technique
// (L-d grids each), in ascending I. An out-of-range d yields an empty row.
func (ly Layout) Row(d int) []grid.Level {
	minLv := ly.N - ly.L + 1
	sum := 2*ly.N - ly.L + 1 - d
	var out []grid.Level
	for i := minLv; i <= ly.N; i++ {
		j := sum - i
		if j < minLv || j > ly.N {
			continue
		}
		out = append(out, grid.Level{I: i, J: j})
	}
	return out
}

// Diagonal returns the L diagonal sub-grids (IDs 0..L-1 in the paper's
// Fig. 1 numbering).
func (ly Layout) Diagonal() []grid.Level { return ly.Row(0) }

// LowerDiagonal returns the L-1 lower-diagonal sub-grids.
func (ly Layout) LowerDiagonal() []grid.Level { return ly.Row(1) }

// Classic returns the standard combination scheme: +1 on the diagonal,
// -1 on the lower diagonal (Eq. 1 of the paper).
func (ly Layout) Classic() Scheme {
	var s Scheme
	for _, lv := range ly.Diagonal() {
		s = append(s, Component{Lv: lv, Coeff: 1})
	}
	for _, lv := range ly.LowerDiagonal() {
		s = append(s, Component{Lv: lv, Coeff: -1})
	}
	return s
}

// Evaluate combines the given sub-grid solutions according to the scheme,
// sampling each bilinearly onto a fresh grid of the target level. Every
// scheme component must have a solution.
func Evaluate(s Scheme, solutions map[grid.Level]*grid.Grid, target grid.Level) (*grid.Grid, error) {
	out := grid.New(target)
	if err := EvaluateInto(out, s, solutions); err != nil {
		return nil, err
	}
	return out, nil
}

// EvaluateInto is Evaluate with a caller-provided destination grid
// (typically pooled, see grid.NewPooled): dst is zeroed and the combination
// is accumulated into it, allocating nothing.
func EvaluateInto(dst *grid.Grid, s Scheme, solutions map[grid.Level]*grid.Grid) error {
	dst.Zero()
	for _, c := range s {
		sol, ok := solutions[c.Lv]
		if !ok {
			return fmt.Errorf("combine: no solution for sub-grid %v", c.Lv)
		}
		if sol.Lv != c.Lv {
			return fmt.Errorf("combine: solution level %v does not match component %v", sol.Lv, c.Lv)
		}
		dst.AccumulateSampled(sol, c.Coeff)
	}
	return nil
}
