package ftcomb_test

import (
	"fmt"

	"ftsg/internal/combine"
	"ftsg/internal/ftcomb"
	"ftsg/internal/grid"
)

// ExampleRecoverScheme derives new combination coefficients after losing a
// diagonal sub-grid, the paper's Alternate Combination recovery.
func ExampleRecoverScheme() {
	ly := combine.Layout{N: 8, L: 4}
	// Alternate Combination holds the diagonal, the lower diagonal and two
	// extra layers.
	var held []grid.Level
	for d := 0; d < 4; d++ {
		held = append(held, ly.Row(d)...)
	}
	lost := ftcomb.NewSet(ly.Diagonal()[1]) // sub-grid (6,7) is gone

	scheme, err := ftcomb.RecoverScheme(held, lost)
	if err != nil {
		panic(err)
	}
	var sum float64
	for _, c := range scheme {
		fmt.Printf("%v: %+g\n", c.Lv, c.Coeff)
		sum += c.Coeff
	}
	fmt.Printf("coefficient sum: %g\n", sum)
	// The lost grid's column is truncated: the survivors (5,8), (7,6) and
	// (8,5) carry +1, with -1 corrections at (5,6) and (7,5).
	// Output:
	// (5,6): -1
	// (5,8): +1
	// (7,5): -1
	// (7,6): +1
	// (8,5): +1
	// coefficient sum: 1
}
