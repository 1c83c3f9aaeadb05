package pde

import "ftsg/internal/grid"

// StepUpwind advances g one timestep with the first-order upwind scheme
// under periodic boundary conditions. It serves as the baseline comparator
// for Lax–Wendroff: monotone (no oscillations) but only first-order
// accurate, so it needs far finer grids for the same error — the reason the
// paper's solver uses Lax–Wendroff.
func StepUpwind(g *grid.Grid, prob *Problem, dt float64, scratch []float64) []float64 {
	c := upwindCoef{cx: prob.Ax * dt / g.Hx(), cy: prob.Ay * dt / g.Hy()}
	return sweepPeriodic(g, scratch, c.periodicRow)
}

// upwindCoef holds the two Courant numbers of one upwind step.
type upwindCoef struct{ cx, cy float64 }

// at is the five-point update of one cell: the differences follow the sign
// of each velocity component.
func (c *upwindCoef) at(u, uE, uW, uN, uS float64) float64 {
	var dux, duy float64
	if c.cx >= 0 {
		dux = u - uW
	} else {
		dux = uE - u
	}
	if c.cy >= 0 {
		duy = u - uS
	} else {
		duy = uN - u
	}
	return u - c.cx*dux - c.cy*duy
}

// periodicRow updates a whole row that wraps onto itself in x, with the same
// peel as lwCoef.periodicRow: plain neighbours inside, the wrapped columns
// named once for the two edges.
func (c *upwindCoef) periodicRow(dst, south, centre, north []float64) {
	nx := len(centre)
	dst, south, north = dst[:nx], south[:nx], north[:nx]
	for ie := 2; ie < nx; ie++ { // counted by the east column: no bounds checks
		i := ie - 1
		dst[i] = c.at(centre[i], centre[ie], centre[i-1], north[i], south[i])
	}
	dst[0] = c.at(centre[0], centre[1%nx], centre[nx-1], north[0], south[0])
	if nx > 1 {
		dst[nx-1] = c.at(centre[nx-1], centre[0], centre[nx-2], north[nx-1], south[nx-1])
	}
}

// SolveUpwind runs nsteps upwind steps on a fresh grid of the given level.
func SolveUpwind(lv grid.Level, prob *Problem, dt float64, nsteps int) *grid.Grid {
	g := grid.New(lv)
	g.Fill(prob.U0)
	var scratch []float64
	for s := 0; s < nsteps; s++ {
		scratch = StepUpwind(g, prob, dt, scratch)
	}
	return g
}
