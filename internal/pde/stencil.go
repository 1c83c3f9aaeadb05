package pde

// The Lax–Wendroff update, written once. The serial stepper and the
// parallel solver hand it rows — destination, south, centre, north — and it
// knows nothing about how those rows are stored or who owns them.
//
// The expression tree in lwCoef.at is frozen: every golden, journal,
// core.Result and CSV hash in the repository is a function of the exact
// float64 it produces. Only the five loop-invariant coefficient products are
// hoisted (each is the left-most factor chain of its term, so hoisting does
// not re-associate anything); no partial sums are shared between terms and
// nothing is fused. The tree has a second transcription, four lanes wide, in
// stencil_amd64.s: a change to one must be made to the other.

// lwCoef holds the loop-invariant products of one Lax–Wendroff step with
// Courant numbers cx, cy.
type lwCoef struct {
	x, y   float64 // 0.5*cx, 0.5*cy: centred first differences
	xx, yy float64 // 0.5*cx*cx, 0.5*cy*cy: second differences
	xy     float64 // 0.25*cx*cy: cross derivative
}

func newLWCoef(cx, cy float64) lwCoef {
	return lwCoef{
		x: 0.5 * cx, y: 0.5 * cy,
		xx: 0.5 * cx * cx, yy: 0.5 * cy * cy,
		xy: 0.25 * cx * cy,
	}
}

// at is the nine-point update of one cell from its value u and its eight
// neighbours by compass direction.
func (c *lwCoef) at(u, uE, uW, uN, uS, uNE, uNW, uSE, uSW float64) float64 {
	return u -
		c.x*(uE-uW) - c.y*(uN-uS) +
		c.xx*(uE-2*u+uW) + c.yy*(uN-2*u+uS) +
		c.xy*(uNE-uNW-uSE+uSW)
}

// cell is the update of column i whose west and east neighbours are the
// columns iw and ie of the same three rows.
func (c *lwCoef) cell(south, centre, north []float64, iw, i, ie int) float64 {
	return c.at(centre[i],
		centre[ie], centre[iw], north[i], south[i],
		north[ie], north[iw], south[ie], south[iw])
}

// interior updates dst[i] for 0 < i < len(centre)-1, the cells whose east and
// west neighbours are the adjacent elements of the same row. All four rows
// must be at least len(centre) long. With AVX, lwRowAVX updates the cells in
// groups of four and interiorGo finishes the last zero to three; otherwise
// interiorGo updates them all.
func (c *lwCoef) interior(dst, south, centre, north []float64) {
	n := len(centre)
	if k := (n - 2) &^ 3; useAVX && k > 0 {
		lwRowAVX(c, dst[:n], south[:n], centre, north[:n])
		dst, south, centre, north = dst[k:], south[k:], centre[k:], north[k:]
	}
	c.interiorGo(dst, south, centre, north)
}

// interiorGo is interior one cell at a time. Re-slicing the four rows to one
// length, and counting by the east column (the largest index touched), lets
// the compiler drop every bounds check from the loop.
func (c *lwCoef) interiorGo(dst, south, centre, north []float64) {
	n := len(centre)
	dst, south, north = dst[:n], south[:n], north[:n]
	for ie := 2; ie < n; ie++ {
		dst[ie-1] = c.cell(south, centre, north, ie-2, ie-1, ie)
	}
}

// periodicRow updates a whole row that wraps onto itself in x: the interior
// plus the two edge columns, whose wrapped neighbours are named once per row
// (a one-column row is its own neighbour on both sides; in a two-column row
// each column is the other's east and west).
func (c *lwCoef) periodicRow(dst, south, centre, north []float64) {
	c.interior(dst, south, centre, north)
	nx := len(centre)
	dst[0] = c.cell(south, centre, north, nx-1, 0, 1%nx)
	if nx > 1 {
		dst[nx-1] = c.cell(south, centre, north, nx-2, nx-1, 0)
	}
}
