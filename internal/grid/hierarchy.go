package grid

// Hierarchical-basis transforms for the sparse grid machinery underlying
// the combination technique (Griebel, Schneider & Zenger 1992; Bungartz &
// Griebel 2004). The nodal values of a grid are converted to hierarchical
// surpluses — each interior point's deviation from the linear interpolant
// of its hierarchical parents. Surplus decay is the classical
// smoothness diagnostic that justifies combining anisotropic grids.

// hierarchize1D converts nodal values to hierarchical surpluses in place
// along a strided line of 2^level+1 points starting at offset.
func hierarchize1D(v []float64, level, offset, stride int) {
	n := 1 << level
	for lev := level; lev >= 1; lev-- {
		step := 1 << (level - lev)
		for idx := step; idx < n; idx += 2 * step {
			i := offset + idx*stride
			v[i] -= 0.5 * (v[i-step*stride] + v[i+step*stride])
		}
	}
}

// Hierarchize converts the grid's nodal values into hierarchical surpluses
// (tensor-product transform: all rows, then all columns), returning a new
// grid. Boundary values are level-0 nodal values and stay unchanged.
func Hierarchize(g *Grid) *Grid {
	out := g.Clone()
	if g.Lv.I > 0 {
		for j := 0; j < g.Ny; j++ {
			hierarchize1D(out.V, g.Lv.I, j*g.Nx, 1)
		}
	}
	if g.Lv.J > 0 {
		for i := 0; i < g.Nx; i++ {
			hierarchize1D(out.V, g.Lv.J, i, g.Nx)
		}
	}
	return out
}
