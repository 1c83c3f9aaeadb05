//go:build !amd64

package pde

// useAVX is never set off amd64: lwCoef.interior runs the Go loop alone.
var useAVX = false

func lwRowAVX(c *lwCoef, dst, south, centre, north []float64) {
	panic("pde: no AVX row kernel on this architecture")
}
