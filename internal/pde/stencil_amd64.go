package pde

// useAVX selects the AVX row kernel (stencil_amd64.s) for lwCoef.interior.
// It is set once from the CPU; tests clear it to run the Go loop alone.
var useAVX = hasAVX()

// hasAVX reports whether the CPU has AVX and the OS saves the YMM registers.
func hasAVX() bool

// lwRowAVX writes dst[i] for 0 < i ≤ 4·⌊(len(centre)−2)/4⌋, four cells per
// instruction, each exactly as lwCoef.at computes it. dst, south and north
// must be at least len(centre) long.
//
//go:noescape
func lwRowAVX(c *lwCoef, dst, south, centre, north []float64)
