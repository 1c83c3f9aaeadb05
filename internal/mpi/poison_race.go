//go:build race

package mpi

import "unsafe"

// poison overwrites a buffer entering the pool, so a holder that released
// it too early reads 0xFF bytes (NaN as a float, -1 as an int) — a wrong
// value in a golden — and trips the race detector if it is still reading.
// Race builds only; the normal build's poison is empty.
func poison(p unsafe.Pointer, n int) {
	b := unsafe.Slice((*byte)(p), n)
	for i := range b {
		b[i] = 0xFF
	}
}
