//go:build race

package mpi

import (
	"math"
	"testing"
)

// raceEnabled lets allocation pins skip builds in which sync.Pool drops
// items at random.
const raceEnabled = true

// TestReleasePoisons checks the race build's use-after-release tripwire: a
// holder that reads a buffer after releasing it sees NaN (floats) or -1
// (ints), never its old data.
func TestReleasePoisons(t *testing.T) {
	f := AcquireBuf[float64](16)
	f[3] = 1.5
	ReleaseBuf(f)
	if !math.IsNaN(f[3]) {
		t.Errorf("released float buffer still reads %v", f[3])
	}
	n := AcquireBuf[int](16)
	n[3] = 7
	ReleaseBuf(n)
	if n[3] != -1 {
		t.Errorf("released int buffer still reads %d", n[3])
	}
}
