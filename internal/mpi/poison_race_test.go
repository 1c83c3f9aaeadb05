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

// TestReduceInputReadAfterwardsIsPoisoned: Reduce consumes its input, so a
// caller that keeps reading its buffer after the call reads what the
// parent's release left there, not its contribution. Once a barrier after
// the reduction has passed, every parent has folded and released its
// children's buffers, and each non-root rank's input reads NaN throughout.
func TestReduceInputReadAfterwardsIsPoisoned(t *testing.T) {
	const n, m = 6, 64
	for _, event := range []bool{false, true} {
		opts := Options{NProcs: n, EventWorkers: 2, Watchdog: stallFails()}
		runOnPath(t, opts, event, func(p *Proc, o pathOps) {
			c := p.World()
			data := AcquireBuf[float64](m)
			for i := range data {
				data[i] = 1
			}
			o.reduce(c, 0, data, func(red []float64, err error) {
				must(t, err)
				o.barrier(c, func(err error) {
					must(t, err)
					if c.Rank() == 0 {
						if red[0] != n {
							t.Errorf("event=%v: root sum %v, want %v", event, red[0], n)
						}
						return
					}
					for i, v := range data {
						if !math.IsNaN(v) {
							t.Errorf("event=%v rank %d: input[%d] still reads %v after Reduce", event, c.Rank(), i, v)
							return
						}
					}
				})
			})
		})
	}
}
