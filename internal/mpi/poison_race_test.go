//go:build race

package mpi

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"
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

// releasePanics reports whether ReleaseBuf(b) panics with the lent-result
// tripwire's message.
func releasePanics(b []float64) (tripped bool) {
	defer func() {
		if r := recover(); r != nil {
			s, ok := r.(string)
			tripped = ok && strings.Contains(s, "lent collective result")
		}
	}()
	ReleaseBuf(b)
	return false
}

// TestReleaseOfLentResultPanics checks the race build's lent-result
// tripwire on both paths: releasing what Bcast, Allreduce or Allgather
// returns panics at every member, the root of the broadcast included, while
// the members' own buffers still release.
func TestReleaseOfLentResultPanics(t *testing.T) {
	const n, m = 6, 64
	for _, event := range []bool{false, true} {
		opts := Options{NProcs: n, EventWorkers: 2, Watchdog: stallFails()}
		runOnPath(t, opts, event, func(p *Proc, o pathOps) {
			c := p.World()
			check := func(op string, b []float64) {
				if !releasePanics(b) {
					t.Errorf("event=%v rank %d: releasing a %s result did not panic", event, c.Rank(), op)
				}
			}
			var data []float64
			if c.Rank() == 1 {
				data = make([]float64, m)
			}
			o.bcast(c, 1, data, func(got []float64, err error) {
				must(t, err)
				check("Bcast", got)
				in := AcquireBuf[float64](m)
				for i := range in {
					in[i] = 1
				}
				o.allreduce(c, in, func(sum []float64, err error) {
					must(t, err)
					check("Allreduce", sum)
					o.allgather(c, in, func(all [][]float64, err error) {
						must(t, err)
						check("Allgather", all[0])
						if releasePanics(in) {
							t.Errorf("event=%v rank %d: releasing its own input panicked", event, c.Rank())
						}
					})
				})
			})
		})
	}
}

// TestLentRegistryForgetsReclaimedArrays: the registry holds its arrays
// weakly, so once the GC has reclaimed a lent array its address, which a
// later allocation may reuse, no longer trips a release.
func TestLentRegistryForgetsReclaimedArrays(t *testing.T) {
	live := lent(make([]float64, 64))
	if !isLent(uintptr(unsafe.Pointer(unsafe.SliceData(live)))) {
		t.Fatal("a live lent array is not registered")
	}
	p := func() uintptr {
		b := lent(make([]float64, 64))
		return uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	}()
	runtime.GC()
	runtime.GC()
	if isLent(p) {
		t.Error("a reclaimed lent array's address still trips a release")
	}
}
