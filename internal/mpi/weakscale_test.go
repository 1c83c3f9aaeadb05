package mpi

import (
	"strconv"
	"testing"

	"ftsg/internal/vtime"
)

// weakScaleRounds is the weak-scaling workload's round count: each round is
// a Barrier, a 16-float Allreduce (the leader tree) and an 8192-float one
// (64 KiB, past collRingCutover: the leader ring).
const weakScaleRounds = 5

// weakScale runs the weak-scaling workload on nprocs ranks of the machine's
// default host shape and returns the run's virtual end time. event runs the
// same rounds through the Fiber* operations. Allreduce only reads its input,
// so the ranks share one of each size, and each result goes back to the pool.
func weakScale(t *testing.T, m *vtime.Machine, nprocs int, event bool) float64 {
	t.Helper()
	small, big := make([]float64, 16), make([]float64, 8192)
	opts := Options{NProcs: nprocs, Machine: m, Entry: func(p *Proc) {
		c := p.World()
		for k := 0; k < weakScaleRounds; k++ {
			if err := c.Barrier(); err != nil {
				t.Error(err)
				return
			}
			for _, in := range [][]float64{small, big} {
				out, err := Allreduce(c, in, Sum[float64])
				if err != nil {
					t.Error(err)
					return
				}
				ReleaseBuf(out)
			}
		}
	}}
	if event {
		opts.Entry = nil
		opts.EventEntry = func(p *Proc, f *Fiber) {
			c := p.World()
			var round func(k int)
			round = func(k int) {
				if k == weakScaleRounds {
					return
				}
				FiberBarrier(f, c, func(err error) {
					if err != nil {
						t.Error(err)
						return
					}
					FiberAllreduce(f, c, small, Sum[float64], func(out []float64, err error) {
						if err != nil {
							t.Error(err)
							return
						}
						ReleaseBuf(out)
						FiberAllreduce(f, c, big, Sum[float64], func(out []float64, err error) {
							if err != nil {
								t.Error(err)
								return
							}
							ReleaseBuf(out)
							round(k + 1)
						})
					})
				})
			}
			round(0)
		}
	}
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep.MaxVirtualTime
}

// TestWeakScaling pins the weak-scaling claim of the hierarchical
// collectives (DESIGN.md §11): the workload's virtual end time at 64 to
// 8192 ranks on both machines, exactly, since virtual time is
// deterministic; growth of less than 2× from 512 to 8192 ranks (16× the
// ranks), where a flat algorithm would grow linearly; and the same virtual
// time from the event path at 8192 ranks on OPL (the paths share the cost
// model, so one machine shows parity).
func TestWeakScaling(t *testing.T) {
	sizes := []int{64, 512, 4096, 8192}
	for _, tc := range []struct {
		machine func() *vtime.Machine
		parity  bool      // also run the event path at 8192 ranks
		want    []float64 // virtual seconds at each of sizes
	}{
		{vtime.OPL, true, []float64{0.0007868557899999983, 0.002058895060000054, 0.0026825341700000096, 0.0029742270200000067}},
		{vtime.Raijin, false, []float64{0.0005113314800000023, 0.0012134380200000076, 0.0016602726400000104, 0.0018309687400000119}},
	} {
		name := tc.machine().Name
		t.Run(name, func(t *testing.T) {
			got := map[int]float64{}
			for i, n := range sizes {
				t.Run(strconv.Itoa(n), func(t *testing.T) {
					vt := weakScale(t, tc.machine(), n, false)
					got[n] = vt
					if vt != tc.want[i] {
						t.Errorf("%s %d ranks: virtual end time %v, want %v", name, n, vt, tc.want[i])
					}
				})
			}
			if lo, hi := got[512], got[8192]; lo > 0 && hi >= 2*lo {
				t.Errorf("%s: 512 → 8192 ranks costs %v → %v virtual seconds (%.2f×): not sub-linear", name, lo, hi, hi/lo)
			}
			if !tc.parity {
				return
			}
			t.Run("event8192", func(t *testing.T) {
				if vt, want := weakScale(t, tc.machine(), 8192, true), tc.want[len(sizes)-1]; vt != want {
					t.Errorf("%s 8192 ranks, event path: virtual end time %v, want the goroutine path's %v", name, vt, want)
				}
			})
		})
	}
}
