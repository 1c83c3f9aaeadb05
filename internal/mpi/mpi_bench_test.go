package mpi

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ftsg/internal/vtime"
)

// BenchmarkPingPong measures the runtime's point-to-point round-trip cost
// (real wall time of the simulation, not virtual time) on a persistent
// two-rank world: b.N round trips of a 1 KiB message inside one Run, so world
// construction is outside the timer. Recv hands each payload over as a pooled
// slice the receiver releases; RecvInto receives into the caller's buffer.
func BenchmarkPingPong(b *testing.B) {
	for _, into := range []bool{false, true} {
		name := "Recv"
		if into {
			name = "RecvInto"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			_, err := Run(Options{NProcs: 2, Entry: func(p *Proc) {
				c := p.World()
				peer := 1 - c.Rank()
				out, in := make([]float64, 128), make([]float64, 128)
				recv := func() error {
					if into {
						_, err := RecvInto(c, peer, 0, in)
						return err
					}
					data, _, err := Recv[float64](c, peer, 0)
					ReleaseBuf(data)
					return err
				}
				// One untimed round trip: both ranks are running and the pool
				// holds the buffers the loop recycles.
				for k := -1; k < b.N; k++ {
					if k == 0 && c.Rank() == 0 {
						b.ResetTimer()
					}
					var err error
					if c.Rank() == 0 {
						if err = Send(c, peer, 0, out); err == nil {
							err = recv()
						}
					} else if err = recv(); err == nil {
						err = Send(c, peer, 0, out)
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			}})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// benchCollective times b.N calls of op by every rank of one persistent
// world of nprocs ranks (eight hosts on the default machine, so the
// hierarchical algorithms run). Every rank makes one untimed call first, so
// world construction and the pool's first fills stay outside the timer, and
// rank 0 runs the timer.
func benchCollective(b *testing.B, nprocs int, op func(c *Comm) error) {
	b.Helper()
	b.ReportAllocs()
	_, err := Run(Options{NProcs: nprocs, Entry: func(p *Proc) {
		c := p.World()
		for k := -1; k < b.N; k++ {
			if k == 0 && c.Rank() == 0 {
				b.ResetTimer()
			}
			if err := op(c); err != nil {
				b.Error(err)
				return
			}
		}
		if c.Rank() == 0 {
			b.StopTimer()
		}
	}})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBarrier64(b *testing.B) {
	benchCollective(b, 64, (*Comm).Barrier)
}

// BenchmarkAllreduce64 times a small Allreduce (the leader tree) and a
// 5120-float64 one (40 KiB: the leader ring), each rank releasing its result
// as a consumer would. The ring case is the fold's microbenchmark: most of
// its time is folding received chunks. Allreduce only reads its input, so
// the ranks share one.
func BenchmarkAllreduce64(b *testing.B) {
	for _, n := range []int{64, 5120} {
		b.Run(fmt.Sprintf("f64x%d", n), func(b *testing.B) {
			in := make([]float64, n)
			benchCollective(b, 64, func(c *Comm) error {
				out, err := Allreduce(c, in, Sum[float64])
				ReleaseBuf(out)
				return err
			})
		})
	}
}

func BenchmarkSplit64(b *testing.B) {
	benchCollective(b, 64, func(c *Comm) error {
		_, err := c.Split(c.Rank()%8, c.Rank())
		return err
	})
}

// BenchmarkRepairDance measures the full shrink/spawn/merge/split repair of
// a 19-rank communicator with two dead members — the inner loop of every
// recovery in the application.
func BenchmarkRepairDance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := Run(Options{NProcs: 19, Machine: vtime.OPL(), Entry: func(p *Proc) {
			if p.Parent() != nil {
				_, _ = p.Parent().Agree(1)
				unordered, err := p.Parent().IntercommMerge(true)
				if err != nil {
					b.Error(err)
					return
				}
				oldRank, _, err := RecvOne[int](unordered, 0, 5)
				if err != nil {
					b.Error(err)
					return
				}
				if _, err := unordered.Split(0, oldRank); err != nil {
					b.Error(err)
				}
				return
			}
			c := p.World()
			if c.Rank() == 3 || c.Rank() == 5 {
				p.Kill()
			}
			_ = c.Barrier()
			_ = c.Revoke()
			shrunk, err := c.Shrink()
			if err != nil {
				b.Error(err)
				return
			}
			failed := c.Group().Difference(shrunk.Group())
			failedRanks := make([]int, failed.Size())
			for j := range failedRanks {
				failedRanks[j] = c.Group().Rank(failed[j])
			}
			hosts, err := p.Cluster().SpawnHosts(failedRanks)
			if err != nil {
				b.Error(err)
				return
			}
			inter, err := shrunk.SpawnMultiple(len(failedRanks), hosts, 0)
			if err != nil {
				b.Error(err)
				return
			}
			unordered, err := inter.IntercommMerge(false)
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = inter.Agree(1)
			if unordered.Rank() == 0 {
				for j, fr := range failedRanks {
					if err := SendOne(unordered, shrunk.Size()+j, 5, fr); err != nil {
						b.Error(err)
						return
					}
				}
			}
			if _, err := unordered.Split(0, c.Rank()); err != nil {
				b.Error(err)
			}
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// stackSampler samples runtime.MemStats.StackInuse on a short period and
// keeps the maximum, quantifying the stack footprint of goroutine-per-rank
// versus parked continuations. ReadMemStats is a brief stop-the-world, so
// the period is coarse; the number is indicative, not a gate.
type stackSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startStackSampler() *stackSampler {
	s := &stackSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.StackInuse > s.peak.Load() {
				s.peak.Store(ms.StackInuse)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *stackSampler) peakKiB() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak.Load()) / 1024
}

// benchWeakScaling measures the collective stack at a given cluster scale:
// per Run, 5 rounds of Barrier + small Allreduce + 64 KiB Allreduce (the
// ring path) on the machine's default host shape. ns/op is simulator wall
// cost; the reported vs/op metric is the run's final virtual time — with
// the hierarchical collectives it should grow ~O(log nodes), not O(n).
// peak-goroutines and peak-stack-KiB quantify the blocking model's memory
// footprint against the event-driven path (benchWeakScalingEvent).
func benchWeakScaling(b *testing.B, machine func() *vtime.Machine, nprocs int) {
	b.Helper()
	b.ReportAllocs()
	var virt float64
	var peak int
	ss := startStackSampler()
	for i := 0; i < b.N; i++ {
		rep, err := Run(Options{NProcs: nprocs, Machine: machine(), Entry: func(p *Proc) {
			c := p.World()
			small := make([]float64, 16)
			big := make([]float64, 8192) // 64 KiB: past collRingCutover
			for k := 0; k < 5; k++ {
				if err := c.Barrier(); err != nil {
					b.Error(err)
					return
				}
				if _, err := Allreduce(c, small, Sum[float64]); err != nil {
					b.Error(err)
					return
				}
				if _, err := Allreduce(c, big, Sum[float64]); err != nil {
					b.Error(err)
					return
				}
			}
		}})
		if err != nil {
			b.Fatal(err)
		}
		virt = rep.MaxVirtualTime
		peak = rep.GoroutinesPeak
	}
	b.ReportMetric(ss.peakKiB(), "peak-stack-KiB")
	b.ReportMetric(virt, "vs/op")
	b.ReportMetric(float64(peak), "peak-goroutines")
}

// benchWeakScalingEvent is benchWeakScaling's exact workload on the
// event-driven path: same rounds, same algorithms, same tags — by the
// parity contract (TestEventVirtualTimeParity) vs/op is bit-identical to
// the blocking variant at the same scale, while peak-goroutines drops from
// O(ranks) to O(workers).
func benchWeakScalingEvent(b *testing.B, machine func() *vtime.Machine, nprocs int) {
	b.Helper()
	b.ReportAllocs()
	var virt float64
	var peak int
	ss := startStackSampler()
	for i := 0; i < b.N; i++ {
		rep, err := Run(Options{NProcs: nprocs, Machine: machine(), EventEntry: func(p *Proc, f *Fiber) {
			c := p.World()
			small := make([]float64, 16)
			big := make([]float64, 8192) // 64 KiB: past collRingCutover
			var round func(k int)
			round = func(k int) {
				if k == 5 {
					return
				}
				FiberBarrier(f, c, func(err error) {
					if err != nil {
						b.Error(err)
						return
					}
					FiberAllreduce(f, c, small, Sum[float64], func(_ []float64, err error) {
						if err != nil {
							b.Error(err)
							return
						}
						FiberAllreduce(f, c, big, Sum[float64], func(_ []float64, err error) {
							if err != nil {
								b.Error(err)
								return
							}
							round(k + 1)
						})
					})
				})
			}
			round(0)
		}})
		if err != nil {
			b.Fatal(err)
		}
		virt = rep.MaxVirtualTime
		peak = rep.GoroutinesPeak
	}
	b.ReportMetric(ss.peakKiB(), "peak-stack-KiB")
	b.ReportMetric(virt, "vs/op")
	b.ReportMetric(float64(peak), "peak-goroutines")
}

func BenchmarkWeakScaleOPL64(b *testing.B)      { benchWeakScaling(b, vtime.OPL, 64) }
func BenchmarkWeakScaleOPL512(b *testing.B)     { benchWeakScaling(b, vtime.OPL, 512) }
func BenchmarkWeakScaleOPL4096(b *testing.B)    { benchWeakScaling(b, vtime.OPL, 4096) }
func BenchmarkWeakScaleOPL8192(b *testing.B)    { benchWeakScaling(b, vtime.OPL, 8192) }
func BenchmarkWeakScaleRaijin64(b *testing.B)   { benchWeakScaling(b, vtime.Raijin, 64) }
func BenchmarkWeakScaleRaijin512(b *testing.B)  { benchWeakScaling(b, vtime.Raijin, 512) }
func BenchmarkWeakScaleRaijin4096(b *testing.B) { benchWeakScaling(b, vtime.Raijin, 4096) }
func BenchmarkWeakScaleRaijin8192(b *testing.B) { benchWeakScaling(b, vtime.Raijin, 8192) }

func BenchmarkWeakScaleEventOPL4096(b *testing.B)    { benchWeakScalingEvent(b, vtime.OPL, 4096) }
func BenchmarkWeakScaleEventOPL8192(b *testing.B)    { benchWeakScalingEvent(b, vtime.OPL, 8192) }
func BenchmarkWeakScaleEventRaijin4096(b *testing.B) { benchWeakScalingEvent(b, vtime.Raijin, 4096) }
func BenchmarkWeakScaleEventRaijin8192(b *testing.B) { benchWeakScalingEvent(b, vtime.Raijin, 8192) }

// benchWeakScalingRepair runs one full kill -> detect -> revoke -> shrink
// -> respawn -> merge -> split round per op at the given scale on the
// blocking path (two victims; the dance helpers from event_test.go do the
// protocol). Paired with benchWeakScalingEventRepair, it quantifies what
// the fiber respawn port buys: identical virtual time for the repair, with
// peak-goroutines dropping from O(ranks) to O(workers).
func benchWeakScalingRepair(b *testing.B, machine func() *vtime.Machine, nprocs int) {
	b.Helper()
	b.ReportAllocs()
	dead := func(r int) bool { return r == nprocs/4 || r == nprocs/2+1 }
	var virt float64
	var peak int
	for i := 0; i < b.N; i++ {
		d := newRepairDance()
		rep, err := Run(Options{NProcs: nprocs, Machine: machine(), Entry: func(p *Proc) {
			blockingRepairDance(b, p, dead, false, d)
		}})
		if err != nil {
			b.Fatal(err)
		}
		virt = rep.MaxVirtualTime
		peak = rep.GoroutinesPeak
	}
	b.ReportMetric(virt, "vs/op")
	b.ReportMetric(float64(peak), "peak-goroutines")
}

// benchWeakScalingEventRepair is benchWeakScalingRepair on the event path:
// same victims, same protocol through the Fiber* twins, with the respawned
// replacements re-attaching to the executor as fibers.
func benchWeakScalingEventRepair(b *testing.B, machine func() *vtime.Machine, nprocs int) {
	b.Helper()
	b.ReportAllocs()
	dead := func(r int) bool { return r == nprocs/4 || r == nprocs/2+1 }
	var virt float64
	var peak int
	for i := 0; i < b.N; i++ {
		d := newRepairDance()
		rep, err := Run(Options{NProcs: nprocs, Machine: machine(), EventEntry: func(p *Proc, f *Fiber) {
			eventRepairDance(b, p, f, dead, false, d)
		}})
		if err != nil {
			b.Fatal(err)
		}
		virt = rep.MaxVirtualTime
		peak = rep.GoroutinesPeak
	}
	b.ReportMetric(virt, "vs/op")
	b.ReportMetric(float64(peak), "peak-goroutines")
}

func BenchmarkWeakScaleRepairOPL512(b *testing.B)  { benchWeakScalingRepair(b, vtime.OPL, 512) }
func BenchmarkWeakScaleRepairOPL4096(b *testing.B) { benchWeakScalingRepair(b, vtime.OPL, 4096) }

func BenchmarkWeakScaleEventRepairOPL512(b *testing.B) {
	benchWeakScalingEventRepair(b, vtime.OPL, 512)
}
func BenchmarkWeakScaleEventRepairOPL4096(b *testing.B) {
	benchWeakScalingEventRepair(b, vtime.OPL, 4096)
}
