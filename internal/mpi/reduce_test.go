package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ftsg/internal/topo"
)

// Reduce takes ownership of its input: the tree folds into the caller's
// buffer and hands it on uncopied. The tests below hold that handoff to the
// results a copying reduction gives, to the allocations it saves, and (race
// builds, poison_race_test.go) to the poison a caller who keeps reading its
// input finds.

func (o pathOps) reduce(c *Comm, root int, data []float64, k func([]float64, error)) {
	if o.f == nil {
		k(Reduce(c, root, data, Sum[float64]))
		return
	}
	FiberReduce(o.f, c, root, data, Sum[float64], k)
}

func (o pathOps) allreduce(c *Comm, data []float64, k func([]float64, error)) {
	if o.f == nil {
		k(Allreduce(c, data, Sum[float64]))
		return
	}
	FiberAllreduce(o.f, c, data, Sum[float64], k)
}

// reduceInput is rank me's pooled contribution: values of mixed magnitude,
// so a changed fold order shows in the low bits of the sum.
func reduceInput(me, m int) []float64 {
	rng := rand.New(rand.NewSource(int64(me) + 1))
	data := AcquireBuf[float64](m)
	for i := range data {
		data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
	return data
}

// TestReduceConsumesInputBitIdentical checks on both execution paths, over a
// flat world and a hierarchical one with uneven nodes, that Reduce to rank 0
// gives the bits of Allreduce, which keeps the caller's buffer and folds
// copies through the same tree to rank 0. The root's result is its own
// input buffer: the accumulator was never copied.
func TestReduceConsumesInputBitIdentical(t *testing.T) {
	const n, m = 11, 512 // 4 KiB: under the ring cutover, so Allreduce takes the tree
	for _, flat := range []bool{true, false} {
		for _, event := range []bool{false, true} {
			t.Run(fmt.Sprintf("flat=%v/event=%v", flat, event), func(t *testing.T) {
				var got, want []float64 // rank 0's
				aliased := false
				opts := Options{NProcs: n, Cluster: topo.NewRacked(3, 4, 1), FlatCollectives: flat,
					EventWorkers: 2, Watchdog: stallFails()}
				runOnPath(t, opts, event, func(p *Proc, o pathOps) {
					c := p.World()
					me := c.Rank()
					if !flat && c.hierTopo() == nil {
						t.Error("the world is not hierarchical")
					}
					keep := reduceInput(me, m)
					o.allreduce(c, keep, func(all []float64, err error) {
						must(t, err)
						data := reduceInput(me, m)
						o.reduce(c, 0, data, func(red []float64, err error) {
							must(t, err)
							if me == 0 {
								got, want, aliased = red, all, sameArray(red, data)
							} else if red != nil {
								t.Errorf("rank %d: non-root Reduce returned %d values", me, len(red))
							}
						})
					})
				})
				if len(got) != m || len(want) != m {
					t.Fatalf("root received %d values from Reduce and %d from Allreduce, want %d", len(got), len(want), m)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("element %d: Reduce %v, Allreduce %v", i, got[i], want[i])
					}
				}
				if !aliased {
					t.Error("the root's result is not its own input buffer")
				}
			})
		}
	}
}

// TestReduceRoundAllocatesNoPayload pins the saving: on a persistent world
// whose ranks each contribute a 64 KiB pooled buffer per round and the root
// releases the result, a round after warm-up allocates no payload — no leaf
// copies its input, no interior node a received buffer. A barrier closes
// each round, so a leaf (whose sends never block) cannot run rounds ahead
// and hold more buffers than the warm-up pooled.
func TestReduceRoundAllocatesNoPayload(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build's sync.Pool drops items at random")
	}
	noGC(t)
	oneP(t)
	const n, m, warm, rounds = 8, 64 << 10 / 8, 4, 16
	for _, flat := range []bool{true, false} {
		t.Run(fmt.Sprintf("flat=%v", flat), func(t *testing.T) {
			var before, after runtime.MemStats
			opts := Options{NProcs: n, Cluster: topo.NewRacked(2, 4, 1), FlatCollectives: flat, Watchdog: stallFails()}
			runOnPath(t, opts, false, func(p *Proc, _ pathOps) {
				c := p.World()
				round := func() {
					data := AcquireBuf[float64](m)
					for i := range data {
						data[i] = float64(c.Rank())
					}
					red, err := Reduce(c, 0, data, Sum[float64])
					must(t, err)
					if c.Rank() == 0 {
						if red[m-1] != n*(n-1)/2 {
							t.Errorf("round sum %v, want %v", red[m-1], n*(n-1)/2)
						}
						ReleaseBuf(red)
					}
					must(t, c.Barrier())
				}
				for i := 0; i < warm; i++ {
					round()
				}
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				must(t, c.Barrier())
				for i := 0; i < rounds; i++ {
					round()
				}
				if c.Rank() == 0 {
					runtime.ReadMemStats(&after)
				}
			})
			if d := after.TotalAlloc - before.TotalAlloc; d >= m*8 {
				t.Errorf("%d rounds allocated %d bytes (%d objects), want less than one %d-byte payload",
					rounds, d, after.Mallocs-before.Mallocs, m*8)
			}
		})
	}
}
