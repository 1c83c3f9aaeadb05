package mpi

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"ftsg/internal/metrics"
	"ftsg/internal/vtime"
)

func (o pathOps) bcast(c *Comm, root int, data []float64, k func([]float64, error)) {
	if o.f == nil {
		k(Bcast(c, root, data))
		return
	}
	FiberBcast(o.f, c, root, data, k)
}

func (o pathOps) allgather(c *Comm, data []float64, k func([][]float64, error)) {
	if o.f == nil {
		k(Allgather(c, data))
		return
	}
	FiberAllgather(o.f, c, data, k)
}

// lendRanks is the world of the lent-result tests: 20 of the paper's
// 12-slot hosts, so every collective runs its hierarchical form and a
// 40 KiB Allreduce takes the leader ring (TestWhichAllreduceTheRingSizeTakes).
const lendRanks = 240

// lendOps are the collectives whose result is lent, each moving about
// 40 KiB of float64s (the tree Allreduce 16 KiB, below collRingCutover).
// round runs one call on c and checks what it returns.
// vt, msgs and bytes are a run of four rounds' virtual end time and
// message and byte counts, the same on both paths and pinned from the
// private-copy transport that lending replaced.
var lendOps = []struct {
	name        string
	payload     int // elements of the result
	round       func(t *testing.T, o pathOps, c *Comm, in []float64, next func())
	vt          float64
	msgs, bytes int64
}{
	{"bcast", 5120, func(t *testing.T, o pathOps, c *Comm, _ []float64, next func()) {
		const root = lendRanks/2 + 5
		var data []float64
		if c.Rank() == root {
			data = make([]float64, 5120)
			for i := range data {
				data[i] = float64(i)
			}
		}
		o.bcast(c, root, data, func(got []float64, err error) {
			must(t, err)
			if len(got) != 5120 || got[1] != 1 || got[5119] != 5119 {
				t.Errorf("rank %d: bcast result of %d elements", c.Rank(), len(got))
			}
			next()
		})
	}, 0x1.999878fa6b2a2p-14, 956, 39157760},
	{"allreduce_tree", 2048, allreduceRound, 0x1.73f7e447a6aaap-12, 1912, 31326208},
	{"allreduce_ring", 5120, allreduceRound, 0x1.6eb42187f58f6p-11, 4800, 78315520},
	{"allgather", 21 * lendRanks, func(t *testing.T, o pathOps, c *Comm, in []float64, next func()) {
		o.allgather(c, in, func(all [][]float64, err error) {
			must(t, err)
			if len(all) != lendRanks || all[7][0] != 7 || all[lendRanks-1][20] != lendRanks-1 {
				t.Errorf("rank %d: allgather result of %d pieces", c.Rank(), len(all))
			}
			next()
		})
	}, 0x1.8e0a9d4f7521p-12, 1912, 38846976},
}

func allreduceRound(t *testing.T, o pathOps, c *Comm, in []float64, next func()) {
	o.allreduce(c, in, func(sum []float64, err error) {
		must(t, err)
		if len(sum) != len(in) || sum[0] != lendRanks || sum[len(in)-1] != lendRanks {
			t.Errorf("rank %d: allreduce result %v of %d elements", c.Rank(), sum[0], len(sum))
		}
		next()
	})
}

// lendInput is rank me's contribution to op: all ones for an Allreduce,
// 21 copies of me for the Allgather.
func lendInput(name string, payload, me int) []float64 {
	m := payload
	v := 1.0
	if name == "allgather" {
		m, v = payload/lendRanks, float64(me)
	}
	in := make([]float64, m)
	for i := range in {
		in[i] = v
	}
	return in
}

// lendRun runs rounds calls of lendOps[op] on every rank and returns the
// bytes the run allocated, its virtual end time and its message counters.
func lendRun(t *testing.T, event bool, op, rounds int) (alloc uint64, vt float64, msgs, bytes int64) {
	t.Helper()
	spec := lendOps[op]
	reg := metrics.New()
	opts := Options{NProcs: lendRanks, Machine: vtime.OPL(), Metrics: reg, EventWorkers: 2, Watchdog: stallFails()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := runOnPath(t, opts, event, func(p *Proc, o pathOps) {
		c := p.World()
		in := lendInput(spec.name, spec.payload, c.Rank())
		o.loop(rounds, func(_ int, next func()) { spec.round(t, o, c, in, next) }, func() {})
	})
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, rep.MaxVirtualTime,
		reg.Counter("mpi.sent.messages").Value(), reg.Counter("mpi.sent.bytes").Value()
}

// TestCollectiveResultIsOneArray checks that a Bcast, a tree and a ring
// Allreduce and an Allgather on a 240-rank hierarchical world allocate
// their result once, not once per member. With the collector off, the
// bytes that four more rounds of a call add to a run, per round, stay below
// an eighth of a private copy per member (240 payloads, what each read
// before results were lent); the ring's node leaders each fold their own
// accumulator (20 payloads), and every Allgather member also holds its own
// slice-per-rank view of the shared array. Both execution paths; lending
// moves no charge, so virtual time and message and byte counts stay pinned.
func TestCollectiveResultIsOneArray(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build's sync.Pool drops items at random")
	}
	noGC(t)
	oneP(t)
	const rounds = 4
	for _, event := range []bool{false, true} {
		for op, spec := range lendOps {
			t.Run(fmt.Sprintf("%s/event=%v", spec.name, event), func(t *testing.T) {
				lendRun(t, event, op, 2*rounds) // warm the pools
				base, vt, msgs, bytes := lendRun(t, event, op, rounds)
				more, _, _, _ := lendRun(t, event, op, 2*rounds)
				perRound := float64(int64(more)-int64(base)) / rounds
				payload := float64(spec.payload * 8)
				bound := lendRanks * payload / 8
				if spec.name == "allgather" {
					bound += lendRanks * lendRanks * float64(unsafe.Sizeof([]float64(nil)))
				}
				t.Logf("%.0f bytes per round (%.2f payloads), bound %.0f", perRound, perRound/payload, bound)
				if perRound > bound {
					t.Errorf("a round allocated %.0f bytes (%.1f payloads), want <= %.0f", perRound, perRound/payload, bound)
				}
				if vt != spec.vt || msgs != spec.msgs || bytes != spec.bytes {
					t.Errorf("virtual end %x, %d messages, %d bytes; want %x, %d, %d", vt, msgs, bytes, spec.vt, spec.msgs, spec.bytes)
				}
			})
		}
	}
}
