package mpi

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftsg/internal/metrics"
	"ftsg/internal/vtime"
)

// The event-path contract, tested three ways: (1) a fiber program produces
// byte-identical virtual time and traffic counters to its blocking twin,
// with and without failures, and failure-free the same result data; (2) the fingerprint is schedule-independent
// across GOMAXPROCS and executor pool sizes; (3) a 512-rank world parked
// mid-Barrier holds O(workers) goroutines, not O(ranks).

// eventOutcome extracts the determinism fingerprint shared with the
// transport stress tests. GoroutinesPeak is deliberately excluded: it is
// wall-clock scheduling noise, not part of the contract.
func eventOutcome(rep *Report, reg *metrics.Registry) transportStressOutcome {
	return transportStressOutcome{
		maxTime:    rep.MaxVirtualTime,
		spawned:    rep.Spawned,
		failed:     rep.Failed,
		sentMsgs:   reg.Counter("mpi.sent.messages").Value(),
		sentB:      reg.Counter("mpi.sent.bytes").Value(),
		recvMsgs:   reg.Counter("mpi.recv.messages").Value(),
		recvB:      reg.Counter("mpi.recv.bytes").Value(),
		revokes:    reg.Counter("mpi.revokes").Value(),
		spawnedCtr: reg.Counter("mpi.spawned").Value(),
	}
}

// parityRounds is the shared workload of the parity tests: a neighbour
// ring exchange, a barrier, a small allreduce and a 64 KiB allreduce (past
// the ring cutover on hierarchical topologies), repeated three times. One
// round of the rooted and all-to-all collectives follows (see parityInputs).
const parityRounds = 3

// parityInputs are one rank's contributions to the round of rooted and
// all-to-all collectives that ends the parity workload: a Bcast from rank 1,
// a Reduce to rank 2, a Gather at rank 0, a small Allgather (the leader tree
// on hierarchical topologies) and a 64 KiB one (the leader ring). The values
// depend on the rank and the element, so a piece delivered to the wrong rank
// or slot, or folded in another order, changes the result data.
type parityInputs struct {
	bcast, reduce, gather, small, large []float64
}

func newParityInputs(me int) parityInputs {
	vals := func(m, salt int) []float64 {
		v := make([]float64, m)
		for i := range v {
			v[i] = float64(me*(salt+1)) + float64(i)/float64(salt+7)
		}
		return v
	}
	in := parityInputs{reduce: vals(24, 1), gather: vals(3+me%4, 2), small: vals(4, 3), large: vals(64, 4)}
	if me == 1 {
		in.bcast = vals(40, 5)
	}
	return in
}

// appendAll appends every piece of a per-rank result, in rank order.
func appendAll(d []float64, pieces [][]float64) []float64 {
	for _, piece := range pieces {
		d = append(d, piece...)
	}
	return d
}

// parityBlockingEntry runs the parity workload with blocking calls and leaves
// every result the rank received, in order, in out[rank].
func parityBlockingEntry(t *testing.T, p *Proc, out [][]float64) {
	c := p.World()
	n, me := c.Size(), c.Rank()
	ring := make([]float64, 32)
	small := make([]float64, 16)
	big := make([]float64, 8192)
	for i := range ring {
		ring[i] = float64(me) + float64(i)/32
		small[i%16] = float64(me) / float64(i+1)
	}
	var d []float64
	for k := 0; k < parityRounds; k++ {
		if err := Send(c, (me+1)%n, 7, ring); err != nil {
			t.Error(err)
			return
		}
		got, _, err := Recv[float64](c, (me-1+n)%n, 7)
		if err != nil {
			t.Error(err)
			return
		}
		if got[0] != float64((me-1+n)%n) {
			t.Errorf("rank %d round %d: ring got %v", me, k, got[0])
			return
		}
		d = append(d, got...)
		if err := c.Barrier(); err != nil {
			t.Error(err)
			return
		}
		sum, err := Allreduce(c, small, Sum[float64])
		if err != nil {
			t.Error(err)
			return
		}
		d = append(d, sum...)
		if _, err := Allreduce(c, big, Sum[float64]); err != nil {
			t.Error(err)
			return
		}
	}
	in := newParityInputs(me)
	b, err := Bcast(c, 1, in.bcast)
	if err != nil {
		t.Error(err)
		return
	}
	d = append(d, b...)
	r, err := Reduce(c, 2, in.reduce, Sum[float64])
	if err != nil {
		t.Error(err)
		return
	}
	d = append(d, r...)
	g, err := Gather(c, 0, in.gather)
	if err != nil {
		t.Error(err)
		return
	}
	d = appendAll(d, g)
	for _, mine := range [][]float64{in.small, in.large} {
		all, err := Allgather(c, mine)
		if err != nil {
			t.Error(err)
			return
		}
		d = appendAll(d, all)
	}
	out[me] = d
}

// fiberSteps runs each step in turn; a step calls next to continue, or
// returns without calling it to stop the sequence.
func fiberSteps(steps ...func(next func())) {
	var run func(i int)
	run = func(i int) {
		if i < len(steps) {
			steps[i](func() { run(i + 1) })
		}
	}
	run(0)
}

// parityEventEntry is parityBlockingEntry as a fiber, through the Fiber*
// twins of every call that blocks and FiberSend for the ring's sends.
func parityEventEntry(t *testing.T, p *Proc, f *Fiber, out [][]float64) {
	c := p.World()
	n, me := c.Size(), c.Rank()
	ring := make([]float64, 32)
	small := make([]float64, 16)
	big := make([]float64, 8192)
	for i := range ring {
		ring[i] = float64(me) + float64(i)/32
		small[i%16] = float64(me) / float64(i+1)
	}
	var d []float64
	ok := func(err error) bool {
		if err != nil {
			t.Error(err)
		}
		return err == nil
	}
	// keep appends a result and continues; keepAll does so for a per-rank
	// result.
	keep := func(next func()) func([]float64, error) {
		return func(got []float64, err error) {
			if ok(err) {
				d = append(d, got...)
				next()
			}
		}
	}
	keepAll := func(next func()) func([][]float64, error) {
		return func(got [][]float64, err error) {
			if ok(err) {
				d = appendAll(d, got)
				next()
			}
		}
	}
	in := newParityInputs(me)
	collectives := func() {
		fiberSteps(
			func(next func()) { FiberBcast(f, c, 1, in.bcast, keep(next)) },
			func(next func()) { FiberReduce(f, c, 2, in.reduce, Sum[float64], keep(next)) },
			func(next func()) { FiberGather(f, c, 0, in.gather, keepAll(next)) },
			func(next func()) { FiberAllgather(f, c, in.small, keepAll(next)) },
			func(next func()) { FiberAllgather(f, c, in.large, keepAll(next)) },
			func(func()) { out[me] = d },
		)
	}
	var round func(k int)
	round = func(k int) {
		if k == parityRounds {
			collectives()
			return
		}
		fiberSteps(
			func(next func()) {
				if ok(FiberSend(c, (me+1)%n, 7, ring)) {
					FiberRecv(f, c, (me-1+n)%n, 7, func(got []float64, _ Status, err error) { keep(next)(got, err) })
				}
			},
			func(next func()) {
				FiberBarrier(f, c, func(err error) {
					if ok(err) {
						next()
					}
				})
			},
			func(next func()) { FiberAllreduce(f, c, small, Sum[float64], keep(next)) },
			func(next func()) {
				FiberAllreduce(f, c, big, Sum[float64], func(_ []float64, err error) {
					if ok(err) {
						round(k + 1)
					}
				})
			},
		)
	}
	round(0)
}

// TestEventVirtualTimeParity runs the same failure-free workload once with
// goroutine-per-rank blocking calls and once as fibers, over both the flat
// and the hierarchical (tree + leader-ring) collective algorithms, and
// demands a bit-identical virtual time, identical traffic counters and, on
// every rank, the same received data bit for bit.
func TestEventVirtualTimeParity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nprocs int
		flat   bool
	}{
		{"flat32", 32, true},
		{"hier128", 128, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wd := Watchdog{Timeout: 60 * time.Second}
			regB, dataB := metrics.New(), make([][]float64, tc.nprocs)
			repB, err := Run(Options{NProcs: tc.nprocs, Machine: vtime.OPL(), FlatCollectives: tc.flat,
				Metrics: regB, Watchdog: wd,
				Entry: func(p *Proc) { parityBlockingEntry(t, p, dataB) }})
			if err != nil {
				t.Fatal(err)
			}
			regE, dataE := metrics.New(), make([][]float64, tc.nprocs)
			repE, err := Run(Options{NProcs: tc.nprocs, Machine: vtime.OPL(), FlatCollectives: tc.flat,
				Metrics: regE, Watchdog: wd,
				EventEntry: func(p *Proc, f *Fiber) { parityEventEntry(t, p, f, dataE) }})
			if err != nil {
				t.Fatal(err)
			}
			if t.Failed() {
				return
			}
			b, e := eventOutcome(repB, regB), eventOutcome(repE, regE)
			if e.maxTime != b.maxTime {
				t.Errorf("MaxVirtualTime: event %v != blocking %v", e.maxTime, b.maxTime)
			}
			if e.sentMsgs != b.sentMsgs || e.sentB != b.sentB || e.recvMsgs != b.recvMsgs || e.recvB != b.recvB {
				t.Errorf("traffic: event %+v != blocking %+v", e, b)
			}
			for r := range dataB {
				if len(dataB[r]) == 0 || !slices.Equal(dataE[r], dataB[r]) {
					t.Errorf("rank %d: event results (%d values) differ from blocking (%d values)", r, len(dataE[r]), len(dataB[r]))
					break
				}
			}
			if repE.GoroutinesPeak == 0 {
				t.Error("event run reported no goroutine peak sample")
			}
		})
	}
}

// repairDance records where every process (survivors and replacements)
// ended after a full communicator reconstruction.
type repairDance struct {
	mu         sync.Mutex
	finalRanks map[int]int // world rank -> final comm rank
	finalSize  int
}

func newRepairDance() *repairDance {
	return &repairDance{finalRanks: map[int]int{}}
}

func (d *repairDance) record(p *Proc, c *Comm) {
	d.mu.Lock()
	d.finalRanks[p.WorldRank()] = c.Rank()
	d.finalSize = c.Size()
	d.mu.Unlock()
}

const danceMergeTag = 4

// blockingRepairDance is the goroutine-path full repair dance (paper Figs.
// 2/3/5): kill the victims, detect, revoke, agree, shrink, respawn (or claim
// spares), merge, agree, split back to original ranks, barrier. Replacements
// enter through the child path.
func blockingRepairDance(t testing.TB, p *Proc, dead func(int) bool, claim bool, d *repairDance) {
	if pc := p.Parent(); pc != nil {
		_, _ = pc.Agree(1) // failure report is expected here in general
		unordered, err := pc.IntercommMerge(true)
		must(t, err)
		oldRank, _, err := RecvOne[int](unordered, 0, danceMergeTag)
		must(t, err)
		ordered, err := unordered.Split(0, oldRank)
		must(t, err)
		d.record(p, ordered)
		must(t, ordered.Barrier())
		return
	}
	c := p.World()
	if dead(c.Rank()) {
		p.Kill()
	}
	_ = c.Barrier() // detection point; non-uniform outcome is fine
	_ = c.Revoke()
	if flag, err := c.Agree(1); flag != 1 || err == nil {
		t.Errorf("Agree after failures: flag %d err %v", flag, err)
	}
	shrunk, err := c.Shrink()
	must(t, err)
	oldGroup, newGroup := c.Group(), shrunk.Group()
	failedGroup := oldGroup.Difference(newGroup)
	failedRanks := make([]int, failedGroup.Size())
	for i := range failedRanks {
		failedRanks[i] = oldGroup.Rank(failedGroup[i])
	}
	var inter *Comm
	if claim {
		inter, err = shrunk.ClaimSpares(len(failedRanks))
	} else {
		hosts, herr := p.Cluster().SpawnHosts(failedRanks)
		must(t, herr)
		inter, err = shrunk.SpawnMultiple(len(failedRanks), hosts, 0)
	}
	must(t, err)
	unordered, err := inter.IntercommMerge(false)
	must(t, err)
	_, err = inter.Agree(1)
	must(t, err)
	if unordered.Rank() == 0 {
		base := shrunk.Size()
		for i, fr := range failedRanks {
			must(t, SendOne(unordered, base+i, danceMergeTag, fr))
		}
	}
	ordered, err := unordered.Split(0, c.Rank())
	must(t, err)
	d.record(p, ordered)
	must(t, ordered.Barrier())
}

// eventRepairDance is blockingRepairDance as fibers: the same kill → detect
// → revoke → agree → shrink → respawn/claim → merge → agree → split round
// through the Fiber* twins, with respawned children (or claimed spares)
// attaching back as fibers on the same executor.
func eventRepairDance(t testing.TB, p *Proc, f *Fiber, dead func(int) bool, claim bool, d *repairDance) {
	finish := func(ordered *Comm) {
		d.record(p, ordered)
		FiberBarrier(f, ordered, func(err error) { must(t, err) })
	}
	if pc := p.Parent(); pc != nil {
		FiberAgree(f, pc, 1, func(int, error) { // failure report expected
			FiberIntercommMerge(f, pc, true, func(unordered *Comm, err error) {
				if !must512(t, err) {
					return
				}
				FiberRecvOne[int](f, unordered, 0, danceMergeTag, func(oldRank int, _ Status, err error) {
					if !must512(t, err) {
						return
					}
					FiberSplit(f, unordered, 0, oldRank, func(ordered *Comm, err error) {
						if !must512(t, err) {
							return
						}
						finish(ordered)
					})
				})
			})
		})
		return
	}
	c := p.World()
	if dead(c.Rank()) {
		p.Kill()
	}
	FiberBarrier(f, c, func(error) { // detection point; non-uniform outcome is fine
		_ = c.Revoke()
		FiberAgree(f, c, 1, func(flag int, err error) {
			if flag != 1 || err == nil {
				t.Errorf("Agree after failures: flag %d err %v", flag, err)
			}
			FiberShrink(f, c, func(shrunk *Comm, err error) {
				if !must512(t, err) {
					return
				}
				oldGroup, newGroup := c.Group(), shrunk.Group()
				failedGroup := oldGroup.Difference(newGroup)
				failedRanks := make([]int, failedGroup.Size())
				for i := range failedRanks {
					failedRanks[i] = oldGroup.Rank(failedGroup[i])
				}
				withInter := func(inter *Comm, err error) {
					if !must512(t, err) {
						return
					}
					FiberIntercommMerge(f, inter, false, func(unordered *Comm, err error) {
						if !must512(t, err) {
							return
						}
						FiberAgree(f, inter, 1, func(_ int, err error) {
							if !must512(t, err) {
								return
							}
							if unordered.Rank() == 0 {
								base := shrunk.Size()
								for i, fr := range failedRanks {
									if err := FiberSendOne(unordered, base+i, danceMergeTag, fr); err != nil {
										t.Error(err)
										return
									}
								}
							}
							FiberSplit(f, unordered, 0, c.Rank(), func(ordered *Comm, err error) {
								if !must512(t, err) {
									return
								}
								finish(ordered)
							})
						})
					})
				}
				if claim {
					FiberClaimSpares(f, shrunk, len(failedRanks), withInter)
					return
				}
				hosts, err := p.Cluster().SpawnHosts(failedRanks)
				if !must512(t, err) {
					return
				}
				FiberSpawnMultiple(f, shrunk, len(failedRanks), hosts, 0, withInter)
			})
		})
	})
}

// checkDance verifies the reconstructed communicator: full size, survivors
// on their original ranks, replacements (world ranks nprocs..) on the failed
// ranks.
func checkDance(t *testing.T, d *repairDance, nprocs int, dead func(int) bool) {
	t.Helper()
	if d.finalSize != nprocs {
		t.Fatalf("reconstructed size = %d, want %d", d.finalSize, nprocs)
	}
	var failed []int
	for wr := 0; wr < nprocs; wr++ {
		if dead(wr) {
			failed = append(failed, wr)
			continue
		}
		if d.finalRanks[wr] != wr {
			t.Errorf("survivor world %d has rank %d", wr, d.finalRanks[wr])
		}
	}
	for i, fr := range failed {
		if got := d.finalRanks[nprocs+i]; got != fr {
			t.Errorf("replacement world %d got rank %d, want %d", nprocs+i, got, fr)
		}
	}
}

// TestEventFailureParity kills two ranks and runs the full repair round —
// kill → detect → revoke → agree → shrink → respawn → merge → agree → split
// — in both modes: the failure verdicts, the dynamic-spawn costs, the
// child-attach protocol and the reconstructed communicator must leave both
// paths at the same virtual time with the same counters, failed set and
// final rank mapping.
func TestEventFailureParity(t *testing.T) {
	const nprocs = 64
	wd := Watchdog{Timeout: 60 * time.Second}
	dead := func(me int) bool { return me == 9 || me == 23 }

	regB, dB := metrics.New(), newRepairDance()
	repB, err := Run(Options{NProcs: nprocs, Machine: vtime.OPL(), Metrics: regB, Watchdog: wd,
		Entry: func(p *Proc) { blockingRepairDance(t, p, dead, false, dB) }})
	if err != nil {
		t.Fatal(err)
	}
	regE, dE := metrics.New(), newRepairDance()
	repE, err := Run(Options{NProcs: nprocs, Machine: vtime.OPL(), Metrics: regE, Watchdog: wd,
		EventEntry: func(p *Proc, f *Fiber) { eventRepairDance(t, p, f, dead, false, dE) }})
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	checkDance(t, dB, nprocs, dead)
	checkDance(t, dE, nprocs, dead)
	if repB.Spawned != 2 || repE.Spawned != 2 {
		t.Errorf("Spawned: blocking %d, event %d, want 2", repB.Spawned, repE.Spawned)
	}
	b, e := eventOutcome(repB, regB), eventOutcome(repE, regE)
	if e.maxTime != b.maxTime {
		t.Errorf("MaxVirtualTime: event %v != blocking %v", e.maxTime, b.maxTime)
	}
	if len(e.failed) != 2 || len(b.failed) != 2 {
		t.Errorf("failed sets: event %v, blocking %v", e.failed, b.failed)
	}
	if e.sentMsgs != b.sentMsgs || e.sentB != b.sentB || e.recvMsgs != b.recvMsgs || e.recvB != b.recvB ||
		e.revokes != b.revokes || e.spawnedCtr != b.spawnedCtr {
		t.Errorf("counters: event %+v != blocking %+v", e, b)
	}
}

// TestEventClaimSparesParity is TestEventFailureParity for the substitute
// mode's repair round: claimed spares wake as fibers, attach through the
// same merge/agree/split protocol, and both paths agree bit-for-bit.
func TestEventClaimSparesParity(t *testing.T) {
	const nprocs = 16
	const spares = 4
	wd := Watchdog{Timeout: 60 * time.Second}
	dead := func(me int) bool { return me == 3 || me == 11 }

	regB, dB := metrics.New(), newRepairDance()
	repB, err := Run(Options{NProcs: nprocs, SpareRanks: spares, Machine: vtime.OPL(), Metrics: regB, Watchdog: wd,
		Entry: func(p *Proc) { blockingRepairDance(t, p, dead, true, dB) }})
	if err != nil {
		t.Fatal(err)
	}
	regE, dE := metrics.New(), newRepairDance()
	repE, err := Run(Options{NProcs: nprocs, SpareRanks: spares, Machine: vtime.OPL(), Metrics: regE, Watchdog: wd,
		EventEntry: func(p *Proc, f *Fiber) { eventRepairDance(t, p, f, dead, true, dE) }})
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	checkDance(t, dB, nprocs, dead)
	checkDance(t, dE, nprocs, dead)
	if repB.SparesUsed != 2 || repE.SparesUsed != 2 {
		t.Errorf("SparesUsed: blocking %d, event %d, want 2", repB.SparesUsed, repE.SparesUsed)
	}
	b, e := eventOutcome(repB, regB), eventOutcome(repE, regE)
	if e.maxTime != b.maxTime {
		t.Errorf("MaxVirtualTime: event %v != blocking %v", e.maxTime, b.maxTime)
	}
	if e.sentMsgs != b.sentMsgs || e.sentB != b.sentB || e.recvMsgs != b.recvMsgs || e.recvB != b.recvB {
		t.Errorf("counters: event %+v != blocking %+v", e, b)
	}
}

// runEventStress512 is the event-path analogue of runTransportStress512:
// 512 ranks on the OPL profile, a ring exchange, hierarchical collectives,
// two mid-run failures and the detect/revoke/agree sequence — all as
// fibers on a bounded executor.
func runEventStress512(t *testing.T, workers int) transportStressOutcome {
	t.Helper()
	const nprocs = 512
	reg := metrics.New()
	wd := Watchdog{Timeout: 120 * time.Second}
	rep, err := Run(Options{NProcs: nprocs, Machine: vtime.OPL(), Metrics: reg, Watchdog: wd,
		EventWorkers: workers,
		EventEntry: func(p *Proc, f *Fiber) {
			c := p.World()
			n, me := c.Size(), c.Rank()
			buf := make([]float64, 32)
			for i := range buf {
				buf[i] = float64(me) + float64(i)/32
			}
			if err := Send(c, (me+1)%n, 9, buf); err != nil {
				t.Error(err)
				return
			}
			FiberRecv(f, c, (me-1+n)%n, 9, func(got []float64, _ Status, err error) {
				if !must512(t, err) {
					return
				}
				if got[0] != float64((me-1+n)%n) {
					t.Errorf("rank %d: ring got %v", me, got[0])
					return
				}
				FiberAllreduce(f, c, []int{me}, Sum[int], func(sum []int, err error) {
					if !must512(t, err) {
						return
					}
					if sum[0] != n*(n-1)/2 {
						t.Errorf("allreduce: %d, want %d", sum[0], n*(n-1)/2)
						return
					}
					FiberBarrier(f, c, func(err error) {
						if !must512(t, err) {
							return
						}
						if me == 100 || me == 301 {
							p.Kill()
						}
						FiberBarrier(f, c, func(error) { // detection point
							_ = c.Revoke()
							FiberAgree(f, c, 1, func(flag int, err error) {
								if flag != 1 {
									t.Errorf("Agree: flag %d, want 1", flag)
								}
								if err == nil {
									t.Error("Agree after failures: want error, got nil")
								}
							})
						})
					})
				})
			})
		}})
	if err != nil {
		t.Fatal(err)
	}
	return eventOutcome(rep, reg)
}

// TestEventTransportDeterminism512 sweeps the two schedule dimensions the
// event path adds — GOMAXPROCS and the executor pool size (1 worker runs
// fully inline; 0 means per-CPU) — and demands the bit-identical
// fingerprint the goroutine-path determinism tests demand.
func TestEventTransportDeterminism512(t *testing.T) {
	settings := []struct{ gmp, workers int }{
		{1, 1},
		{runtime.NumCPU(), 0},
		{runtime.NumCPU(), 3},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var base transportStressOutcome
	for i, s := range settings {
		runtime.GOMAXPROCS(s.gmp)
		got := runEventStress512(t, s.workers)
		if t.Failed() {
			return
		}
		if i == 0 {
			base = got
			if len(got.failed) != 2 || got.revokes == 0 {
				t.Fatalf("unexpected baseline outcome: %+v", got)
			}
			continue
		}
		if got.maxTime != base.maxTime {
			t.Errorf("GOMAXPROCS=%d workers=%d: MaxVirtualTime %v != %v", s.gmp, s.workers, got.maxTime, base.maxTime)
		}
		if got.sentMsgs != base.sentMsgs || got.sentB != base.sentB {
			t.Errorf("GOMAXPROCS=%d workers=%d: sent %d/%d != %d/%d", s.gmp, s.workers, got.sentMsgs, got.sentB, base.sentMsgs, base.sentB)
		}
		if got.recvMsgs != base.recvMsgs || got.recvB != base.recvB {
			t.Errorf("GOMAXPROCS=%d workers=%d: recv %d/%d != %d/%d", s.gmp, s.workers, got.recvMsgs, got.recvB, base.recvMsgs, base.recvB)
		}
		if got.revokes != base.revokes || len(got.failed) != len(base.failed) {
			t.Errorf("GOMAXPROCS=%d workers=%d: %+v != %+v", s.gmp, s.workers, got, base)
		}
	}
}

// TestEventGoroutineCeiling holds a 512-rank event world mid-Barrier (rank
// 0 waits on an external release flag; every other rank is parked inside
// FiberBarrier) and asserts the process holds O(workers) goroutines — the
// point of the event path. The goroutine-per-rank path would hold >512
// here.
func TestEventGoroutineCeiling(t *testing.T) {
	const nprocs = 512
	const workers = 4
	var release atomic.Bool
	in := &Introspection{}
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := Run(Options{NProcs: nprocs, Machine: vtime.OPL(), EventWorkers: workers,
			Introspect: in, Watchdog: Watchdog{Timeout: 120 * time.Second},
			EventEntry: func(p *Proc, f *Fiber) {
				c := p.World()
				barrier := func() {
					FiberBarrier(f, c, func(err error) {
						if err != nil {
							t.Error(err)
						}
					})
				}
				if c.Rank() != 0 {
					barrier()
					return
				}
				// A custom await on an external condition: the poll must
				// start the barrier itself before resolving, or the fiber
				// would finish with nothing armed.
				f.await(opAny, func() bool {
					if !release.Load() {
						return false
					}
					barrier()
					return true
				})
			}})
		done <- result{rep, err}
	}()

	// Wait until every rank but rank 0 is parked inside the barrier (rank 0
	// may be parked on its release await or not yet dispatched).
	deadline := time.Now().Add(60 * time.Second)
	for {
		snaps := in.Snapshots()
		if len(snaps) == 1 && snaps[0].RanksParked >= nprocs-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for ranks to park")
		}
		time.Sleep(time.Millisecond)
	}
	if ng := runtime.NumGoroutine(); ng >= nprocs/4 {
		t.Errorf("mid-Barrier NumGoroutine = %d: event path must hold O(workers), not O(ranks)", ng)
	}

	// Snapshot must render parked fibers the way it renders blocked
	// goroutines: a rank parked in the barrier's internal receive shows the
	// recv descriptor; all parked ranks are flagged.
	snap := in.Snapshots()[0]
	parked := 0
	for _, rs := range snap.Ranks {
		if rs.Parked {
			parked++
		}
	}
	if parked < nprocs-1 {
		t.Errorf("snapshot shows %d parked ranks, want >= %d", parked, nprocs-1)
	}

	release.Store(true)
	in.mu.Lock()
	w := in.worlds[0]
	in.mu.Unlock()
	w.proc(0).wake()

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if t.Failed() {
		return
	}
	if res.rep.GoroutinesPeak == 0 || res.rep.GoroutinesPeak >= nprocs/4 {
		t.Errorf("GoroutinesPeak = %d: want a small non-zero O(workers) value", res.rep.GoroutinesPeak)
	}
}

// TestEventExecutorAttachDuringRetire pins the reserve-before-attach
// shutdown protocol: a sole-member world spawns a child and retires
// immediately, so there is a window where every pre-existing fiber has
// called fiberDone while the child is reserved but not yet dispatched.
// Without the reservation step the pool would observe active == 0 in that
// window, flip done, and either lose the child or panic on its attach; with
// it the pool stays up until the child itself retires.
func TestEventExecutorAttachDuringRetire(t *testing.T) {
	var childRan atomic.Bool
	rep, err := Run(Options{NProcs: 1, EventWorkers: 1, EventEntry: func(p *Proc, f *Fiber) {
		if p.Parent() != nil {
			childRan.Store(true)
			return
		}
		FiberSpawnMultiple(f, p.World(), 1, []string{""}, 0, func(_ *Comm, err error) {
			must(t, err)
			// Retire without waiting for the child: no merge, no barrier.
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !childRan.Load() {
		t.Fatal("spawned child never ran: executor shut down mid-attach")
	}
	if rep.Spawned != 1 {
		t.Errorf("Spawned = %d, want 1", rep.Spawned)
	}
}

// TestEventSpawnMergeSplitRepairDance is TestSpawnMergeSplitRepairDance on
// the event path — the direct replacement for the retired spawn-rejection
// guard: kill ranks 3 and 5 of a 7-rank fiber world, run the full
// reconstruction, and end with every process holding its original rank in a
// full-size communicator, with the replacements running as fibers.
func TestEventSpawnMergeSplitRepairDance(t *testing.T) {
	const nprocs = 7
	dead := func(me int) bool { return me == 3 || me == 5 }
	d := newRepairDance()
	rep, err := Run(Options{NProcs: nprocs, EventEntry: func(p *Proc, f *Fiber) {
		eventRepairDance(t, p, f, dead, false, d)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	if len(rep.Failed) != 2 || rep.Spawned != 2 {
		t.Fatalf("failed %v spawned %d", rep.Failed, rep.Spawned)
	}
	checkDance(t, d, nprocs, dead)
}

// TestEvent8192RepairSmoke runs the full kill -> detect -> revoke -> shrink
// -> respawn -> merge -> split dance at 8192 ranks on the event path and
// checks the scaling promise that justifies the port: the goroutine
// high-water mark stays O(workers) — the bounded executor pool plus runtime
// and harness overhead — not O(ranks), and the dance still repairs the
// world exactly (replacements re-attach as fibers, survivors keep their
// ranks).
func TestEvent8192RepairSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("8192-rank repair smoke skipped in -short")
	}
	const nprocs = 8192
	const workers = 8
	dead := func(r int) bool { return r == 1000 || r == 5000 }
	d := newRepairDance()
	rep, err := Run(Options{NProcs: nprocs, Machine: vtime.OPL(), EventWorkers: workers, EventEntry: func(p *Proc, f *Fiber) {
		eventRepairDance(t, p, f, dead, false, d)
	}})
	if err != nil {
		t.Fatal(err)
	}
	checkDance(t, d, nprocs, dead)
	if rep.Spawned != 2 {
		t.Errorf("Spawned = %d, want 2", rep.Spawned)
	}
	if len(rep.Failed) != 2 {
		t.Errorf("Failed = %v, want two ranks", rep.Failed)
	}
	if rep.GoroutinesPeak >= nprocs/8 {
		t.Errorf("GoroutinesPeak = %d at %d ranks with %d workers: not O(workers)",
			rep.GoroutinesPeak, nprocs, workers)
	}
}
