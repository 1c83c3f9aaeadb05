package mpi

import (
	"runtime"
	"testing"
	"time"

	"ftsg/internal/metrics"
	"ftsg/internal/vtime"
)

// transportStressOutcome is everything the determinism contract promises:
// the virtual-time result and every integer traffic counter must be
// identical no matter how the goroutines were actually scheduled.
type transportStressOutcome struct {
	maxTime             float64
	spawned             int
	failed              []int
	sentMsgs, sentB     int64
	recvMsgs, recvB     int64
	revokes, spawnedCtr int64
}

// exchangeAll sends parts[r] to every other rank r of c and returns the part
// each rank sent to the caller, in rank order: the all-pairs exchange as
// plain Send/Recv, every send first (the transport buffers eagerly).
func exchangeAll(c *Comm, tag int, parts [][]float64) ([][]float64, error) {
	me := c.Rank()
	for r, part := range parts {
		if r != me {
			if err := Send(c, r, tag, part); err != nil {
				return nil, err
			}
		}
	}
	out := make([][]float64, len(parts))
	out[me] = parts[me]
	for r := range out {
		if r != me {
			got, _, err := Recv[float64](c, r, tag)
			if err != nil {
				return nil, err
			}
			out[r] = got
		}
	}
	return out, nil
}

// runTransportStress is one full 64-rank workload: an all-pairs exchange,
// then the paper's repair dance (two ranks die; Barrier detects; Revoke,
// Shrink, SpawnMultiple, IntercommMerge, Agree, Split rebuild the world),
// then a second all-pairs exchange on the repaired communicator.
func runTransportStress(t *testing.T) transportStressOutcome {
	t.Helper()
	const nprocs = 64
	const chunk = 48 // floats per pairwise message

	finalPhase := func(repaired *Comm) {
		n := repaired.Size()
		me := repaired.Rank()
		parts := make([][]float64, n)
		for r := range parts {
			parts[r] = make([]float64, chunk)
			for k := range parts[r] {
				parts[r][k] = float64(me*n+r) + float64(k)/chunk
			}
		}
		out, err := exchangeAll(repaired, 1, parts)
		must(t, err)
		for r := range out {
			want := float64(r*n+me) + float64(chunk-1)/chunk
			if out[r][chunk-1] != want {
				t.Errorf("repaired exchange: from %d got %v, want %v", r, out[r][chunk-1], want)
				return
			}
		}
		sum, err := Allreduce(repaired, []int{me}, Sum[int])
		must(t, err)
		if sum[0] != n*(n-1)/2 {
			t.Errorf("repaired allreduce: %d, want %d", sum[0], n*(n-1)/2)
		}
		// A ring of RecvInto on the repaired communicator, replacements
		// included; even ranks use Recv, and neither form may show in the
		// virtual time or the counters.
		must(t, Send(repaired, (me+1)%n, 9, parts[me]))
		row := make([]float64, chunk)
		if me%2 == 1 {
			_, err = RecvInto(repaired, (me-1+n)%n, 9, row)
		} else {
			row, _, err = Recv[float64](repaired, (me-1+n)%n, 9)
		}
		must(t, err)
		if prev := (me - 1 + n) % n; err == nil && row[0] != float64(prev*n+prev) {
			t.Errorf("repaired ring: from %d got %v", prev, row[0])
		}
	}

	reg := metrics.New()
	// Fail-fast watchdog: a transport hang dumps every rank's blocked-op
	// state after 60s (generous for -race) instead of timing the package out.
	wd := Watchdog{Timeout: 60 * time.Second}
	rep, err := Run(Options{NProcs: nprocs, Machine: vtime.OPL(), Metrics: reg, Watchdog: wd, Entry: func(p *Proc) {
		if p.Parent() != nil {
			// Replacement process: rejoin exactly as the paper's Fig. 3.
			_, _ = p.Parent().Agree(1)
			unordered, err := p.Parent().IntercommMerge(true)
			if err != nil {
				t.Error(err)
				return
			}
			oldRank, _, err := RecvOne[int](unordered, 0, 5)
			if err != nil {
				t.Error(err)
				return
			}
			repaired, err := unordered.Split(0, oldRank)
			if err != nil {
				t.Error(err)
				return
			}
			finalPhase(repaired)
			return
		}
		c := p.World()
		me := c.Rank()

		// Phase 1: dense all-pairs exchange across the full world.
		parts := make([][]float64, nprocs)
		for r := range parts {
			parts[r] = make([]float64, chunk)
			for k := range parts[r] {
				parts[r][k] = float64(me) + float64(r)*0.001 + float64(k)
			}
		}
		out, err := exchangeAll(c, 1, parts)
		must(t, err)
		for r := range out {
			if out[r][0] != float64(r)+float64(me)*0.001 {
				t.Errorf("exchange: from %d got %v", r, out[r][0])
				return
			}
		}

		// Phase 2: two failures and the full repair dance.
		if me == 3 || me == 5 {
			p.Kill()
		}
		_ = c.Barrier() // detection point
		_ = c.Revoke()
		shrunk, err := c.Shrink()
		if err != nil {
			t.Error(err)
			return
		}
		failed := c.Group().Difference(shrunk.Group())
		failedRanks := make([]int, failed.Size())
		for j := range failedRanks {
			failedRanks[j] = c.Group().Rank(failed[j])
		}
		hosts, err := p.Cluster().SpawnHosts(failedRanks)
		if err != nil {
			t.Error(err)
			return
		}
		inter, err := shrunk.SpawnMultiple(len(failedRanks), hosts, 0)
		if err != nil {
			t.Error(err)
			return
		}
		unordered, err := inter.IntercommMerge(false)
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = inter.Agree(1)
		if unordered.Rank() == 0 {
			for j, fr := range failedRanks {
				if err := SendOne(unordered, shrunk.Size()+j, 5, fr); err != nil {
					t.Error(err)
					return
				}
			}
		}
		repaired, err := unordered.Split(0, me)
		if err != nil {
			t.Error(err)
			return
		}
		finalPhase(repaired)
	}})
	if err != nil {
		t.Fatal(err)
	}
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

// TestTransportStressDeterminism runs the stress workload at several
// GOMAXPROCS settings and demands bit-identical virtual time and identical
// traffic counters: parallelising the transport must change wall-clock
// behaviour only. Run under -race in CI, this also shakes out data races in
// the sharded mailbox and rendezvous paths.
func TestTransportStressDeterminism(t *testing.T) {
	settings := []int{1, 4, runtime.NumCPU()}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var base transportStressOutcome
	for i, gmp := range settings {
		runtime.GOMAXPROCS(gmp)
		got := runTransportStress(t)
		if t.Failed() {
			return
		}
		if i == 0 {
			base = got
			if got.spawned != 2 || got.spawnedCtr != 2 || got.revokes == 0 {
				t.Fatalf("unexpected baseline outcome: %+v", got)
			}
			continue
		}
		if got.maxTime != base.maxTime {
			t.Errorf("GOMAXPROCS=%d: MaxVirtualTime %v != %v", gmp, got.maxTime, base.maxTime)
		}
		if got.sentMsgs != base.sentMsgs || got.sentB != base.sentB {
			t.Errorf("GOMAXPROCS=%d: sent %d/%d != %d/%d", gmp, got.sentMsgs, got.sentB, base.sentMsgs, base.sentB)
		}
		if got.recvMsgs != base.recvMsgs || got.recvB != base.recvB {
			t.Errorf("GOMAXPROCS=%d: recv %d/%d != %d/%d", gmp, got.recvMsgs, got.recvB, base.recvMsgs, base.recvB)
		}
		if got.revokes != base.revokes || got.spawnedCtr != base.spawnedCtr {
			t.Errorf("GOMAXPROCS=%d: revokes/spawned %d/%d != %d/%d",
				gmp, got.revokes, got.spawnedCtr, base.revokes, base.spawnedCtr)
		}
		if got.spawned != base.spawned || len(got.failed) != len(base.failed) {
			t.Errorf("GOMAXPROCS=%d: report %+v != %+v", gmp, got, base)
		}
	}
}

// runTransportStress512 is the weak-scaling variant of the stress
// workload: 512 ranks on the OPL profile (43 hosts), a neighbour ring
// exchange instead of the quadratic all-to-all, the full two-failure
// repair dance, and hierarchical collectives before and after the repair.
func runTransportStress512(t *testing.T) transportStressOutcome {
	t.Helper()
	const nprocs = 512
	const chunk = 32

	ringPhase := func(c *Comm, p *Proc) bool {
		n := c.Size()
		me := c.Rank()
		buf := make([]float64, chunk)
		for k := range buf {
			buf[k] = float64(me) + float64(k)/chunk
		}
		if err := Send(c, (me+1)%n, 9, buf); err != nil {
			t.Error(err)
			return false
		}
		// Odd ranks receive into their own buffer: the two receive forms must
		// be indistinguishable to virtual time and the traffic counters.
		got := make([]float64, chunk)
		var err error
		if me%2 == 1 {
			_, err = RecvInto(c, (me-1+n)%n, 9, got)
		} else {
			got, _, err = Recv[float64](c, (me-1+n)%n, 9)
		}
		if err != nil {
			t.Error(err)
			return false
		}
		if got[0] != float64((me-1+n)%n) {
			t.Errorf("ring: rank %d got %v", me, got[0])
			return false
		}
		sum, err := Allreduce(c, []int{me}, Sum[int])
		if err != nil {
			t.Error(err)
			return false
		}
		if sum[0] != n*(n-1)/2 {
			t.Errorf("allreduce: %d, want %d", sum[0], n*(n-1)/2)
			return false
		}
		return must512(t, c.Barrier())
	}

	reg := metrics.New()
	wd := Watchdog{Timeout: 120 * time.Second}
	rep, err := Run(Options{NProcs: nprocs, Machine: vtime.OPL(), Metrics: reg, Watchdog: wd, Entry: func(p *Proc) {
		if p.Parent() != nil {
			_, _ = p.Parent().Agree(1)
			unordered, err := p.Parent().IntercommMerge(true)
			if err != nil {
				t.Error(err)
				return
			}
			oldRank, _, err := RecvOne[int](unordered, 0, 5)
			if err != nil {
				t.Error(err)
				return
			}
			repaired, err := unordered.Split(0, oldRank)
			if err != nil {
				t.Error(err)
				return
			}
			ringPhase(repaired, p)
			return
		}
		c := p.World()
		me := c.Rank()
		if !ringPhase(c, p) {
			return
		}

		if me == 100 || me == 301 {
			p.Kill()
		}
		_ = c.Barrier() // detection point
		_ = c.Revoke()
		shrunk, err := c.Shrink()
		if err != nil {
			t.Error(err)
			return
		}
		failed := c.Group().Difference(shrunk.Group())
		failedRanks := make([]int, failed.Size())
		for j := range failedRanks {
			failedRanks[j] = c.Group().Rank(failed[j])
		}
		hosts, err := p.Cluster().SpawnHosts(failedRanks)
		if err != nil {
			t.Error(err)
			return
		}
		inter, err := shrunk.SpawnMultiple(len(failedRanks), hosts, 0)
		if err != nil {
			t.Error(err)
			return
		}
		unordered, err := inter.IntercommMerge(false)
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = inter.Agree(1)
		if unordered.Rank() == 0 {
			for j, fr := range failedRanks {
				if err := SendOne(unordered, shrunk.Size()+j, 5, fr); err != nil {
					t.Error(err)
					return
				}
			}
		}
		repaired, err := unordered.Split(0, me)
		if err != nil {
			t.Error(err)
			return
		}
		ringPhase(repaired, p)
	}})
	if err != nil {
		t.Fatal(err)
	}
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

func must512(t testing.TB, err error) bool {
	if err != nil {
		t.Error(err)
		return false
	}
	return true
}

// TestTransportStressDeterminism512 is the 512-rank weak-scaling variant
// of TestTransportStressDeterminism: serial and fully parallel schedules
// must produce bit-identical virtual time and traffic counters with the
// hierarchical collectives engaged (43 OPL hosts).
func TestTransportStressDeterminism512(t *testing.T) {
	settings := []int{1, runtime.NumCPU()}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var base transportStressOutcome
	for i, gmp := range settings {
		runtime.GOMAXPROCS(gmp)
		got := runTransportStress512(t)
		if t.Failed() {
			return
		}
		if i == 0 {
			base = got
			if got.spawned != 2 || got.spawnedCtr != 2 || got.revokes == 0 {
				t.Fatalf("unexpected baseline outcome: %+v", got)
			}
			continue
		}
		if got.maxTime != base.maxTime {
			t.Errorf("GOMAXPROCS=%d: MaxVirtualTime %v != %v", gmp, got.maxTime, base.maxTime)
		}
		if got.sentMsgs != base.sentMsgs || got.sentB != base.sentB {
			t.Errorf("GOMAXPROCS=%d: sent %d/%d != %d/%d", gmp, got.sentMsgs, got.sentB, base.sentMsgs, base.sentB)
		}
		if got.recvMsgs != base.recvMsgs || got.recvB != base.recvB {
			t.Errorf("GOMAXPROCS=%d: recv %d/%d != %d/%d", gmp, got.recvMsgs, got.recvB, base.recvMsgs, base.recvB)
		}
		if got.revokes != base.revokes || got.spawnedCtr != base.spawnedCtr {
			t.Errorf("GOMAXPROCS=%d: revokes/spawned %d/%d != %d/%d",
				gmp, got.revokes, got.spawnedCtr, base.revokes, base.spawnedCtr)
		}
		if got.spawned != base.spawned || len(got.failed) != len(base.failed) {
			t.Errorf("GOMAXPROCS=%d: report %+v != %+v", gmp, got, base)
		}
	}
}
