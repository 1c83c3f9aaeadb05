package mpi

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"ftsg/internal/vtime"
)

func TestKillMarksFailed(t *testing.T) {
	rep := runWorld(t, 3, func(p *Proc) {
		if p.WorldRank() == 1 {
			p.Compute(2.5)
			p.Kill()
		}
	})
	if len(rep.Failed) != 1 || rep.Failed[0] != 1 {
		t.Fatalf("Failed = %v, want [1]", rep.Failed)
	}
	if rep.MaxVirtualTime < 2.5 {
		t.Fatalf("death time not recorded: max = %g", rep.MaxVirtualTime)
	}
}

// TestRecvFromDeadReturnsProcFailed also pins that the observers of one
// death on one communicator share its error value.
func TestRecvFromDeadReturnsProcFailed(t *testing.T) {
	var errs [3]*FailedError
	runWorld(t, 3, func(p *Proc) {
		c := p.World()
		if c.Rank() == 1 {
			p.Kill()
		}
		_, _, err := Recv[int](c, 1, 0)
		if !errors.Is(err, ErrProcFailed) {
			t.Errorf("Recv from dead rank: %v", err)
		}
		var fe *FailedError
		if !errors.As(err, &fe) || fe.Rank != 1 || fe.WorldRank != 1 {
			t.Errorf("failed rank not identified: %v", err)
		}
		if want := "mpi: process failed: rank 1 (world 1) (MPI_ERR_PROC_FAILED)"; err.Error() != want {
			t.Errorf("error text %q, want %q", err.Error(), want)
		}
		errs[c.Rank()] = fe
	})
	if errs[0] == nil || errs[0] != errs[2] {
		t.Errorf("observers of one death got different errors: %p and %p", errs[0], errs[2])
	}
}

// TestRecvBlockedWokenByFailure covers the critical wake-up path: a receiver
// already blocked when its partner dies must be woken with the error rather
// than hang.
func TestRecvBlockedWokenByFailure(t *testing.T) {
	runWorld(t, 3, func(p *Proc) {
		c := p.World()
		switch c.Rank() {
		case 0:
			_, _, err := Recv[int](c, 1, 0) // blocks; rank 1 dies later
			if !errors.Is(err, ErrProcFailed) {
				t.Errorf("blocked Recv: %v", err)
			}
		case 1:
			// Give rank 0 a chance to block first via a real handshake
			// with rank 2, then die.
			v, _, err := RecvOne[int](c, 2, 5)
			must(t, err)
			_ = v
			p.Kill()
		case 2:
			must(t, SendOne(c, 1, 5, 1))
		}
	})
}

func TestDeadPeerSendBuffersRecvFails(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		if c.Rank() == 1 {
			p.Kill()
		}
		// An eager buffered send completes locally even when the peer is
		// dead (the message is lost on the wire) — reporting the death at
		// the send would make the outcome depend on whether the victim's
		// goroutine has reached its kill point yet in wall-clock time.
		if err := SendOne(c, 1, 0, 1); err != nil {
			t.Errorf("Send to dead rank: %v", err)
		}
		// The failure surfaces at the receive.
		_, _, err := Recv[int](c, 1, 0)
		if !errors.Is(err, ErrProcFailed) {
			t.Errorf("Recv from dead rank: %v", err)
		}
	})
}

// TestBarrierDetectsFailure is the paper's detection idiom (Fig. 3 line 13):
// surviving ranks use a barrier and observe MPI_ERR_PROC_FAILED.
func TestBarrierDetectsFailure(t *testing.T) {
	var mu sync.Mutex
	errsSeen := 0
	runWorld(t, 6, func(p *Proc) {
		c := p.World()
		if c.Rank() == 3 {
			p.Kill()
		}
		if err := c.Barrier(); err != nil {
			if !errors.Is(err, ErrProcFailed) {
				t.Errorf("barrier error class: %v", err)
			}
			mu.Lock()
			errsSeen++
			mu.Unlock()
		}
	})
	if errsSeen == 0 {
		t.Fatal("no surviving rank detected the failure via the barrier")
	}
}

func TestErrhandlerFires(t *testing.T) {
	var mu sync.Mutex
	fired := 0
	runWorld(t, 4, func(p *Proc) {
		c := p.World()
		c.SetErrhandler(func(_ *Comm, err error) {
			if errors.Is(err, ErrProcFailed) {
				mu.Lock()
				fired++
				mu.Unlock()
			}
		})
		if c.Rank() == 2 {
			p.Kill()
		}
		_ = c.Barrier()
	})
	if fired == 0 {
		t.Fatal("error handler never fired")
	}
}

func TestRevokeInterruptsPending(t *testing.T) {
	runWorld(t, 3, func(p *Proc) {
		c := p.World()
		switch c.Rank() {
		case 0:
			// Block forever; only the revoke releases us.
			_, _, err := Recv[int](c, 1, 0)
			if !errors.Is(err, ErrRevoked) {
				t.Errorf("pending recv after revoke: %v", err)
			}
		case 1:
			// Never sends; just waits for the revoke too.
			_, _, err := Recv[int](c, 0, 0)
			if !errors.Is(err, ErrRevoked) {
				t.Errorf("pending recv after revoke: %v", err)
			}
		case 2:
			p.Compute(0.1)
			must(t, c.Revoke())
		}
	})
}

func TestRevokedCommRejectsNewOps(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		must(t, c.Revoke()) // both ranks revoke; idempotent
		if err := SendOne(c, (c.Rank()+1)%2, 0, 1); !errors.Is(err, ErrRevoked) {
			t.Errorf("Send on revoked comm: %v", err)
		}
		if _, err := c.Split(0, 0); !errors.Is(err, ErrRevoked) {
			t.Errorf("Split on revoked comm: %v", err)
		}
		// Shrink and Agree must still work.
		if _, err := c.Shrink(); err != nil {
			t.Errorf("Shrink on revoked comm: %v", err)
		}
		if _, err := c.Agree(1); err != nil {
			t.Errorf("Agree on revoked comm: %v", err)
		}
	})
}

func TestShrinkRemovesFailedPreservesOrder(t *testing.T) {
	var mu sync.Mutex
	ranks := map[int]int{} // old rank -> shrunken rank
	runWorld(t, 7, func(p *Proc) {
		c := p.World()
		if c.Rank() == 3 || c.Rank() == 5 {
			p.Kill()
		}
		// Survivors detect and shrink (paper Figs. 3/5, with ranks 3 and 5
		// failing as in Fig. 2).
		_ = c.Barrier()
		must(t, c.Revoke())
		s, err := c.Shrink()
		must(t, err)
		if s.Size() != 5 {
			t.Errorf("shrunken size = %d, want 5", s.Size())
		}
		mu.Lock()
		ranks[c.Rank()] = s.Rank()
		mu.Unlock()
		// The shrunken communicator is healthy: a barrier must succeed.
		must(t, s.Barrier())
	})
	want := map[int]int{0: 0, 1: 1, 2: 2, 4: 3, 6: 4}
	for old, newR := range want {
		if ranks[old] != newR {
			t.Errorf("old rank %d -> shrunken %d, want %d", old, ranks[old], newR)
		}
	}
}

func TestAgreeANDsFlags(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		c := p.World()
		flag := 0b1111
		if c.Rank() == 2 {
			flag = 0b1010
		}
		agreed, err := c.Agree(flag)
		must(t, err)
		if agreed != 0b1010 {
			t.Errorf("agreed = %b, want 1010", agreed)
		}
	})
}

func TestAgreeReportsFailure(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		c := p.World()
		if c.Rank() == 1 {
			p.Kill()
		}
		agreed, err := c.Agree(1)
		if !errors.Is(err, ErrProcFailed) {
			t.Errorf("Agree with dead member: err = %v", err)
		}
		if agreed != 1 {
			t.Errorf("agreed flag among survivors = %d, want 1", agreed)
		}
	})
}

// TestShrinkChargesBetaULFMCost checks that the virtual cost of shrink on a
// two-failure communicator follows the Table I model.
func TestShrinkChargesBetaULFMCost(t *testing.T) {
	var mu sync.Mutex
	var maxAfter float64
	n := 19
	rep, err := Run(Options{NProcs: n, Entry: func(p *Proc) {
		c := p.World()
		if c.Rank() == 3 || c.Rank() == 5 {
			p.Kill()
		}
		s, err := c.Shrink()
		must(t, err)
		_ = s
		mu.Lock()
		if p.Now() > maxAfter {
			maxAfter = p.Now()
		}
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
	want := vtime.Generic().ULFM.ShrinkCost(n, 2)
	if maxAfter < want || maxAfter > want+0.01 {
		t.Fatalf("post-shrink clock = %g, want ~%g (Table I model)", maxAfter, want)
	}
}

// TestSpawnMergeSplitRepairDance runs the full communicator reconstruction
// of the paper's Figs. 2/3/5 at the runtime level: kill ranks 3 and 5 of a
// 7-rank communicator, shrink, spawn two replacements, merge high, and split
// with the original ranks as keys; every process must end with its original
// rank in a full-size communicator.
func TestSpawnMergeSplitRepairDance(t *testing.T) {
	var mu sync.Mutex
	finalRanks := map[int]int{} // world rank -> final comm rank
	finalSize := 0

	rep, err := Run(Options{NProcs: 7, Entry: func(p *Proc) {
		const mergeTag = 4

		record := func(c *Comm) {
			mu.Lock()
			finalRanks[p.WorldRank()] = c.Rank()
			finalSize = c.Size()
			mu.Unlock()
			must(t, c.Barrier()) // reconstructed comm must be fully usable
		}

		if pc := p.Parent(); pc != nil {
			// Child path (paper Fig. 3, lines 19-26).
			_, err := pc.Agree(1)
			_ = err // failure report is expected here in general
			unordered, err := pc.IntercommMerge(true)
			must(t, err)
			oldRank, _, err := RecvOne[int](unordered, 0, mergeTag)
			must(t, err)
			ordered, err := unordered.Split(0, oldRank)
			must(t, err)
			record(ordered)
			return
		}

		c := p.World()
		if c.Rank() == 3 || c.Rank() == 5 {
			p.Kill()
		}
		_ = c.Barrier() // detect
		must(t, c.Revoke())
		shrunk, err := c.Shrink()
		must(t, err)

		// Failed-process list via group algebra (paper Fig. 6).
		oldGroup, newGroup := c.Group(), shrunk.Group()
		failedGroup := oldGroup.Difference(newGroup)
		failedRanks := make([]int, failedGroup.Size())
		for i := range failedRanks {
			failedRanks[i] = oldGroup.Rank(failedGroup[i])
		}

		hosts, err := p.Cluster().SpawnHosts(failedRanks)
		must(t, err)
		inter, err := shrunk.SpawnMultiple(len(failedRanks), hosts, 0)
		must(t, err)
		unordered, err := inter.IntercommMerge(false)
		must(t, err)
		_, err = inter.Agree(1)
		must(t, err)

		// Rank 0 of the merged comm tells each child its old rank
		// (children are the highest ranks after a high merge).
		if unordered.Rank() == 0 {
			base := shrunk.Size()
			for i, fr := range failedRanks {
				must(t, SendOne(unordered, base+i, mergeTag, fr))
			}
		}
		ordered, err := unordered.Split(0, c.Rank())
		must(t, err)
		record(ordered)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 2 || rep.Spawned != 2 {
		t.Fatalf("failed %v spawned %d", rep.Failed, rep.Spawned)
	}
	if finalSize != 7 {
		t.Fatalf("reconstructed size = %d, want 7", finalSize)
	}
	// Survivors keep their ranks; replacements (world ranks 7 and 8) take
	// over ranks 3 and 5.
	for _, wr := range []int{0, 1, 2, 4, 6} {
		if finalRanks[wr] != wr {
			t.Errorf("survivor world %d has rank %d", wr, finalRanks[wr])
		}
	}
	if finalRanks[7] != 3 || finalRanks[8] != 5 {
		t.Errorf("replacements got ranks %d and %d, want 3 and 5", finalRanks[7], finalRanks[8])
	}
}

// TestVirtualTimeDeterminism: the virtual clock is independent of Go
// scheduling — repeated runs of a communication-heavy world give the exact
// same maximum virtual time.
func TestVirtualTimeDeterminism(t *testing.T) {
	run := func() float64 {
		rep, err := Run(Options{NProcs: 16, Machine: vtime.OPL(), Entry: func(p *Proc) {
			c := p.World()
			for k := 0; k < 20; k++ {
				if _, err := Allreduce(c, []float64{float64(c.Rank())}, Sum[float64]); err != nil {
					t.Error(err)
					return
				}
				right := (c.Rank() + 1) % c.Size()
				left := (c.Rank() - 1 + c.Size()) % c.Size()
				if err := Send(c, right, 3, []int{k}); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := Recv[int](c, left, 3); err != nil {
					t.Error(err)
					return
				}
			}
			if err := c.Barrier(); err != nil {
				t.Error(err)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxVirtualTime
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("virtual time differs across runs: %.17g vs %.17g", got, first)
		}
	}
	if first <= 0 {
		t.Fatal("no virtual time accumulated")
	}
}

// TestFailureAckSharesOneListPerDeath checks that acknowledging failures
// costs one failed list per communicator per death, not one per member: on
// 1024 ranks with two kills, every survivor acks both deaths, and the ack
// phase allocates a small fixed number of objects where a list per handle
// was two thousand. The survivors spin on atomics around the phase (a
// channel wait may allocate), so the process-wide counter sees only the
// acks, and every handle ends up holding the same shared list.
func TestFailureAckSharesOneListPerDeath(t *testing.T) {
	const n = 1024
	victims := map[int]bool{100: true, 777: true}
	survivors := int64(n - len(victims))
	var ready, acked atomic.Int64
	var start, done atomic.Bool
	var before, after runtime.MemStats
	spin := func(cond func() bool) {
		for !cond() {
			runtime.Gosched()
		}
	}
	lists := make([]*int, n)
	_, err := Run(Options{NProcs: n, Machine: vtime.OPL(), Entry: func(p *Proc) {
		c := p.World()
		if victims[c.Rank()] {
			p.Kill()
		}
		_, _ = c.Agree(1) // every survivor has seen both deaths
		if ready.Add(1) == survivors {
			runtime.ReadMemStats(&before)
			start.Store(true)
		}
		spin(start.Load)
		if err := c.FailureAck(); err != nil {
			t.Errorf("rank %d: FailureAck: %v", c.Rank(), err)
		}
		lists[c.Rank()] = unsafe.SliceData(c.acked)
		if acked.Add(1) == survivors {
			runtime.ReadMemStats(&after)
			done.Store(true)
		}
		spin(done.Load)
		if got := c.FailureGetAcked(); len(got) != 2 || got[0] != 100 || got[1] != 777 {
			t.Errorf("rank %d: FailureGetAcked = %v, want [100 777]", c.Rank(), got)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs > 16 {
		t.Errorf("%d survivors' FailureAck made %d allocations, want <= 16 (one shared list)", survivors, mallocs)
	}
	for r, l := range lists {
		if !victims[r] && l != lists[0] {
			t.Errorf("rank %d holds its own failed list, want the communicator's shared one", r)
			break
		}
	}
}
