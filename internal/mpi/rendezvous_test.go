package mpi

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestRvzSlotSize pins a rendezvous slot at 32 bytes: a rendezvous pays
// every slot byte once per member, 4096 times in a 4096-rank repair.
func TestRvzSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(rvzSlot{}); got > 32 {
		t.Errorf("rvzSlot is %d bytes, want <= 32", got)
	}
}

// TestFailOnDeathAbortIsDeterministic is the regression test for a replay
// nondeterminism the chaos campaign found: a failOnDeath collective used to
// abort the moment the first arrived member observed a death, stamping the
// abort time with the max over whichever members happened to have arrived in
// real time. Survivor clocks after the error then depended on goroutine
// scheduling. The abort must instead wait for every alive member, so the
// error time is the max over ALL alive arrivals regardless of real arrival
// order.
//
// The test makes the old behaviour deterministic-in-the-wrong-direction:
// rank 3 dies first (real time), then rank 0 — carrying the SMALLEST virtual
// clock — enters Split well before the ranks with larger clocks. Under the
// old code rank 0 resolved the abort alone at virtual time 1.0; the fix
// forces every survivor to the true group maximum of 3.0.
func TestFailOnDeathAbortIsDeterministic(t *testing.T) {
	dead := make(chan struct{})
	var mu sync.Mutex
	clocks := make(map[int]float64)
	runWorld(t, 4, func(p *Proc) {
		w := p.World()
		if w.Rank() == 3 {
			close(dead)
			p.Kill()
		}
		// Distinct virtual arrival times: rank 0 -> 1.0, 1 -> 2.0, 2 -> 3.0.
		p.Compute(float64(w.Rank() + 1))
		<-dead
		// Stagger real arrivals so the rank with the SMALLEST virtual clock
		// reaches the collective first and would have resolved the abort
		// alone under the old code.
		time.Sleep(time.Duration(50*(w.Rank()+1)) * time.Millisecond)
		if _, err := w.Split(0, w.Rank()); !errors.Is(err, ErrProcFailed) {
			t.Errorf("rank %d: Split = %v, want ErrProcFailed", w.Rank(), err)
		}
		mu.Lock()
		clocks[w.Rank()] = p.Now()
		mu.Unlock()
	})
	for rank := 0; rank < 3; rank++ {
		if got := clocks[rank]; got != 3.0 {
			t.Errorf("rank %d clock after aborted Split = %v, want 3.0 (max over all alive arrivals)", rank, got)
		}
	}
}

// TestSpawnWithoutRootInput gives every member of a SpawnMultiple whose root
// is no member the root-input error, not an index panic, and spawns
// nothing.
func TestSpawnWithoutRootInput(t *testing.T) {
	rep := runWorld(t, 2, func(p *Proc) {
		_, err := p.World().SpawnMultiple(1, nil, 2)
		if !errors.Is(err, ErrComm) || !strings.Contains(err.Error(), "missing root input") {
			t.Errorf("rank %d: SpawnMultiple with root 2 = %v, want the missing root input error", p.World().Rank(), err)
		}
	})
	if rep.Spawned != 0 {
		t.Errorf("%d processes spawned, want 0", rep.Spawned)
	}
}
