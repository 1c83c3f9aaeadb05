package mpi

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// TestCommCreationAllocatesPerCommunicator runs rounds of the calls that
// create communicators on a 1024-rank world — a Split in which half the
// ranks pass Undefined, a Shrink after one Kill, and a SpawnMultiple whose
// intercommunicator is merged back to full size — and checks every handle
// against its rank and group computed here. Each call builds its members'
// handles in one array, so what a call allocates is a handful of objects
// per communicator, not one or more per rank: the test bounds the
// allocations in each call's window at 0.1 per rank and call (one or more
// when every member allocated its own handle). The collector is off while
// it counts, so the runtime's caches stay warm between windows, and the
// windows are fenced by a plain Go barrier, not the runtime's: the
// envelope pool of a Barrier misses at random under -race.
func TestCommCreationAllocatesPerCommunicator(t *testing.T) {
	const n, rounds, bound = 1024, 4, 0.1
	const (
		kindSplit = iota
		kindShrink
		kindSpawnMerge
		numKinds
	)
	calls := [numKinds]float64{kindSplit: 1, kindShrink: 1, kindSpawnMerge: 2}
	names := [numKinds]string{"split", "shrink", "spawn+merge"}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Only world rank 0, rank 0 of every communicator a round runs on,
	// reads the counters, between the other ranks' arrivals at a window's
	// ends: open and closeWindow take the number of ranks that arrive.
	var before, after runtime.MemStats
	var mallocs [rounds][numKinds]uint64
	var fence herd
	open := func(p *Proc, ranks int) {
		fence.wait(ranks)
		if p.WorldRank() == 0 {
			runtime.ReadMemStats(&before)
		}
		fence.wait(ranks)
	}
	closeWindow := func(p *Proc, ranks, round, kind int) {
		fence.wait(ranks)
		if p.WorldRank() == 0 {
			runtime.ReadMemStats(&after)
			mallocs[round][kind] = after.Mallocs - before.Mallocs
		}
	}
	checkMerged := func(p *Proc, merged *Comm, shrunk Group, rank int) {
		g := merged.Group()
		if merged.Proc() != p || merged.Rank() != rank || merged.Size() != n || len(g) != n {
			t.Errorf("world rank %d: merged rank %d of %d, want %d of %d", p.WorldRank(), merged.Rank(), merged.Size(), rank, n)
			return
		}
		for i, wr := range shrunk {
			if g[i] != wr {
				t.Errorf("world rank %d: merged group[%d] = %d, want %d", p.WorldRank(), i, g[i], wr)
				return
			}
		}
		if g[n-1] < n || g[rank] != p.WorldRank() {
			t.Errorf("world rank %d: merged group ends %d, holds %d at my rank", p.WorldRank(), g[n-1], g[rank])
		}
	}

	var loop func(p *Proc, c *Comm, first int)
	loop = func(p *Proc, c *Comm, first int) {
		for round := first; round < rounds; round++ {
			old, me := c.Group(), c.Rank()

			// Split: the even ranks form one communicator ordered by
			// descending old rank; the odd ranks pass Undefined.
			color, key := Undefined, -me
			if me%2 == 0 {
				color = 0
			}
			open(p, n)
			sub, err := c.Split(color, key)
			if err != nil {
				t.Error(err)
				return
			}
			closeWindow(p, n, round, kindSplit)
			switch {
			case color == Undefined:
				if sub != nil {
					t.Errorf("world rank %d: Split(Undefined) returned a handle", p.WorldRank())
				}
			case sub == nil || sub.Proc() != p || sub.Size() != n/2 || sub.Rank() != (n-2-me)/2:
				t.Errorf("world rank %d: split handle %+v, want rank %d of %d", p.WorldRank(), sub, (n-2-me)/2, n/2)
			default:
				for i, wr := range sub.Group() {
					if wr != old[n-2-2*i] {
						t.Errorf("world rank %d: split group[%d] = %d, want %d", p.WorldRank(), i, wr, old[n-2-2*i])
						break
					}
				}
			}

			// Shrink after one Kill: the survivors in their old order.
			victim := 1 + round
			open(p, n)
			if me == victim {
				p.Kill()
			}
			shrunk, err := c.Shrink()
			if err != nil {
				t.Error(err)
				return
			}
			closeWindow(p, n-1, round, kindShrink)
			want := me
			if me > victim {
				want--
			}
			g := shrunk.Group()
			if shrunk.Proc() != p || shrunk.Rank() != want || shrunk.Size() != n-1 || len(g) != n-1 {
				t.Errorf("world rank %d: shrunk rank %d of %d, want %d of %d", p.WorldRank(), shrunk.Rank(), shrunk.Size(), want, n-1)
				return
			}
			for i, wr := range g {
				j := i
				if i >= victim {
					j++
				}
				if wr != old[j] {
					t.Errorf("world rank %d: shrunk group[%d] = %d, want %d", p.WorldRank(), i, wr, old[j])
					break
				}
			}

			// SpawnMultiple + IntercommMerge: one replacement joins last;
			// it runs the next rounds with the parents (see below).
			open(p, n-1)
			inter, err := shrunk.SpawnMultiple(1, nil, 0)
			if err != nil {
				t.Error(err)
				return
			}
			merged, err := inter.IntercommMerge(false)
			if err != nil {
				t.Error(err)
				return
			}
			closeWindow(p, n, round, kindSpawnMerge)
			if inter.Proc() != p || !inter.IsInter() || inter.Rank() != want || inter.Size() != n-1 {
				t.Errorf("world rank %d: spawn handle rank %d of %d, want %d of %d", p.WorldRank(), inter.Rank(), inter.Size(), want, n-1)
			}
			checkMerged(p, merged, g, want)
			c = merged
		}
	}

	runWorld(t, n, func(p *Proc) {
		parent := p.Parent()
		if parent == nil {
			loop(p, p.World(), 0)
			return
		}
		// The replacement of round r has world rank n + r.
		round := p.WorldRank() - n
		merged, err := parent.IntercommMerge(true)
		if err != nil {
			t.Error(err)
			return
		}
		closeWindow(p, n, round, kindSpawnMerge)
		checkMerged(p, merged, merged.Group()[:n-1], n-1)
		loop(p, merged, round+1)
	})

	// Round 0 warms the runtime's caches; the rounds after it count.
	for round := 1; round < rounds; round++ {
		for k := 0; k < numKinds; k++ {
			perRank := float64(mallocs[round][k]) / (n * calls[k])
			t.Logf("round %d %s: %d objects, %.3f per rank and call", round, names[k], mallocs[round][k], perRank)
			if perRank > bound {
				t.Errorf("round %d %s: %.3f objects per rank and call, want <= %v", round, names[k], perRank, bound)
			}
		}
	}
}

// herd is a reusable barrier for goroutines outside the runtime's control:
// wait returns once the given number of callers has arrived.
type herd struct {
	mu      sync.Mutex
	cond    sync.Cond
	arrived int
	gen     int
}

func (h *herd) wait(ranks int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cond.L == nil {
		h.cond.L = &h.mu
	}
	if h.arrived++; h.arrived == ranks {
		h.arrived = 0
		h.gen++
		h.cond.Broadcast()
		return
	}
	for g := h.gen; g == h.gen; {
		h.cond.Wait()
	}
}
