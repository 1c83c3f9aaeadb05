package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ftsg/internal/vtime"
)

// Tests of the namer lists: a collective abort wakes the goroutine-path
// receives that name the aborter from the aborter's list, so its cost is the
// length of that list, not the size of the communicator; and a receive
// registered on the list is woken wherever between its registration and its
// sleep the abort lands.

// wakeStatsOf returns the world's wake work for one event kind.
func wakeStatsOf(t *testing.T, w *World, ev wakeEvent) WakeSnapshot {
	t.Helper()
	for _, x := range w.Snapshot().Wakes {
		if x.Event == wakeEventNames[ev] {
			return x
		}
	}
	t.Fatalf("snapshot has no %q wake counts", wakeEventNames[ev])
	return WakeSnapshot{}
}

// TestAbortCostsNamersNotMembers kills two ranks of a world and runs the
// detection barrier of the paper's Fig. 3 on every survivor: each of them
// fails it and records a collective abort. An abort examines the receives
// naming the aborter, and a barrier rank is named only by its tree and
// dissemination neighbours, so the aborts examine a few descriptors each on
// average. A member walk per abort examines about half the world each.
func TestAbortCostsNamersNotMembers(t *testing.T) {
	const maxPerAbort = 16
	for _, n := range []int{1024, 4096} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			victims := [2]int{n / 3, 2*n/3 + 1}
			var world atomic.Pointer[World]
			var failed atomic.Int64
			_, err := Run(Options{NProcs: n, Machine: vtime.OPL(), Watchdog: stallFails(), Entry: func(p *Proc) {
				c := p.World()
				world.Store(p.st.w)
				if me := c.Rank(); me == victims[0] || me == victims[1] {
					p.Kill()
				}
				if err := c.Barrier(); !errors.Is(err, ErrProcFailed) {
					t.Errorf("rank %d: barrier returned %v, want ErrProcFailed", c.Rank(), err)
					return
				}
				failed.Add(1)
			}})
			if err != nil {
				t.Fatal(err)
			}
			if got := failed.Load(); got != int64(n-2) {
				t.Fatalf("%d survivors saw the failure, want %d", got, n-2)
			}
			ab := wakeStatsOf(t, world.Load(), evAbort)
			t.Logf("aborts: %+v", ab)
			events := ab.Skipped + ab.Walks + ab.Lists
			if events != uint64(n-2) {
				t.Errorf("%d aborts counted, want one per survivor (%d)", events, n-2)
			}
			if ab.Walks != 0 {
				t.Errorf("%d aborts walked their communicator on the goroutine path", ab.Walks)
			}
			if ab.Examined > maxPerAbort*events {
				t.Errorf("aborts examined %d descriptors, %.1f per abort; want at most %d per abort",
					ab.Examined, float64(ab.Examined)/float64(events), maxPerAbort)
			}
		})
	}
}

// TestAbortLandsBetweenRegistrationAndSleep lands a collective abort inside
// a goroutine-path receiver's park, through parkHook, while the receiver
// names the aborter and is on its namer list: once before the park is
// counted (the abort finds nobody counted on it and skips; the generation
// the receiver re-reads in its park makes it re-run its checks) and once
// after the re-read (the abort must find the receiver on its list). The
// "revoked" variants receive on a revoked communicator, where the park is
// counted on World.parkedRevoked instead of the aborter. A missed wake
// leaves the receiver asleep and the watchdog fails the run. The abort's
// side of the window is TestAbortSpansTheReceiversPark's.
func TestAbortLandsBetweenRegistrationAndSleep(t *testing.T) {
	const aborter, receiver, revoker = 0, 1, 2
	tag := internalTag(kindBarrier, 0)
	for _, revoked := range []bool{false, true} {
		for _, counted := range []bool{false, true} {
			name := map[bool]string{false: "uncounted", true: "counted"}[counted]
			if revoked {
				name = "revoked/" + name
			}
			t.Run(name, func(t *testing.T) {
				var parked, aborted, done atomic.Bool
				parkHook = func(st *procState, c bool) {
					if c != counted || st.wrank != receiver || !receiving(st) || !parked.CompareAndSwap(false, true) {
						return
					}
					st.mu.Unlock()
					spinUntil(t, "the abort", aborted.Load)
					st.mu.Lock()
				}
				t.Cleanup(func() { parkHook = nil })
				_, err := Run(Options{NProcs: 3, Machine: vtime.OPL(), Watchdog: Watchdog{Timeout: 10 * time.Second}, Entry: func(p *Proc) {
					c := p.World()
					switch c.Rank() {
					case receiver:
						if revoked {
							spinUntil(t, "the revocation", c.sh.revoked.Load)
						}
						if _, _, err := recvMatch(c, aborter, tag, true, intoBuf{}); !errors.Is(err, ErrProcFailed) {
							t.Errorf("receive from the aborter returned %v, want ErrProcFailed", err)
						}
						done.Store(true)
						return
					case aborter:
						spinUntil(t, "the receiver's park", parked.Load)
						abortCollective(c, tag, ErrProcFailed)
						aborted.Store(true)
					case revoker:
						if revoked {
							must(t, c.Revoke())
						}
					}
					// Stay alive until the receiver returns: an exit would
					// wake it and hide a lost wake.
					spinUntil(t, "the receiver's return", done.Load)
				}})
				if err != nil {
					t.Fatal(err)
				}
				if !parked.Load() {
					t.Error("the receiver never reached the hooked park")
				}
			})
		}
	}
}

// TestAbortSpansTheReceiversPark starts a collective abort before a
// goroutine-path receiver that names the aborter registers, and finishes it
// after the receiver is asleep: a third rank holds World.state (read) until
// the abort waits for it (write), then lets the receiver register, check its
// verdict (no abort recorded yet) and park. The abort must read the namer
// list after it has recorded the abort, or it wakes a stale copy of the list
// and the watchdog fails the run.
func TestAbortSpansTheReceiversPark(t *testing.T) {
	const aborter, receiver, holder = 0, 1, 2
	tag := internalTag(kindBarrier, 0)
	var holding, release, parked, done atomic.Bool
	parkHook = func(st *procState, counted bool) {
		if counted && st.wrank == receiver && receiving(st) {
			parked.Store(true)
		}
	}
	t.Cleanup(func() { parkHook = nil })
	_, err := Run(Options{NProcs: 3, Machine: vtime.OPL(), Watchdog: Watchdog{Timeout: 10 * time.Second}, Entry: func(p *Proc) {
		c := p.World()
		w := p.st.w
		switch c.Rank() {
		case receiver:
			spinUntil(t, "the abort to wait for World.state", release.Load)
			if _, _, err := recvMatch(c, aborter, tag, true, intoBuf{}); !errors.Is(err, ErrProcFailed) {
				t.Errorf("receive from the aborter returned %v, want ErrProcFailed", err)
			}
			done.Store(true)
			return
		case aborter:
			spinUntil(t, "the holder", holding.Load)
			abortCollective(c, tag, ErrProcFailed)
		case holder:
			w.state.RLock()
			holding.Store(true)
			// TryRLock fails once a writer waits.
			spinUntil(t, "the abort to wait for World.state", func() bool {
				if w.state.TryRLock() {
					w.state.RUnlock()
					return false
				}
				return true
			})
			release.Store(true)
			spinUntil(t, "the receiver's park", parked.Load)
			w.state.RUnlock()
		}
		spinUntil(t, "the receiver's return", done.Load)
	}})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDepartureWalksOnlyForAnAwaitedMember checks that a departure walks the
// process table for the rendezvous waits it may complete only while an
// unresolved rendezvous still waits for the departed process. Members of a
// resolved rendezvous were woken by its resolver; until they run they are
// still counted asleep, which must not make the exits after it walk. Only
// rendezvous are used, so no departure has any other reason to walk.
func TestDepartureWalksOnlyForAnAwaitedMember(t *testing.T) {
	const n = 256
	t.Run("all agree, then exit", func(t *testing.T) {
		var world atomic.Pointer[World]
		_, err := Run(Options{NProcs: n, Machine: vtime.OPL(), Watchdog: stallFails(), Entry: func(p *Proc) {
			world.Store(p.st.w)
			if _, err := p.World().Agree(1); err != nil {
				t.Errorf("rank %d: agree: %v", p.WorldRank(), err)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if walks := departureWalks(world.Load()); walks != 0 {
			t.Errorf("%d departures walked the process table after the agreement resolved, want 0", walks)
		}
	})
	t.Run("a non-member exits", func(t *testing.T) {
		// Rank 0 exits while every other rank but the last is asleep in an
		// agreement among ranks 1..n-1; the last joins it only once rank 0
		// is gone. Rank 0's departure cannot complete that agreement.
		const last = n - 1
		var world atomic.Pointer[World]
		_, err := Run(Options{NProcs: n, Machine: vtime.OPL(), Watchdog: stallFails(), Entry: func(p *Proc) {
			w := p.st.w
			world.Store(w)
			me := p.WorldRank()
			color := 1
			if me == 0 {
				color = 0
			}
			c, err := p.World().Split(color, me)
			if err != nil {
				t.Errorf("rank %d: split: %v", me, err)
				return
			}
			switch me {
			case 0:
				spinUntil(t, "the others' park", func() bool {
					return pendingArrived(w) == n-2 && w.parkedRvz.Load() == n-2
				})
				return
			case last:
				spinUntil(t, "rank 0's exit", func() bool { return !w.alive(0) })
			}
			if _, err := c.Agree(1); err != nil {
				t.Errorf("rank %d: agree: %v", me, err)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if walks := departureWalks(world.Load()); walks != 0 {
			t.Errorf("%d departures walked the process table, want 0", walks)
		}
	})
}

// TestDeathOfTheLastMissingMemberWakesTheAgreement kills the only member an
// open Agree still waits for after every other member is asleep in it. The
// death completes the agreement among the survivors, and only the
// departure's walk can tell them: each must return MPI_ERR_PROC_FAILED, and
// a lost wake leaves them asleep until the watchdog fails the run.
func TestDeathOfTheLastMissingMemberWakesTheAgreement(t *testing.T) {
	const n, victim = 64, 41
	var survivors atomic.Int64
	_, err := Run(Options{NProcs: n, Machine: vtime.OPL(), Watchdog: Watchdog{Timeout: 10 * time.Second}, Entry: func(p *Proc) {
		w := p.st.w
		c := p.World()
		if c.Rank() == victim {
			spinUntil(t, "the survivors' park", func() bool {
				return pendingArrived(w) == n-1 && w.parkedRvz.Load() == n-1
			})
			p.Kill()
		}
		if _, err := c.Agree(1); !errors.Is(err, ErrProcFailed) {
			t.Errorf("rank %d: agree returned %v, want ErrProcFailed", c.Rank(), err)
			return
		}
		survivors.Add(1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := survivors.Load(); got != n-1 {
		t.Errorf("%d survivors returned from the agreement, want %d", got, n-1)
	}
}
