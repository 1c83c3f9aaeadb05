package mpi

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftsg/internal/vtime"
)

// Tests of the control plane's three O(n) mechanisms: counter-based
// rendezvous completion (the death-timing table), reclamation of resolved
// rendezvous (the soak test), deterministic communicator ids, and wake-ups
// filtered by the published blocked-op descriptor (the lost-wake stress).

// pathOps lets one continuation-passing test program run on both execution
// paths: with f == nil every operation is the blocking call and its
// continuation runs inline when the call returns; otherwise it is the
// operation's Fiber twin.
type pathOps struct{ f *Fiber }

func (o pathOps) recv(c *Comm, src, tag int, k func(error)) {
	if o.f == nil {
		// Odd ranks receive into their own buffer, so every wait these tests
		// hold a rank in is also held with a published RecvInto buffer.
		var err error
		if c.Rank()%2 == 1 {
			var buf [1]int
			_, err = RecvInto(c, src, tag, buf[:])
		} else {
			_, _, err = Recv[int](c, src, tag)
		}
		k(err)
		return
	}
	FiberRecv(o.f, c, src, tag, func(_ []int, _ Status, err error) { k(err) })
}

func (o pathOps) agree(c *Comm, flag int, k func(int, error)) {
	if o.f == nil {
		k(c.Agree(flag))
		return
	}
	FiberAgree(o.f, c, flag, k)
}

func (o pathOps) barrier(c *Comm, k func(error)) {
	if o.f == nil {
		k(c.Barrier())
		return
	}
	FiberBarrier(o.f, c, k)
}

func (o pathOps) split(c *Comm, color, key int, k func(*Comm, error)) {
	if o.f == nil {
		k(c.Split(color, key))
		return
	}
	FiberSplit(o.f, c, color, key, k)
}

func (o pathOps) shrink(c *Comm, k func(*Comm, error)) {
	if o.f == nil {
		k(c.Shrink())
		return
	}
	FiberShrink(o.f, c, k)
}

// loop runs body(0..n-1) in sequence, then done. A blocking body has finished
// when it returns, so the blocking path is a plain loop and next is a no-op;
// on the fiber path the next iteration is the body's continuation.
func (o pathOps) loop(n int, body func(i int, next func()), done func()) {
	if o.f == nil {
		for i := 0; i < n; i++ {
			body(i, func() {})
		}
		done()
		return
	}
	var step func(i int)
	step = func(i int) {
		if i == n {
			done()
			return
		}
		body(i, func() { step(i + 1) })
	}
	step(0)
}

// runOnPath runs prog on every rank of a world on the chosen execution path.
func runOnPath(t *testing.T, o Options, event bool, prog func(p *Proc, o pathOps)) *Report {
	t.Helper()
	if event {
		o.EventEntry = func(p *Proc, f *Fiber) { prog(p, pathOps{f}) }
	} else {
		o.Entry = func(p *Proc) { prog(p, pathOps{}) }
	}
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// stallFails is a watchdog that aborts a stalled job: Run returns a
// *StallError carrying the per-rank blocked-op dump, which runOnPath turns
// into a test failure.
func stallFails() Watchdog { return Watchdog{Timeout: 30 * time.Second} }

// spinUntil yields until cond holds. A condition that a regression makes
// unreachable must fail the test, not hang it: after a minute it reports and
// lets the caller carry on.
func spinUntil(t *testing.T, what string, cond func() bool) {
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Errorf("gave up waiting for %s", what)
			return
		}
		runtime.Gosched()
	}
}

// receiving reports whether q has published a receive (not the rendezvous
// word a finished Split may still show).
func receiving(q *procState) bool { return blockedOp(q.blocked.Load()).kind() == opRecv }

// timedExit lands one exit per round between a goroutine-path receiver's
// wake checks and its park, through parkHook: when the receiver (which names
// the exiter) reaches its park, the hook lets the exiter go and holds the
// receiver until the exit has read the park counts. The exit finds no
// receiver counted on it and skips its walk; only the event generation the
// receiver reads in its park stands between it and a lost wake. The receiver
// waits with its mu released: another departure's walk, holding World.state,
// may be queued on that mu (it read the rendezvous word the receiver
// published for the split), and the exit needs World.state to happen.
type timedExit struct {
	exiter, receiver atomic.Int64 // world ranks; receiver is -1 once fired
	exit             atomic.Bool
}

// install sets parkHook for the calling test.
func (x *timedExit) install(t *testing.T) {
	x.receiver.Store(-1)
	parkHook = func(st *procState, counted bool) {
		if counted || !receiving(st) || !x.receiver.CompareAndSwap(int64(st.wrank), -1) {
			return
		}
		w := st.w
		ex, g := w.proc(int(x.exiter.Load())), w.evGen.Load()
		x.exit.Store(true)
		st.mu.Unlock()
		spinUntil(t, "the timed exit", func() bool { return !ex.alive.Load() && w.evGen.Load() != g })
		// The exit reads the park counts right after it bumps the generation.
		for end := time.Now().Add(50 * time.Microsecond); time.Now().Before(end); {
			runtime.Gosched()
		}
		st.mu.Lock()
	}
	t.Cleanup(func() { parkHook = nil })
}

// arm names the next round's pair (world ranks).
func (x *timedExit) arm(exiter, receiver int) {
	x.exit.Store(false)
	x.exiter.Store(int64(exiter))
	x.receiver.Store(int64(receiver))
}

// await returns, in the exiter, once its receiver is at its park.
func (x *timedExit) await(t *testing.T) { spinUntil(t, "the receiver's park", x.exit.Load) }

// pendingArrived returns the arrival count of the world's only unresolved
// rendezvous, or -1 when there is not exactly one.
func pendingArrived(w *World) int {
	w.state.RLock()
	defer w.state.RUnlock()
	if len(w.rvzTable) != 1 {
		return -1
	}
	for _, r := range w.rvzTable {
		return r.arrived
	}
	return -1
}

func pathName(event bool) string {
	if event {
		return "event"
	}
	return "goroutine"
}

// TestBlockedOpPacking checks the descriptor word round-trips what the wake
// filters read back, and that ids too wide for it fall back to the
// always-woken kind instead of aliasing another communicator or rank.
func TestBlockedOpPacking(t *testing.T) {
	for _, tc := range []struct{ comm, src int }{{0, 0}, {7, 4095}, {opIDMask, opIDMask - 1}} {
		op := recvOp(tc.comm, tc.src)
		if op.kind() != opRecv || op.comm() != tc.comm || op.src() != tc.src {
			t.Errorf("recvOp(%d, %d) reads back as kind %d comm %d src %d", tc.comm, tc.src, op.kind(), op.comm(), op.src())
		}
	}
	if op := rvzOp(99); op.kind() != opRvz || op.comm() != 99 {
		t.Errorf("rvzOp(99) reads back as kind %d comm %d", op.kind(), op.comm())
	}
	for name, op := range map[string]blockedOp{
		"recvOp, wide comm": recvOp(opIDMask+1, 0),
		"recvOp, wide src":  recvOp(0, opIDMask),
		"recvOp, no src":    recvOp(0, -1),
		"rvzOp, wide comm":  rvzOp(opIDMask + 1),
	} {
		if op != opAny {
			t.Errorf("%s = %#x, want opAny", name, uint64(op))
		}
	}
}

// TestSplitCommIDsFollowColorOrder is the regression test for communicator
// ids that depended on Go's map iteration order: buildSplit numbered a
// multi-colour split's communicators while ranging over a map, so the ids
// (which surface in /debug/ranks, watchdog dumps and WorldSnapshot.Pending)
// differed from run to run. They must ascend with the colour and repeat.
func TestSplitCommIDsFollowColorOrder(t *testing.T) {
	ids := func() [3]int {
		var mu sync.Mutex
		var got [3]int
		runWorld(t, 9, func(p *Proc) {
			c := p.World()
			color := c.Rank() % 3
			sub, err := c.Split(color, c.Rank())
			must(t, err)
			mu.Lock()
			got[color] = sub.sh.id
			mu.Unlock()
		})
		return got
	}
	first := ids()
	if !(first[0] < first[1] && first[1] < first[2]) {
		t.Errorf("communicator ids by colour = %v, want ascending with the colour", first)
	}
	for run := 1; run < 16; run++ {
		if again := ids(); again != first {
			t.Fatalf("run %d: communicator ids by colour = %v, first run had %v", run, again, first)
		}
	}
}

// TestRendezvousTableHoldsOnlyUnresolved is the soak test for rendezvous
// reclamation: thousands of Shrink/Split/Agree instances on one persistent
// 8-rank world, then one instance that a death completes and one that a death
// aborts. The table must never hold a resolved instance — at most the one
// the ranks are currently meeting in — and must be empty at the end, and an
// unresolved instance must still report its arrivals to World.Snapshot.
func TestRendezvousTableHoldsOnlyUnresolved(t *testing.T) {
	const n = 8
	instances := 10000
	if testing.Short() {
		instances = 1000
	}
	for _, event := range []bool{false, true} {
		t.Run(pathName(event), func(t *testing.T) {
			var world atomic.Pointer[World]
			runOnPath(t, Options{NProcs: n, EventWorkers: n, Watchdog: stallFails()}, event, func(p *Proc, o pathOps) {
				w := p.st.w
				world.Store(w)
				c := p.World()
				me := c.Rank()
				tableSize := func() int {
					w.state.RLock()
					defer w.state.RUnlock()
					return len(w.rvzTable)
				}
				afterDeath := func() {
					// Rank 7 died instead of arriving: Agree completed among
					// the survivors. A failOnDeath collective now aborts.
					o.split(c, 0, me, func(_ *Comm, err error) {
						if !errors.Is(err, ErrProcFailed) {
							t.Errorf("rank %d: Split after the death = %v, want ErrProcFailed", me, err)
						}
					})
				}
				midInstanceDeath := func() {
					if me == n-1 {
						spinUntil(t, "the other ranks to arrive", func() bool { return pendingArrived(w) == n-1 })
						snap := w.Snapshot()
						if len(snap.Pending) != 1 || snap.Pending[0].Arrived != n-1 || snap.Pending[0].Members != n {
							t.Errorf("Snapshot.Pending = %+v, want one agree with %d/%d arrived", snap.Pending, n-1, n)
						}
						p.Kill()
					}
					o.agree(c, 1, func(_ int, err error) {
						if !errors.Is(err, ErrProcFailed) {
							t.Errorf("rank %d: Agree completed by a death = %v, want ErrProcFailed", me, err)
						}
						afterDeath()
					})
				}
				o.loop(instances, func(i int, next func()) {
					if me == 0 && i%97 == 0 {
						// The other ranks may already be waiting in instance
						// i; every earlier one has resolved.
						if size := tableSize(); size > 1 {
							t.Errorf("instance %d: rendezvous table holds %d entries, want <= 1", i, size)
						}
					}
					checked := func(err error) {
						if err != nil {
							t.Errorf("rank %d instance %d: %v", me, i, err)
						}
						next()
					}
					switch i % 3 {
					case 0:
						o.shrink(c, func(_ *Comm, err error) { checked(err) })
					case 1:
						o.split(c, me%2, me, func(_ *Comm, err error) { checked(err) })
					default:
						o.agree(c, 1, func(_ int, err error) { checked(err) })
					}
				}, func() {
					o.barrier(c, func(err error) {
						must(t, err)
						// Past a barrier nobody is inside a rendezvous.
						if size := tableSize(); me == 0 && size != 0 {
							t.Errorf("after %d instances the rendezvous table holds %d entries, want 0", instances, size)
						}
						o.barrier(c, func(err error) {
							must(t, err)
							midInstanceDeath()
						})
					})
				})
			})
			w := world.Load()
			if len(w.rvzTable) != 0 {
				t.Errorf("rendezvous table holds %d entries after the run, want 0", len(w.rvzTable))
			}
		})
	}
}

// TestRendezvousDeathTimingTable extends TestFailOnDeathAbortIsDeterministic
// to every way a member's death can interleave with a rendezvous: it dies
// before anyone arrives; after it arrived itself; while every other member
// but a straggler is parked; and as the last missing member, so that the
// death — not an arrival — completes the instance. For each of the three
// failure modes, on both execution paths and at GOMAXPROCS 1 and NumCPU,
// every survivor must see the same result, the same error and the same
// clock: the outcome is a function of who is alive at completion and of the
// survivors' arrival clocks, never of the interleaving. The victim carries
// the LARGEST clock, so counting a dead member's arrival would show.
func TestRendezvousDeathTimingTable(t *testing.T) {
	const (
		n         = 5
		victim    = 3
		straggler = 1
	)
	type timing int
	const (
		diesBeforeAll timing = iota
		diesAfterArriving
		diesWhileOthersParked
		diesAsLastMissing
		numTimings
	)
	timingName := [...]string{"before-anyone-arrives", "after-it-arrived", "while-others-parked", "as-last-missing"}

	type mode struct {
		name string
		// run performs the collective and hands a fingerprint of (result,
		// error) to k.
		run func(o pathOps, c *Comm, k func(string))
	}
	modes := []mode{
		{"failOnDeath", func(o pathOps, c *Comm, k func(string)) {
			o.split(c, 0, c.Rank(), func(sub *Comm, err error) {
				if sub != nil || !errors.Is(err, ErrProcFailed) {
					k(fmt.Sprintf("UNEXPECTED split = (%v, %v)", sub, err))
					return
				}
				k("split aborted")
			})
		}},
		{"reportDeath", func(o pathOps, c *Comm, k func(string)) {
			o.agree(c, ^(1 << c.Rank()), func(flag int, err error) {
				if !errors.Is(err, ErrProcFailed) {
					k(fmt.Sprintf("UNEXPECTED agree err = %v", err))
					return
				}
				k(fmt.Sprintf("agree %#x", flag))
			})
		}},
		{"ignoreDeath", func(o pathOps, c *Comm, k func(string)) {
			o.shrink(c, func(sub *Comm, err error) {
				if err != nil {
					k(fmt.Sprintf("UNEXPECTED shrink err = %v", err))
					return
				}
				k(fmt.Sprintf("shrunk rank %d of %v", sub.Rank(), sub.Group()))
			})
		}},
	}
	// Survivors' flags clear bits 0, 1, 2 and 4; the victim's bit 3 stays.
	wantAgree := fmt.Sprintf("agree %#x", ^(1<<0 | 1<<1 | 1<<2 | 1<<4))

	one := func(t *testing.T, m mode, tm timing, event bool) [n]string {
		var world atomic.Pointer[World]
		var killed atomic.Bool
		var mu sync.Mutex
		var got [n]string

		// The victim of the two "it had arrived" timings is parked inside
		// the rendezvous and cannot kill itself: a controller declares it
		// dead from outside, the way an abort does.
		controller := make(chan struct{})
		go func() {
			defer close(controller)
			wantArrived := map[timing]int{diesAfterArriving: 1, diesWhileOthersParked: n - 1}[tm]
			if wantArrived == 0 {
				return
			}
			spinUntil(t, "the world to start", func() bool { return world.Load() != nil })
			w := world.Load()
			spinUntil(t, "the arrivals before the death", func() bool { return pendingArrived(w) == wantArrived })
			w.markFailed(w.proc(victim))
			killed.Store(true)
		}()

		runOnPath(t, Options{NProcs: n, EventWorkers: n, Watchdog: stallFails()}, event, func(p *Proc, o pathOps) {
			w := p.st.w
			c := p.World()
			me := c.Rank()
			if me == victim {
				p.Compute(10)
			} else {
				p.Compute(float64(me + 1))
			}
			world.Store(w)
			enter := func() {
				m.run(o, c, func(fp string) {
					mu.Lock()
					got[me] = fmt.Sprintf("%s @%#x", fp, math.Float64bits(p.Now()))
					mu.Unlock()
				})
			}
			switch tm {
			case diesBeforeAll:
				if me == victim {
					p.Kill()
				}
				spinUntil(t, "the victim's death", func() bool { return !p.st.w.alive(victim) })
			case diesAfterArriving:
				if me != victim {
					spinUntil(t, "the controller's kill", killed.Load)
				}
			case diesWhileOthersParked:
				if me == straggler {
					spinUntil(t, "the controller's kill", killed.Load)
				}
			case diesAsLastMissing:
				if me == victim {
					spinUntil(t, "the other ranks to arrive", func() bool { return pendingArrived(w) == n-1 })
					p.Kill()
				}
			}
			enter()
		})
		<-controller
		got[victim] = "" // a zombie's view is nobody's business
		return got
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			var ref [n]string
			for _, gmp := range []int{1, runtime.NumCPU()} {
				runtime.GOMAXPROCS(gmp)
				for _, event := range []bool{false, true} {
					for tm := timing(0); tm < numTimings; tm++ {
						got := one(t, m, tm, event)
						where := fmt.Sprintf("GOMAXPROCS=%d %s %s", gmp, pathName(event), timingName[tm])
						if ref == ([n]string{}) {
							ref = got
							t.Logf("%s: %q", where, got)
						}
						if got != ref {
							t.Errorf("%s:\n got %q\nwant %q (the first run's)", where, got, ref)
						}
					}
				}
			}
			for rank, fp := range ref {
				if rank == victim {
					continue
				}
				if len(fp) == 0 || fp[0] == 'U' {
					t.Errorf("rank %d: %q", rank, fp)
				}
				if m.name == "reportDeath" && fp[:len(wantAgree)] != wantAgree {
					t.Errorf("rank %d: %q, want prefix %q (AND over the survivors only)", rank, fp, wantAgree)
				}
			}
		})
	}
}

// TestControlPlaneLostWakeStress holds 480 ranks in every kind of wait the
// wake filter and the park counts distinguish — receive from a named source
// on one communicator, on another, rendezvous, receive on a revoked
// communicator, inside a barrier, and plainly running — while
// other ranks Kill themselves, exit normally, Revoke and abort a barrier at
// varying real-time offsets. Each waiter can only be released by the one
// event that concerns it, and every other event must pass it by without
// losing that one: a lost wake stalls the world, and the armed watchdog
// fails the test with the per-rank blocked-op dump.
//
// Three groups aim at the events that may skip their walk when no parked
// process is counted as concerned (World.mayWake): a second revoker whose
// quiesce record is all that releases its receivers; aborts of a barrier
// entered only after its communicator was revoked, whose receivers are
// counted as parked on a revoked communicator, not on the aborter; and a
// normal exit timed, on the goroutine path, to land between a receiver's
// publish and its park.
func TestControlPlaneLostWakeStress(t *testing.T) {
	const (
		nprocs = 480
		group  = 48
		tag    = 5
	)
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	const (
		namedKill    = iota // receive from the group's rank 0, which kills itself
		namedExit           // ... which exits normally
		rendezvous          // Agree; rank 0 kills itself instead of arriving
		revoke              // receives only a revocation resolves; rank 0 revokes
		barrier             // Barrier; rank 0 kills itself instead of entering
		running             // ring traffic, then a normal exit
		crossComm           // receive on the WORLD communicator from a rank of the running group
		secondRevoke        // receives naming rank 1, which revokes after rank 0 did
		abortRevoked        // a barrier entered after rank 0 revoked its communicator
		exitMidPark         // pairs: the odd member receives from the even one, which exits
	)
	var timed timedExit
	for _, event := range []bool{false, true} {
		t.Run(pathName(event), func(t *testing.T) {
			if !event {
				timed.install(t)
			}
			for round := 0; round < rounds && !t.Failed(); round++ {
				// The timed pair of the exitMidPark group.
				pair := exitMidPark*group + 2*(round%(group/2))
				timed.arm(pair, pair+1)
				runOnPath(t, Options{NProcs: nprocs, Machine: vtime.OPL(), EventWorkers: 4, Watchdog: stallFails()}, event, func(p *Proc, o pathOps) {
					world := p.World()
					me := world.Rank()
					color := me / group
					want := func(what string, err, target error) {
						if !errors.Is(err, target) {
							t.Errorf("round %d rank %d (%s): got %v, want %v", round, me, what, err, target)
						}
					}
					o.split(world, color, me, func(g *Comm, err error) {
						if err != nil {
							t.Errorf("round %d rank %d: split: %v", round, me, err)
							return
						}
						gr := g.Rank()
						// The revoke group stays alive until all its members
						// are through, so that no exit does a lost wake's work.
						revoked := func() {
							o.agree(g, 1, func(_ int, err error) { want("agree after the revocation", err, nil) })
						}
						if color == exitMidPark {
							// Each exit is named by one receiver only, so no
							// other park counted on it forces a walk. One pair
							// per round is timed on the goroutine path.
							if gr%2 == 1 {
								o.recv(g, gr-1, tag, func(err error) { want("recv from a rank that exited", err, ErrProcFailed) })
							} else if o.f == nil && me == pair {
								timed.await(t)
							} else {
								for i := 0; i < (round*7+gr*13)%61; i++ {
									runtime.Gosched()
								}
							}
							return
						}
						if gr == 0 && color != running && color != crossComm {
							// The group's actor: let a round-dependent number
							// of its waiters get anywhere between "not yet
							// published" and "parked" before it acts.
							for i := 0; i < (round*7+color*13)%61; i++ {
								runtime.Gosched()
							}
							switch color {
							case namedKill, rendezvous, barrier:
								p.Kill()
							case revoke, secondRevoke:
								_ = g.Revoke()
								revoked()
							case abortRevoked:
								_ = g.Revoke()
								// Let the others in only now: their barrier
								// runs on a communicator already revoked.
								for r := 1; r < group; r++ {
									must(t, Send(world, color*group+r, tag, []int{r}))
								}
								revoked()
							}
							return // namedExit
						}
						if gr == 1 && color == secondRevoke {
							// The second revoker: its revocation is not the
							// first, and its quiesce record is the only event
							// that releases the receivers naming it.
							if o.f == nil {
								target := p.st.w.proc(color*group + 2 + round%(group-2))
								spinUntil(t, "the first revocation and a receiver's publish", func() bool {
									return g.sh.revoked.Load() && receiving(target)
								})
							}
							for i := 0; i < round%5; i++ {
								runtime.Gosched()
							}
							_ = g.Revoke()
							revoked()
							return
						}
						switch color {
						case namedKill, namedExit:
							o.recv(g, 0, tag, func(err error) { want("recv from a rank that left", err, ErrProcFailed) })
						case secondRevoke:
							o.recv(g, 1, tag, func(err error) {
								want("recv from the second revoker", err, ErrRevoked)
								revoked()
							})
						case abortRevoked:
							o.recv(world, color*group, tag, func(err error) {
								must(t, err)
								o.barrier(g, func(err error) {
									if !errors.Is(err, ErrRevoked) && !errors.Is(err, ErrProcFailed) {
										t.Errorf("round %d rank %d (barrier on a revoked communicator): got %v, want ErrRevoked or ErrProcFailed", round, me, err)
									}
									revoked()
								})
							})
						case rendezvous:
							o.agree(g, 1, func(_ int, err error) { want("agree", err, ErrProcFailed) })
						case revoke:
							// Three ways a receive on a revoked communicator
							// resolves, none of which is a death: it names
							// the revoker (the Revoke wakes it); it names a
							// rank of the first kind (that rank's quiesce
							// record wakes it); or two ranks name each other
							// and only the deadlock detector, re-run on every
							// quiesce, can release them.
							src := 0
							switch {
							case gr%4 == 2:
								src = gr - 1
							case gr%4 == 3 && gr+1 < group:
								src = gr + 1
							case gr%4 == 0:
								src = gr - 1
							}
							o.recv(g, src, tag, func(err error) {
								want("recv on a revoked communicator", err, ErrRevoked)
								revoked()
							})
						case barrier:
							o.barrier(g, func(err error) { want("barrier", err, ErrProcFailed) })
						case running:
							next, prev := (gr+1)%group, (gr+group-1)%group
							o.loop(20, func(_ int, cont func()) {
								must(t, Send(g, next, tag, []int{gr}))
								o.recv(g, prev, tag, func(err error) {
									must(t, err)
									cont()
								})
							}, func() {})
						case crossComm:
							// World rank of the same position in the running
							// group: it never sends on the world communicator
							// and exits when its ring traffic is done.
							o.recv(world, running*group+gr, tag, func(err error) { want("recv on the world communicator", err, ErrProcFailed) })
						}
					})
				})
			}
		})
	}
}
