// Package mpi is a from-scratch, in-process message-passing runtime with the
// semantics the paper's fault-tolerant PDE solver needs from Open MPI plus
// the draft ULFM (User Level Failure Mitigation) extensions: communicators
// and groups, point-to-point messaging with tags, collectives
// with non-uniform failure reporting, dynamic process management
// (MPI_Comm_spawn_multiple, intercommunicators, MPI_Intercomm_merge), and
// the ULFM calls OMPI_Comm_revoke, OMPI_Comm_shrink, OMPI_Comm_agree,
// OMPI_Comm_failure_ack and OMPI_Comm_failure_get_acked.
//
// Each simulated MPI process is a goroutine with a private virtual clock
// (see internal/vtime). Process failure is fail-stop: the victim aborts via
// Proc.Kill (the analogue of the paper's kill(getpid(), SIGKILL)); the
// runtime marks it failed and wakes every peer blocked on it so pending and
// future operations observe MPI_ERR_PROC_FAILED, exactly as a ULFM MPI
// reports a dead partner.
//
// # Lock hierarchy
//
// The transport is sharded so the failure-free fast path never serialises
// on job-wide state (see DESIGN.md, "Transport"):
//
//   - World.state, a seldom-written RWMutex, guards membership, failure,
//     revocation/abort records, rendezvous tables and communicator-id
//     allocation. Read-locked briefly on failure checks; write-locked only
//     by cold control-plane events (death, revoke, collective abort,
//     rendezvous, spawn).
//   - procState.mu, one per process, guards that process's mailbox, wakeup
//     epoch, blocked-receive descriptor and namer list. A send takes only
//     the destination's mu; a receive the caller's own and — a collective's,
//     once it may park — the source's, holding no other lock, to join and
//     leave the source's namer list.
//   - World.procs is an atomic copy-on-write snapshot, read lock-free;
//     procState.alive is atomic; procState.clock and slab are owner-only.
//
// Ordering: World.state is always acquired before any procState.mu; when
// several procState.mu are held together (only the revoked-deadlock
// detector does this) they are taken in ascending world rank; no code path
// acquires World.state while holding a procState.mu.
//
// Blocking uses an epoch protocol instead of a global broadcast: every
// event that could unblock a process (message delivery, death, revoke,
// abort, rendezvous resolution) increments the target's epoch under its mu
// and signals its condvar. A parker re-checks its wake conditions, then
// parks only if the epoch is unchanged since before the checks — so a wake
// that races with the checks is never lost.
//
// Control-plane events (death, revoke, abort, rendezvous resolution) reach
// only the processes they can affect: before it reads its epoch, a process
// publishes what it may park on (procState.blocked, one atomic word), and
// the event skips, without taking its mu, every process whose published
// wait it cannot resolve. A process that publishes after the event's read
// runs its checks after the event's state change and sees it, so skipping
// loses no wake (see blockedOp and DESIGN.md §8).
//
// An event that every rank of a repair performs — a collective abort, a
// revocation after the first, a quiesce, a death or exit — skips even that
// walk when no sleeping process can be concerned: a goroutine-path process
// is counted while asleep (procState.park), a named receive on its source
// and every other wait on a World counter, and a world event generation
// pairs the counts with the events (see World.mayWake). A collective abort
// that cannot skip does not walk either: every goroutine-path receive of a
// collective is linked, for its duration, on the namer list of the process
// it names, and the abort wakes from the aborter's list (World.wakeNamers).
//
// A message arrival is narrower still: it always bumps the destination's
// epoch, but signals only a process it can unblock — one parked in a
// receive of another signature sleeps on (see procState.enqueue). And a
// receiver parked in RecvInto publishes its buffer under mu, so a matching
// send is copied straight into it (deliverDirect) instead of being queued.
//
// Every other wake site funnels through procState.notifyLocked, which serves two
// blocking disciplines behind one protocol: a goroutine-per-rank process
// sleeping on its condvar (Options.Entry), and a parked continuation on the
// event-driven path (Options.EventEntry; see event.go and exec.go), which
// notifyLocked hands back to the bounded executor instead. See DESIGN.md
// §13 for the continuation protocol.
package mpi

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ftsg/internal/metrics"
	"ftsg/internal/topo"
	"ftsg/internal/vtime"
)

// killSignal is the panic payload used by Proc.Kill to emulate SIGKILL.
type killSignal struct{}

// procState is the runtime's view of one simulated process. wrank and host
// are immutable; alive is atomic; clock and sl are touched only by the
// owning goroutine (peers read the clock only at rendezvous points where
// the owner is provably blocked); everything from mu down is guarded by mu.
type procState struct {
	w      *World
	wrank  int // world-unique process id (never reused)
	host   int // index into the cluster's host list
	rack   int // rack of that host (immutable, like host)
	alive  atomic.Bool
	clock  vtime.Clock
	sl     slab   // refill arena of the buffer pool; owner-only (senders carve from their own)
	opHook OpHook // operation observer; owner-only (see ophook.go)
	curOp  string // collective in progress; owner-only (hop attribution)

	// blocked is the blockedOp this process may be about to park on,
	// published by its owner before the epoch read of a blocking loop and
	// cleared when the operation returns. Wakers read it lock-free.
	blocked atomic.Uint64
	// intoSet mirrors "into names a buffer" for a sender's lock-free peek
	// (see sendEnv); written under mu.
	intoSet atomic.Bool
	// namedBy counts the goroutines asleep in a receive that names this
	// process on a communicator that was not revoked when they parked (see
	// park and World.mayWake). It fills padding before mu: procState does not
	// grow.
	namedBy atomic.Int32

	// mu, epoch, cont and cond lead the guarded fields, in that order: they
	// are all a control-plane wake touches, and a death or a resolved
	// rendezvous wakes thousands of processes whose state is cold.
	mu    sync.Mutex
	epoch uint64 // bumped by every event that may unblock the owner
	// cont is the rank's parked continuation on the event-driven path
	// (nil while runnable, queued, or on the goroutine path). A fiber is
	// published here only by its own park in World.driveFiber; notifyLocked
	// unparks it by handing it to the executor, so a fiber is never queued
	// twice. See event.go.
	cont *Fiber
	cond sync.Cond // on mu; the owning goroutine is the only waiter
	// waitSh/waitSrc/waitTag describe the receive this process is blocked
	// in (waitSh nil while runnable). They feed the revoked-communicator
	// deadlock detector: when every live, non-quiesced member of a revoked
	// communicator is blocked on it with no pending resolution, none of
	// them can ever send again, so the whole group resolves to
	// MPI_ERR_REVOKED. A message arrival reads them too, to tell whether it
	// is the one awaited.
	waitSh  *commShared
	waitSrc int
	waitTag int
	mb      mailbox
	// into is the buffer a RecvInto has published for the duration of its
	// park: a matching send copies its payload there (deliverDirect) and
	// records the message in got, instead of queueing it. Published and
	// retracted under mu; see recvMatch for who may write it and when.
	into intoBuf
	got  directMsg
	// namers heads the list of goroutine-path collective receives that name
	// this process, linked through their nextNamer: a receive joins the list
	// of its source before its verdict check and leaves it when it returns
	// (joinNamers), so an abort wakes its receivers without walking the
	// communicator. Both fields are guarded by the mu of the named process,
	// which is not the owner's mu for nextNamer.
	namers, nextNamer *procState
	// Wake-up accounting of the blocking receive loop, bumped only where mu
	// is already held: parks taken, parks whose wake resolved nothing (the
	// loop parked again), and messages delivered straight into a published
	// buffer. They depend on goroutine scheduling, so they are surfaced by
	// Snapshot and the stall dump, never by the metrics registry.
	parks, emptyWakes, directs uint64
}

// notifyLocked is the single wake primitive behind every unblock-capable
// event: it bumps the epoch, signals the condvar (goroutine path — one
// goroutine owns each process, so there is at most one waiter and Signal
// suffices), and hands a parked continuation back to the executor (event
// path). Caller holds st.mu; the executor queue lock nests strictly inside
// every transport lock.
func (st *procState) notifyLocked() {
	st.epoch++
	st.cond.Signal()
	if f := st.cont; f != nil {
		st.cont = nil
		st.waitSh = nil
		st.w.noteParked(-1)
		st.w.exec.ready(f)
	}
}

// wake bumps the process's epoch and wakes it (condvar or parked
// continuation) under its own lock.
func (st *procState) wake() {
	st.mu.Lock()
	st.notifyLocked()
	st.mu.Unlock()
}

// epochNow reads the process's current wakeup epoch.
func (st *procState) epochNow() uint64 {
	st.mu.Lock()
	e := st.epoch
	st.mu.Unlock()
	return e
}

// parkHook, when set, runs twice in park with st.mu held: after its epoch
// check and before the park is counted (counted false: the owner has
// finished its wake checks but no event can see it asleep yet), and after
// the generation re-read (counted true: only a wake that reaches the owner
// through its published wait can end the park). Tests set it (before Run)
// to land an event exactly there; it is nil otherwise.
var parkHook func(st *procState, counted bool)

// park is the one place a goroutine-path process sleeps in an operation: on
// its condvar, until an event moves its epoch past e, counted on n while
// asleep. e and g are the epoch and event generation the caller read before
// its wake checks; if either has moved since, park returns at once and the
// caller loops to re-run its checks. Caller holds st.mu (cond.Wait releases
// it while asleep). Reports whether it slept.
//
// The count is what lets a control-plane event skip its walk when nothing it
// concerns is asleep (World.mayWake). The pairing is Dekker's: park
// increments n, then reads the generation; the event makes its state change,
// bumps the generation, then reads the counts. Whichever reads second sees
// the other's write: either the event counts this parker and walks (finding
// the wait published in blocked), or park finds the generation moved and the
// caller's next checks observe the state change.
func (st *procState) park(e, g uint64, n *atomic.Int32) bool {
	if st.epoch != e {
		return false
	}
	if parkHook != nil {
		parkHook(st, false)
	}
	n.Add(1)
	if st.w.evGen.Load() != g {
		n.Add(-1)
		return false
	}
	if parkHook != nil {
		parkHook(st, true)
		if st.epoch != e { // the hook released mu: a wake may have landed
			n.Add(-1)
			return false
		}
	}
	st.cond.Wait()
	n.Add(-1)
	return true
}

// blockedOp describes the wait a process may be about to park in, packed
// into one atomically readable word: kind, communicator id and — for a
// receive — the world rank of the named source. It exists so control-plane
// events can tell, without the process's mu, that they cannot be what the
// process is waiting for.
//
// The owner stores it BEFORE reading the epoch that gates its park, and an
// event loads it AFTER making its state change (under World.state, or to an
// atomic flag). So when an event reads a stale word and skips the process,
// the process's store — and every check it runs afterwards — follows the
// state change and observes it; when the event reads the current word, it
// wakes the process through the ordinary epoch bump. Either way no wake is
// lost. A word left over from a finished operation only costs a spurious
// wake.
type blockedOp uint64

const (
	opNone blockedOp = iota // runnable: no control-plane event concerns it
	opRecv                  // receive on comm from a named world rank
	opRvz                   // rendezvous collective on comm
	opAny                   // unclassified wait: every event wakes it

	opKindBits = 2
	opIDBits   = 31
	opIDMask   = 1<<opIDBits - 1
)

// recvOp describes a receive on communicator commID from world rank src.
// Ids outside the packed width degrade to opAny.
func recvOp(commID, src int) blockedOp {
	if commID > opIDMask || uint(src) >= opIDMask {
		return opAny
	}
	return opRecv | blockedOp(commID)<<opKindBits | blockedOp(src)<<(opKindBits+opIDBits)
}

// rvzOp describes a rendezvous collective on communicator commID.
func rvzOp(commID int) blockedOp {
	if commID > opIDMask {
		return opAny
	}
	return opRvz | blockedOp(commID)<<opKindBits
}

func (o blockedOp) kind() blockedOp { return o & (1<<opKindBits - 1) }
func (o blockedOp) comm() int       { return int(o >> opKindBits & opIDMask) }

// src returns the named source's world rank.
func (o blockedOp) src() int { return int(o >> (opKindBits + opIDBits) & opIDMask) }

// block publishes the wait the owner is about to enter; unblock retracts it
// once the operation has returned.
func (st *procState) block(op blockedOp) { st.blocked.Store(uint64(op)) }
func (st *procState) unblock()           { st.blocked.Store(uint64(opNone)) }

// joinNamers links the owner's receive on the namer list of src, the process
// it names; leaveNamers unlinks it. A receive joins before its verdict check
// reads the abort records, so an abort, which reads the list after it has
// made its record, either finds the receive listed or is seen by the
// verdict. Neither may run under the owner's mu: two ranks that name each
// other would take the two locks in opposite orders.
func (st *procState) joinNamers(src *procState) {
	src.mu.Lock()
	st.nextNamer = src.namers
	src.namers = st
	src.mu.Unlock()
}

func (st *procState) leaveNamers(src *procState) {
	src.mu.Lock()
	for p := &src.namers; *p != nil; p = &(*p).nextNamer {
		if *p == st {
			*p = st.nextNamer
			break
		}
	}
	st.nextNamer = nil
	src.mu.Unlock()
}

// World owns all simulated processes of one MPI job, including processes
// created later by SpawnMultiple. See the package comment for the lock
// hierarchy.
type World struct {
	machine *vtime.Machine
	cluster *topo.Cluster
	entry   func(*Proc)
	// eventEntry is the fiber program of the event-driven path (nil on the
	// goroutine path). spawnLocked/claimLocked dispatch children through it
	// via startProcLocked, so re-spawned replacements and claimed spares run
	// as fibers on the same executor as the initial ranks.
	eventEntry func(*Proc, *Fiber)
	wm         *worldMetrics // nil when instrumentation is disabled

	// linkAlpha/linkBeta are the machine's per-tier LogGP parameters,
	// resolved once at Run so the send hot path indexes an array instead of
	// re-applying the zero-value fallbacks per message.
	linkAlpha [vtime.NumTiers]float64
	linkBeta  [vtime.NumTiers]float64

	// flatColl forces the flat single-level collective algorithms even on
	// multi-host clusters (Options.FlatCollectives); the differential tests
	// use it as the reference implementation.
	flatColl bool
	// aborted is set once by abort and read at the entry of every operation
	// (hookOp), next to procs, which the hot paths also read.
	aborted atomic.Bool

	// procs is a copy-on-write snapshot of all processes, loaded lock-free
	// by the hot paths. Entries are never removed or reordered;
	// SpawnMultiple publishes a grown copy while holding state.
	procs atomic.Pointer[[]*procState]

	// exec is the bounded continuation executor of the event-driven path
	// (nil on the goroutine path). goroPeak tracks the high-water mark of
	// runtime.NumGoroutine() over the run; parkedNow counts ranks currently
	// parked as continuations. Both feed the mpi.goroutines.peak and
	// mpi.ranks.parked gauges and the introspection snapshot.
	exec      *executor
	goroPeak  atomic.Int64
	parkedNow atomic.Int64

	state      sync.RWMutex
	nextCommID int
	// rvzTable holds the unresolved rendezvous instances only: an entry is
	// removed the moment it resolves (its members keep the pointer).
	rvzTable   map[rvzKey]*rendezvous
	mergeTable map[rvzKey]*mergeEntry
	// deathGen counts endProc calls. A rendezvous remembers the generation
	// its alive/dead member counts were taken at and recounts only when a
	// process has left since.
	deathGen uint64
	// revokedComms is the set of revoked communicator ids: a death can
	// complete the revoked-communicator deadlock condition for a process
	// parked in a receive on one of them, whoever its source is.
	revokedComms map[int]bool

	// Park accounting of the goroutine path (see procState.park). evGen
	// counts the control-plane events that consult it; the counters hold the
	// processes asleep in each kind of wait not counted on its source
	// (procState.namedBy): a receive on a communicator revoked when it
	// parked, and a rendezvous.
	evGen                    atomic.Uint64
	parkedRevoked, parkedRvz atomic.Int32
	// wakes is the wake work of each kind of control-plane event. It
	// depends on scheduling, so Snapshot reports it and nothing else does.
	wakes [numWakeEvents]wakeStats

	failed  []int // world ranks, in failure order
	spawned int
	// spareFree holds the world ranks of parked spare processes not yet
	// claimed, in creation order; sparesUsed counts claims. Both guarded by
	// state, like spawned.
	spareFree  []int
	sparesUsed int
	maxTime    float64
	wg         sync.WaitGroup
	// cause is the first abort's cause, which Run returns (guarded by state).
	cause error
}

// snapshot returns the current process table (lock-free).
func (w *World) snapshot() []*procState { return *w.procs.Load() }

// proc returns the procState of world rank r.
func (w *World) proc(r int) *procState { return w.snapshot()[r] }

// alive reports whether world rank r is currently alive (lock-free).
func (w *World) alive(r int) bool {
	ps := w.snapshot()
	return r >= 0 && r < len(ps) && ps[r].alive.Load()
}

// wakeEvent is a kind of control-plane event that wakes the processes it
// may concern.
type wakeEvent int

const (
	evAbort      wakeEvent = iota // abortCollective
	evQuiesce                     // a revocation or quiesce record (quiesceLocked)
	evDeparture                   // a death or normal exit (wakeForDeath)
	evRendezvous                  // a resolved rendezvous (rvzPoll)
	numWakeEvents
)

var wakeEventNames = [numWakeEvents]string{"abort", "quiesce", "departure", "rendezvous"}

// wakeStats counts one event kind's wake work: events that mayWake let skip
// it, walks over a communicator's members (or every process), namer-list
// reads, the blocked-op descriptors those examined and the processes woken.
type wakeStats struct {
	skipped, walks, lists, examined, woken atomic.Uint64
}

// note records one walk (list false) or namer-list read that examined
// examined descriptors and woke woken processes.
func (s *wakeStats) note(list bool, examined, woken int) {
	if list {
		s.lists.Add(1)
	} else {
		s.walks.Add(1)
	}
	s.examined.Add(uint64(examined))
	s.woken.Add(uint64(woken))
}

// mayWake reports whether a control-plane event by (or the departure of)
// process src may find a goroutine to wake. It is called after the event's
// state change and bumps the event generation before it reads the park
// counts (see procState.park). Every event counts the receives on a
// communicator revoked when they parked and the receives naming src; a
// departure also counts the rendezvous waits it may complete, which it can
// only if a rendezvous is still waiting for src (rvzAwaits). On the
// event-driven path fibers park uncounted, so no event skips.
func (w *World) mayWake(ev wakeEvent, src *procState) bool {
	if w.eventEntry != nil {
		return true
	}
	w.evGen.Add(1)
	n := w.parkedRevoked.Load() + src.namedBy.Load()
	if ev == evDeparture && w.rvzAwaits(src) {
		n += w.parkedRvz.Load()
	}
	if n > 0 {
		return true
	}
	w.wakes[ev].skipped.Add(1)
	return false
}

// rvzAwaits reports whether an unresolved rendezvous has st as a member
// that has not arrived: only then can st's departure complete it. A death
// of a member that has arrived, or of a non-member, leaves every count the
// resolution waits for as it was, and a resolved rendezvous has already
// woken its members (rvzPoll). Caller holds state (write).
func (w *World) rvzAwaits(st *procState) bool {
	for _, r := range w.rvzTable {
		if pos := slices.Index(r.members, st.wrank); pos >= 0 && !r.slots[pos].here {
			return true
		}
	}
	return false
}

// everySource is wakeWaiters' src for an event that concerns every wait of
// its kind on the communicator, whatever it names.
const everySource = -1

// wakeWaiters wakes the members of communicator commID whose published wait
// the event can resolve: for a resolved rendezvous, the rendezvous waits on
// it; otherwise the receives on it — naming world rank src unless src is
// everySource. A revocation or a quiesce record wakes every receive on the
// communicator (any of them may now resolve, through its source's quiesce
// or the revoked-deadlock detector); a collective abort on the event path
// wakes just the receives awaiting the aborter (the goroutine path reads
// the aborter's namer list instead, World.wakeNamers).
// Caller has made the state change the waiters must observe, and has
// consulted mayWake where the event allows a skip.
func (w *World) wakeWaiters(ev wakeEvent, members []int, commID, src int) {
	kind := opRecv
	if ev == evRendezvous {
		kind = opRvz
	}
	ps := w.snapshot()
	woken := 0
	for _, r := range members {
		q := ps[r]
		op := blockedOp(q.blocked.Load())
		if k := op.kind(); k == opAny ||
			k == kind && op.comm() == commID && (src == everySource || op.src() == src) {
			q.wake()
			woken++
		}
	}
	w.wakes[ev].note(false, len(members), woken)
}

// wakeNamers wakes the goroutine-path receives on communicator commID that
// name st — the receivers st's collective abort can resolve — from st's
// namer list, in O(namers) instead of a walk over the communicator. The
// list is copied under st.mu and the wakes made after it is released, so
// no two process locks are held together. Caller holds state (write), has
// recorded the abort and has consulted mayWake.
func (w *World) wakeNamers(st *procState, commID int) {
	var buf [16]*procState
	list := buf[:0]
	st.mu.Lock()
	for q := st.namers; q != nil; q = q.nextNamer {
		list = append(list, q)
	}
	st.mu.Unlock()
	want := recvOp(commID, st.wrank)
	woken := 0
	for _, q := range list {
		if op := blockedOp(q.blocked.Load()); op == want || op.kind() == opAny {
			q.wake()
			woken++
		}
	}
	w.wakes[evAbort].note(true, len(list), woken)
}

// wakeForDeath wakes every live process whose wait the departure of st can
// resolve: a receive naming it, a receive on a revoked communicator (the
// deadlock detector skips dead members), and any rendezvous (it completes
// among the survivors). The walk is skipped when none of those is asleep.
// Caller holds state (write).
func (w *World) wakeForDeath(st *procState) {
	if !w.mayWake(evDeparture, st) {
		return
	}
	dead := st.wrank
	ps := w.snapshot()
	woken := 0
	for _, q := range ps {
		op := blockedOp(q.blocked.Load())
		if op == opNone || !q.alive.Load() {
			continue
		}
		if op.kind() == opRecv {
			if op.src() != dead && !w.revokedComms[op.comm()] {
				continue
			}
		}
		q.wake()
		woken++
	}
	w.wakes[evDeparture].note(false, len(ps), woken)
}

// Options configures a World run.
type Options struct {
	// NProcs is the initial number of processes (the size of the initial
	// MPI_COMM_WORLD).
	NProcs int
	// Machine supplies the virtual-time cost model; nil means vtime.Generic.
	Machine *vtime.Machine
	// Cluster is the physical layout; nil means the smallest uniform
	// cluster that fits NProcs at Machine.SlotsPerHost.
	Cluster *topo.Cluster
	// Entry is the program run by every process, including re-spawned
	// ones (which see a non-nil Proc.Parent, like a process started by
	// MPI_Comm_spawn_multiple). Exactly one of Entry and EventEntry must
	// be set.
	Entry func(*Proc)
	// EventEntry selects the event-driven path: instead of one goroutine
	// per rank, every rank is a continuation-passing fiber driven by a
	// bounded executor pool, and blocking operations park the rank as a
	// registered completion rather than a sleeping goroutine stack. The
	// program uses the Fiber* operations for anything that blocks
	// (FiberRecv, FiberBarrier, FiberAllreduce, FiberAgree, ...); sends
	// and compute charges never block and work unchanged. See event.go.
	EventEntry func(*Proc, *Fiber)
	// EventWorkers bounds the executor pool of the event-driven path;
	// <= 0 selects runtime.GOMAXPROCS(0) (the harness.ParallelOrdered
	// discipline — one worker runs inline on the caller, so a
	// single-worker run spawns no extra goroutines).
	EventWorkers int
	// Metrics, when non-nil, attaches instrumentation: message/byte
	// counters, per-rank totals, per-op virtual-latency histograms and
	// cost attribution per model component (see internal/mpi/metrics.go
	// for the instrument names). nil disables instrumentation at zero
	// cost to the hot paths.
	Metrics *metrics.Registry
	// Watchdog, when its Timeout is non-zero, monitors the run for stalls
	// and dumps per-rank blocked-op/mailbox state when no transport progress
	// happens for a full timeout interval (see watchdog.go). The zero value
	// disables it.
	Watchdog Watchdog
	// Introspect, when non-nil, registers the World for the duration of the
	// run so external observers (the telemetry server's /debug/ranks) can
	// take on-demand blocked-op snapshots. See introspect.go.
	Introspect *Introspection
	// FlatCollectives disables the topology-aware hierarchical collective
	// algorithms, running every collective as a flat single-level algorithm
	// over the whole communicator (the pre-hierarchy behaviour). The
	// differential tests use it as the reference implementation.
	FlatCollectives bool
	// SpareRanks pre-allocates that many extra processes parked at startup:
	// they are not members of MPI_COMM_WORLD and run no code until a
	// Comm.ClaimSpares wakes them as replacements (the substitute recovery
	// mode), on either execution path.
	SpareRanks int
	// SpareHosts names the hosts the spare processes are placed on, cycled
	// when shorter than SpareRanks; empty places every spare on host 0.
	SpareHosts []string
}

// Report summarises a completed run.
type Report struct {
	// MaxVirtualTime is the latest virtual clock over all processes,
	// including failed ones at their time of death.
	MaxVirtualTime float64
	// Failed lists world ranks that died, in failure order.
	Failed []int
	// Spawned counts processes created by SpawnMultiple.
	Spawned int
	// SparesUsed counts pre-allocated spare processes consumed by
	// ClaimSpares (the substitute recovery mode).
	SparesUsed int
	// GoroutinesPeak is the high-water mark of runtime.NumGoroutine()
	// sampled over the run — the goroutine-per-rank path holds O(ranks),
	// the event-driven path O(EventWorkers). Wall-clock-dependent;
	// excluded from every determinism fingerprint.
	GoroutinesPeak int
}

// Run executes Entry (one goroutine per rank) or EventEntry (the
// event-driven continuation path) on NProcs simulated processes and blocks
// until every process (including spawned replacements) has returned or
// died. A job that was aborted (Proc.Abort, or the watchdog on a stall)
// returns the first abort's cause as the error.
func Run(o Options) (*Report, error) {
	if o.NProcs <= 0 {
		return nil, fmt.Errorf("mpi: NProcs must be positive, got %d", o.NProcs)
	}
	if o.Entry == nil && o.EventEntry == nil {
		return nil, fmt.Errorf("mpi: one of Entry and EventEntry must be set")
	}
	if o.Entry != nil && o.EventEntry != nil {
		return nil, fmt.Errorf("mpi: Entry and EventEntry are mutually exclusive")
	}
	m := o.Machine
	if m == nil {
		m = vtime.Generic()
	}
	cl := o.Cluster
	if cl == nil {
		cl = topo.ForRanks(o.NProcs, m.SlotsPerHost)
	}
	if cl.Slots() < o.NProcs {
		return nil, fmt.Errorf("mpi: cluster has %d slots for %d processes", cl.Slots(), o.NProcs)
	}
	w := &World{
		machine:    m,
		cluster:    cl,
		entry:      o.Entry,
		eventEntry: o.EventEntry,
		wm:         newWorldMetrics(o.Metrics),
		flatColl:   o.FlatCollectives,
	}
	for t := vtime.LinkTier(0); t < vtime.NumTiers; t++ {
		w.linkAlpha[t], w.linkBeta[t] = m.LinkAlphaBeta(t)
	}

	// Block-allocate the initial process table, Proc and Comm handles: the
	// whole setup is a handful of allocations regardless of NProcs.
	sts := make([]procState, o.NProcs)
	giveFirstSlots(sts)
	procs := make([]*procState, o.NProcs)
	worldRanks := make([]int, o.NProcs)
	for r := 0; r < o.NProcs; r++ {
		host, rack, err := cl.Placement(r)
		if err != nil {
			return nil, err
		}
		st := &sts[r]
		st.w, st.wrank, st.host, st.rack = w, r, host, rack
		st.alive.Store(true)
		st.cond.L = &st.mu
		if w.wm != nil {
			st.clock.SetObserver(w.wm)
		}
		procs[r] = st
		worldRanks[r] = r
	}
	if o.SpareRanks > 0 {
		// Spares are parked as data: alive, in the process table (so claimed
		// ones get ordinary world ranks below the spawn range), but members
		// of no communicator and running no code until ClaimSpares launches
		// them on whichever execution path the world runs.
		spares := make([]procState, o.SpareRanks)
		giveFirstSlots(spares)
		for i := 0; i < o.SpareRanks; i++ {
			host := 0
			if len(o.SpareHosts) > 0 {
				idx, err := cl.HostIndexByName(o.SpareHosts[i%len(o.SpareHosts)])
				if err != nil {
					return nil, fmt.Errorf("mpi: spare placement: %w", err)
				}
				host = idx
			}
			st := &spares[i]
			st.w, st.wrank, st.host = w, o.NProcs+i, host
			st.rack = cl.RackOfHost(st.host)
			st.alive.Store(true)
			st.cond.L = &st.mu
			if w.wm != nil {
				st.clock.SetObserver(w.wm)
			}
			procs = append(procs, st)
			w.spareFree = append(w.spareFree, st.wrank)
		}
	}
	w.procs.Store(&procs)
	worldComm := w.newCommLocked(worldRanks, nil) // id 0; nothing runs yet

	hands := make([]Proc, o.NProcs)
	comms := newHandles(worldComm)
	for r := range hands {
		p := &hands[r]
		p.st, p.world = procs[r], &comms[r]
		comms[r].p = p
	}

	if o.Introspect != nil {
		o.Introspect.attach(w)
		defer o.Introspect.detach(w)
	}
	if o.Watchdog.Timeout > 0 {
		done := make(chan struct{})
		defer close(done)
		go w.watch(o.Watchdog, done)
	}

	if o.EventEntry != nil {
		w.runEvent(o, hands)
	} else {
		for r := range hands {
			w.wg.Add(1)
			go w.runProc(&hands[r])
		}
		w.noteGoroutines()
		w.wg.Wait()
	}
	w.noteGoroutines()

	w.state.Lock()
	defer w.state.Unlock()
	if w.cause != nil {
		return nil, w.cause
	}
	return &Report{
		MaxVirtualTime: w.maxTime,
		Failed:         append([]int(nil), w.failed...),
		Spawned:        w.spawned,
		SparesUsed:     w.sparesUsed,
		GoroutinesPeak: int(w.goroPeak.Load()),
	}, nil
}

// startProcLocked launches a freshly created process on whichever execution
// path the world runs: a goroutine on the Entry path, or a fiber reserved on
// and enqueued to the bounded executor on the EventEntry path. Caller holds
// World.state (write); executor.mu is a strict leaf, so the reserve/ready
// pair nests fine. On the event path the caller is a rendezvous builder
// whose own members' fibers are still accounted active, so the reservation
// can never observe a shut-down executor (see executor.reserve).
func (w *World) startProcLocked(p *Proc) {
	if w.eventEntry != nil {
		f := &Fiber{p: p}
		f.start = func() { w.eventEntry(p, f) }
		w.exec.reserve(1)
		w.exec.ready(f)
		return
	}
	w.wg.Add(1)
	go w.runProc(p)
}

// runProc wraps a process's entry, translating Kill panics into fail-stop
// process death.
func (w *World) runProc(p *Proc) {
	defer w.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSignal); ok {
				w.markFailed(p.st)
				return
			}
			panic(r)
		}
		w.finish(p.st)
	}()
	w.entry(p)
}

// finish records a normal process exit. A process that has returned from
// its entry no longer participates in communication: pending and future
// operations addressing it observe MPI_ERR_PROC_FAILED (communicating with
// an exited process is erroneous in MPI; surfacing an error instead of
// deadlocking mirrors how a real mpirun job dies). Unlike Kill, a normal
// exit is not recorded in Report.Failed.
func (w *World) finish(st *procState) {
	w.state.Lock()
	defer w.state.Unlock()
	w.maxTime = max(w.maxTime, st.clock.Now())
	w.endProc(st, false)
}

// markFailed records a process death and wakes the processes blocked on it
// so pending operations can observe the failure.
func (w *World) markFailed(st *procState) {
	w.state.Lock()
	defer w.state.Unlock()
	if !st.alive.Load() {
		return
	}
	w.maxTime = max(w.maxTime, st.clock.Now())
	w.endProc(st, true)
}

// abort ends the job the way MPI_Abort does. The first cause is kept for Run
// to return. Every live process is failed and woken: blocked operations
// observe MPI_ERR_PROC_FAILED against their dead peers, and each process
// unwinds like a Kill at the entry of its next operation (hookOp), so none
// runs on into a communicator the abort left it out of.
func (w *World) abort(cause error) {
	w.state.Lock()
	defer w.state.Unlock()
	if w.cause == nil {
		w.cause = cause
	}
	w.aborted.Store(true)
	ps := w.snapshot()
	for _, st := range ps {
		if st.alive.Load() {
			w.endProc(st, true)
		}
	}
	// The processes just declared dead may be parked in their operations,
	// and a departure does not wake the dead: wake them all, now that every
	// peer they could be waiting for is gone.
	for _, st := range ps {
		st.wake()
	}
}

// endProc takes a process out of the job: liveness flips first (under
// state, so failure checks and membership scans agree), the mailbox is
// drained back to the envelope pool, and the processes whose waits the
// departure can resolve are woken to re-check. It reads nothing the owner
// alone may touch (an abort ends processes that are still running), so its
// callers fold the clock into maxTime. Caller holds state (write).
func (w *World) endProc(st *procState, record bool) {
	st.alive.Store(false)
	w.deathGen++
	if record {
		w.failed = append(w.failed, st.wrank)
	}
	st.mu.Lock()
	st.mb.drain()
	st.mu.Unlock()
	w.wakeForDeath(st)
}

// newCommLocked allocates a communicator's shared state. Caller holds
// state (write). b == nil makes an intracommunicator; otherwise a and b
// are the two groups of an intercommunicator. The groups are adopted, not
// copied: callers pass a freshly built list or another communicator's
// already-published (immutable) group.
func (w *World) newCommLocked(a, b []int) *commShared {
	sh := &commShared{id: w.nextCommID, a: a, b: b, members: a}
	if b != nil {
		sh.members = make([]int, 0, len(a)+len(b))
		sh.members = append(append(sh.members, a...), b...)
	}
	w.nextCommID++
	return sh
}
