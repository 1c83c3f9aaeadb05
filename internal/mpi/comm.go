package mpi

import (
	"errors"
	"sync"
	"sync/atomic"

	"ftsg/internal/metrics"
	"ftsg/internal/topo"
	"ftsg/internal/vtime"
)

// commShared is the state of a communicator shared by all of its members.
// a is the local group of side 0 (and the only group of an intracommunicator);
// b, when non-nil, is the group of side 1 of an intercommunicator. Groups
// hold world ranks and are immutable once published; a member's rank in the
// communicator is its index in its side's group.
type commShared struct {
	id   int
	a, b []int
	// members is every process of the communicator: a itself for an
	// intracommunicator, a followed by b (built once, at creation) for an
	// intercommunicator. A member's position in it indexes rendezvous slots.
	members []int
	// revoked is the communicator-wide revocation flag. It is a lock-free
	// gate for the hot path: while false, receives skip the quiesce map
	// entirely. It only ever transitions false -> true, under World.state.
	revoked atomic.Bool
	// hasAborts gates the aborts map the same way: senders/receivers
	// consult the map (under a state read lock) only once some member has
	// recorded a collective abort. The flag is stored under World.state
	// after the record is written, and the recorder then wakes the members
	// receiving from it, so a receiver that must observe an abort is always
	// re-driven past this gate.
	hasAborts atomic.Bool
	// aborts records, per collective instance tag, which members bailed out
	// of that collective and at what virtual time (world rank -> abort
	// time). Guarded by World.state. A member blocked on a peer inside the
	// same instance errors out once the peer's abort is recorded, which
	// propagates collective failure deterministically: the outcome depends
	// only on the peer's program order (message sent before abort recorded
	// before death), never on wall-clock delivery races.
	aborts map[int]map[int]float64
	// mismatched marks the aborts, by (tag, world rank), that a datatype or
	// length mismatch caused rather than a failure. Guarded by World.state.
	mismatched map[[2]int]bool
	// quiesced records which members (world ranks) have observed the
	// communicator's revocation and stopped participating in it. Guarded
	// by World.state. A receiver blocked on a peer resolves to
	// MPI_ERR_REVOKED only once that peer has provably quiesced (or
	// died), never merely because the revoked flag became visible at some
	// wall-clock moment — revocation, like collective aborts, propagates
	// along program order so simulated virtual times stay deterministic.
	quiesced map[int]bool
	// ack is the failed-member list FailureAck hands to every handle,
	// taken at one World.deathGen. Guarded by World.state.
	ack *ackList
	// byRank is the members' procStates in ascending world rank, the order
	// revokedDeadlock takes their locks in; built on its first run. Guarded
	// by World.state.
	byRank []*procState
	// repairFor records, for a spawn intercommunicator, how many failed
	// processes the spawn replaced. The beta ULFM keeps such
	// communicators on the expensive multi-failure agreement path
	// (coll_ftbasic_method = 3), which is what Table I measures; Agree
	// charges accordingly.
	repairFor int
	// hier caches the communicator's node decomposition for the
	// hierarchical collectives (see coll_hier.go), built by buildOnce from
	// the immutable group on first use.
	hier atomic.Pointer[commTopo]
	// agreed holds the values Comm.Agreed built, shared read-only by every
	// member.
	agreed sharedList[agreedVal]
	// deadErrs holds the *FailedError of each dead member a receive on the
	// communicator reported (Comm.failedErr), shared read-only by every
	// observer.
	deadErrs sharedList[*FailedError]
	// buildMu serialises buildOnce's builds. A leaf lock: a build takes
	// no other lock that could wait on a member.
	buildMu sync.Mutex
}

// agreedVal is one of Comm.Agreed's values with the key it was built for.
type agreedVal struct{ key, val any }

// sharedList is a communicator's list of values built once each through
// buildOnce. The slice is replaced, never written, so a find takes no lock.
type sharedList[T any] struct{ vals atomic.Pointer[[]T] }

// get returns the value match accepts, building and appending it when the
// list has none: once per communicator, however many members ask at once.
func (l *sharedList[T]) get(sh *commShared, match func(T) bool, build func() T) T {
	return buildOnce(sh, func() (T, bool) {
		if vals := l.vals.Load(); vals != nil {
			for _, v := range *vals {
				if match(v) {
					return v, true
				}
			}
		}
		var zero T
		return zero, false
	}, func() T {
		v := build()
		var vals []T
		if old := l.vals.Load(); old != nil {
			vals = append(vals, *old...)
		}
		vals = append(vals, v)
		l.vals.Store(&vals)
		return v
	})
}

// buildOnce is the communicator's one way to build a value that every
// member derives identically: find reads what is there without a lock; on a
// miss, the first caller builds (and publishes) under sh.buildMu while the
// others wait, and a second find under the lock hands them what it built.
// So each value is built once per communicator, however many members reach
// it at the same moment.
func buildOnce[V any](sh *commShared, find func() (V, bool), build func() V) V {
	if v, ok := find(); ok {
		return v
	}
	sh.buildMu.Lock()
	defer sh.buildMu.Unlock()
	if v, ok := find(); ok {
		return v
	}
	return build()
}

// ackList is a communicator's failed members (world ranks, group order) as
// of World.deathGen == gen. Shared read-only by the handles that acked it.
type ackList struct {
	gen    uint64
	failed []int
}

// Comm is one process's handle on a communicator, mirroring MPI_Comm. The
// handle carries the process's rank, its side of an intercommunicator, its
// per-operation collective sequence numbers, its error handler, and its
// locally acknowledged failures (ULFM failure_ack state).
type Comm struct {
	sh   *commShared
	p    *Proc
	side int // 0 or 1; which of sh.a / sh.b is the local group
	rank int // my rank within the local group
	seqs [numSeqs]uint32
	errh Errhandler
	// acked is the snapshot of failed world ranks acknowledged by
	// OMPI_Comm_failure_ack on this handle: the communicator's shared
	// ackList, read-only.
	acked []int
	// sawRevoked is set once this process has observed the revocation
	// (called Revoke itself, or had an operation return MPI_ERR_REVOKED).
	// From then on the handle fails fast; before then, operations proceed
	// and only resolve to MPI_ERR_REVOKED through peer quiesce records.
	// Touched only by the owning goroutine, so unguarded like seqs.
	sawRevoked bool
}

// newHandles returns the handles of sh's side-0 group (the only group of
// an intracommunicator), by rank, in one array: each member takes its own
// element with adopt.
func newHandles(sh *commShared) []Comm {
	hs := make([]Comm, len(sh.a))
	for i := range hs {
		hs[i] = Comm{sh: sh, rank: i}
	}
	return hs
}

// Errhandler mirrors MPI_Comm_create_errhandler/MPI_Comm_set_errhandler:
// invoked with the communicator and the error before the operation returns.
type Errhandler func(c *Comm, err error)

// SetErrhandler attaches an error handler to this handle. A nil handler
// restores MPI_ERRORS_RETURN behaviour (errors are simply returned).
func (c *Comm) SetErrhandler(h Errhandler) { c.errh = h }

// fire routes an error through the handle's error handler, then returns it.
// It must be called without any transport lock held. Returning
// MPI_ERR_REVOKED is the program-order point where this process observes
// the revocation, so fire also records the quiesce.
func (c *Comm) fire(err error) error {
	// Every collective error path returns through fire, so this is where
	// the hop-attribution mark set by opStart is cleared on failure
	// (success paths clear it in opEnd).
	c.p.st.curOp = ""
	if err != nil {
		if !c.sawRevoked && errors.Is(err, ErrRevoked) {
			c.markRevoked()
		}
		if c.errh != nil {
			c.errh(c, err)
		}
	}
	return err
}

// markRevoked records that this process has observed the communicator's
// revocation: the handle fails fast from now on, and the quiesce record lets
// peers blocked on this process resolve to MPI_ERR_REVOKED deterministically.
// Must be called without any transport lock held.
func (c *Comm) markRevoked() {
	c.sawRevoked = true
	w := c.p.st.w
	w.state.Lock()
	// The communicator is revoked already (an ErrRevoked follows from its
	// revocation); a flag still false would make this the first walk.
	c.quiesceLocked(!c.sh.revoked.Load())
	w.state.Unlock()
}

// Rank returns the calling process's rank in the (local group of the)
// communicator.
func (c *Comm) Rank() int { return c.rank }

// Proc returns the process this handle belongs to.
func (c *Comm) Proc() *Proc { return c.p }

// Size returns the size of the local group.
func (c *Comm) Size() int { return len(c.localGroup()) }

// IsInter reports whether this is an intercommunicator.
func (c *Comm) IsInter() bool { return c.sh.b != nil }

// CommID identifies a communicator: every member's handle reports the same
// one, and no other communicator of the world has it. It is comparable and
// pointer-sized, so a key type built from it boxes without allocating.
type CommID struct{ sh *commShared }

// ID returns the communicator's identity.
func (c *Comm) ID() CommID { return CommID{c.sh} }

// Agreed returns the communicator's one value for key: the first member to
// ask builds it, and every member, whichever handle it asks through, gets
// that same value. It is for values the members would otherwise derive
// identically, each its own copy — the failed list of a repair round, a
// placement. key must be comparable, and of a type private to the caller so
// that no other package's key can equal it; a pointer-sized key asks
// without allocating. build must be a pure function of world-agreed state:
// it runs on whichever member gets there first, must not block or charge
// virtual time, and must not call Agreed on this communicator. The value
// is shared read-only: never write to it.
func (c *Comm) Agreed(key any, build func() any) any {
	return c.sh.agreed.get(c.sh, func(v agreedVal) bool { return v.key == key },
		func() agreedVal { return agreedVal{key, build()} }).val
}

// failedErr returns the error that reports the death of the member at rank
// of the peer group, world rank wr: one value per communicator and dead
// member, shared by every observer (see FailedError).
func (c *Comm) failedErr(rank, wr int) error {
	return c.sh.deadErrs.get(c.sh, func(e *FailedError) bool { return e.WorldRank == wr },
		func() *FailedError { return &FailedError{Rank: rank, WorldRank: wr} })
}

// Group returns the local group (world ranks, rank order), mirroring
// MPI_Comm_group. The result is the communicator's own immutable list,
// shared by every member: read it, never write to it.
func (c *Comm) Group() Group { return c.localGroup() }

func (c *Comm) localGroup() []int {
	if c.side == 0 {
		return c.sh.a
	}
	return c.sh.b
}

func (c *Comm) remoteGroup() []int {
	if c.side == 0 {
		return c.sh.b
	}
	return c.sh.a
}

// memberPos returns the calling process's position in sh.members.
func (c *Comm) memberPos() int {
	if c.side == 1 {
		return len(c.sh.a) + c.rank
	}
	return c.rank
}

// recvOp is the blocked-op descriptor of a receive from rank src of this
// communicator. An invalid rank resolves immediately in recvVerdict, so what
// is published for it does not matter.
func (c *Comm) recvOp(src int) blockedOp {
	pw, err := c.peerWorld(src)
	if err != nil {
		return opAny
	}
	return recvOp(c.sh.id, pw)
}

// parkCount is the count a goroutine asleep in a receive on this
// communicator from process source is held on (see procState.park):
// World.parkedRevoked on a revoked communicator, whatever the source — a
// death or a quiesce anywhere in the group may resolve it; otherwise the
// source's own namedBy, so a failure-free park touches no count that all
// ranks share. A receive naming an invalid rank never parks: recvVerdict
// answers it with ErrComm first.
func (c *Comm) parkCount(source *procState) *atomic.Int32 {
	if c.sh.revoked.Load() {
		return &c.p.st.w.parkedRevoked
	}
	return &source.namedBy
}

// peerWorld resolves a peer rank for point-to-point traffic: the remote
// group of an intercommunicator, the local group otherwise.
func (c *Comm) peerWorld(rank int) (int, error) {
	g := c.localGroup()
	if c.sh.b != nil {
		g = c.remoteGroup()
	}
	if rank < 0 || rank >= len(g) {
		return 0, ErrComm
	}
	return g[rank], nil
}

// Sequence counters of a handle: a collective kind (kindBarrier ..
// kindAllreduce) indexes its own, and each rendezvous operation has one
// after them.
const (
	seqSplit = kindAllreduce + 1 + iota
	seqShrink
	seqAgree
	seqSpawn
	seqClaim
	seqMerge
	numSeqs
)

// rvzSeq maps a rendezvous operation's name to its sequence counter.
func rvzSeq(op string) int {
	switch op {
	case OpSplit:
		return seqSplit
	case OpShrink:
		return seqShrink
	case OpAgree:
		return seqAgree
	case OpSpawn:
		return seqSpawn
	case "claim":
		return seqClaim
	case OpMerge:
		return seqMerge
	}
	panic("mpi: no sequence counter for rendezvous " + op)
}

// nextSeq returns the next sequence number of operation seq (a collective
// kind or a seq* counter) on this handle. Members of a communicator call
// operations of one kind in the same order, so handles stay in lockstep per
// kind (this tolerates the paper's merge/agree cross-ordering between the
// parent and child sides of the spawn intercommunicator).
func (c *Comm) nextSeq(seq int) int {
	s := c.seqs[seq]
	c.seqs[seq] = s + 1
	return int(s)
}

// Proc is the handle a simulated process's code receives: its identity, its
// initial communicator, and (for spawned processes) the parent
// intercommunicator, mirroring MPI_Comm_get_parent.
type Proc struct {
	st     *procState
	world  *Comm
	parent *Comm
}

// World returns the process's MPI_COMM_WORLD: for initial processes the
// job-wide communicator, for spawned processes the communicator of their
// spawn cohort (as in MPI dynamic process management).
func (p *Proc) World() *Comm { return p.world }

// Parent returns the intercommunicator to the spawning group, or nil for an
// initially started process (MPI_Comm_get_parent returning MPI_COMM_NULL).
func (p *Proc) Parent() *Comm { return p.parent }

// WorldRank returns the process's world-unique id. Initial processes have
// ids 0..NProcs-1; spawned processes get fresh ids.
func (p *Proc) WorldRank() int { return p.st.wrank }

// Host returns the index of the cluster host this process runs on.
func (p *Proc) Host() int { return p.st.host }

// Machine returns the cost-model profile of the simulated system.
func (p *Proc) Machine() *vtime.Machine { return p.st.w.machine }

// Cluster returns the simulated cluster layout.
func (p *Proc) Cluster() *topo.Cluster { return p.st.w.cluster }

// Now returns the process's current virtual time in seconds.
func (p *Proc) Now() float64 { return p.st.clock.Now() }

// Compute charges dt seconds of local computation to the virtual clock.
func (p *Proc) Compute(dt float64) {
	p.st.clock.AdvanceAttr(dt, vtime.CompCompute)
}

// ComputeAttr charges dt seconds of local work attributed to an explicit
// cost component — the checkpoint layer uses it to separate disk I/O from
// compute in the attribution breakdown.
func (p *Proc) ComputeAttr(dt float64, component string) {
	p.st.clock.AdvanceAttr(dt, component)
}

// ComputeCells charges the virtual cost of n stencil cell updates, scaled by
// the given factor (1 charges the machine's calibrated per-cell cost).
func (p *Proc) ComputeCells(n int, scale float64) {
	p.st.clock.AdvanceAttr(float64(n)*p.st.w.machine.CellCost*scale, vtime.CompCompute)
}

// Metrics returns the registry instrumenting this world, or nil when
// instrumentation is disabled. Application layers use it to add their own
// counters next to the runtime's.
func (p *Proc) Metrics() *metrics.Registry {
	if p.st.w.wm == nil {
		return nil
	}
	return p.st.w.wm.reg
}

// Kill aborts the process fail-stop, emulating kill(getpid(), SIGKILL). It
// never returns: the runtime marks the process failed at its current virtual
// time and wakes all peers blocked on it.
func (p *Proc) Kill() {
	panic(killSignal{})
}

// Abort ends the whole job with err, emulating MPI_Abort: every process is
// failed, Run returns err (or the cause of an earlier abort, which wins), and
// the caller unwinds like Kill. It never returns.
func (p *Proc) Abort(err error) {
	p.st.w.abort(err)
	panic(killSignal{})
}
