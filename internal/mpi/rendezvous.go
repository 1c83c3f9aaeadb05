package mpi

import (
	"fmt"
	"sync/atomic"
)

// rvzMode selects how a rendezvous-style collective treats member failure.
type rvzMode int

const (
	// failOnDeath aborts the operation with MPI_ERR_PROC_FAILED for every
	// participant if any member of the communicator is (or becomes) dead.
	// This is the behaviour of ordinary communicator-management collectives
	// such as MPI_Comm_split.
	failOnDeath rvzMode = iota
	// reportDeath completes among the survivors but returns
	// MPI_ERR_PROC_FAILED alongside the result, like OMPI_Comm_agree in the
	// presence of unacknowledged failures.
	reportDeath
	// ignoreDeath completes among the survivors and returns success: the
	// contract of OMPI_Comm_shrink.
	ignoreDeath
)

// rvzKey identifies one instance of a rendezvous collective: communicator,
// operation kind, and the per-kind sequence number (kept in lockstep by each
// member's handle).
type rvzKey struct {
	comm int
	op   string
	seq  int
}

// rvzInput is what a member brings to a rendezvous: a and b are Split's
// color and key, a alone Agree's flag. hosts is SpawnMultiple's host list,
// which only its root passes: the rendezvous keeps it once, not per slot.
type rvzInput struct {
	a, b  int
	hosts []string
}

// rvzSlot is one member's registration in a rendezvous: its clock at entry
// and its rvzInput's a and b. A rendezvous pays every slot byte once per
// member, so the slot stays at 32 bytes.
type rvzSlot struct {
	at   float64
	a, b int
	here bool
}

// rendezvous is the shared state of one in-progress collective that needs a
// single, globally consistent result (split groups, shrunken communicator,
// agreement value, spawn). Guarded by World.state — these are cold
// control-plane operations, so they stay off the per-process fast path.
//
// Completion is counted, not scanned: missing is the number of alive
// members that have not arrived and dead the number of dead members, both
// as of World.deathGen == gen. An arrival decrements missing; a departure
// bumps deathGen, and the next poll recounts once. So a poll is O(1), and
// only the poll that finds missing == 0 — the last arrival's, or the first
// after the death of the last missing member — does O(members) work.
type rendezvous struct {
	key     rvzKey
	members []int     // the communicator's member list (shared, immutable)
	slots   []rvzSlot // by member position
	hosts   []string  // the root's rvzInput.hosts (SpawnMultiple)
	arrived int
	missing int
	dead    int
	gen     uint64
	// done is set, under World.state, after the result fields below are
	// written; members that observe it read them without the lock.
	done   atomic.Bool
	result any
	err    error
	t      float64
	cost   float64 // modelled cost of the operation, for attribution
}

// recount takes the alive/dead member counts afresh. Caller holds
// World.state.
func (r *rendezvous) recount(w *World) {
	ps := w.snapshot()
	r.missing, r.dead = 0, 0
	for pos, wr := range r.members {
		switch {
		case !ps[wr].alive.Load():
			r.dead++
		case !r.slots[pos].here:
			r.missing++
		}
	}
	r.gen = w.deathGen
}

// maxArrival returns the latest arrival time among arrived-and-alive
// members, 0 when none has arrived. Caller holds World.state.
func (r *rendezvous) maxArrival(w *World) float64 {
	ps := w.snapshot()
	var m float64
	for pos := range r.slots {
		if s := &r.slots[pos]; s.here && s.at > m && ps[r.members[pos]].alive.Load() {
			m = s.at
		}
	}
	return m
}

// buildFunc computes the single shared result of a rendezvous once all alive
// members have arrived. It runs under World.state (it must not block) and
// returns the result plus the modelled cost of the operation in seconds.
// r.dead is exact when it runs. Builders that create a communicator build
// its members' handles in one array, so no member allocates or searches for
// its own (see adopt).
type buildFunc func(w *World, r *rendezvous) (any, float64)

// adopt makes h, the caller's element of the handle array built for a new
// communicator, the caller's own handle: it sets only h's process. The
// builder wrote every element before the rendezvous published it, and no
// other member touches this one, so the write needs no lock.
func (c *Comm) adopt(h *Comm) *Comm {
	h.p = c.p
	return h
}

// The rendezvous protocol is split into three steps — enter, poll, finish —
// so the blocking path (runRendezvous: poll in an epoch-gated condvar loop)
// and the event-driven path (event.go's FiberAgree: poll as a parked
// continuation's wakeup condition) share one implementation of registration,
// completion and cost accounting.

// rvzEnter registers the calling process in the rendezvous instance,
// creating it on first arrival. Returns the instance (held by its members;
// the table drops it at resolution) and the caller's clock at entry for
// op-latency measurement.
//
// allowRevoked must be true for the ULFM calls that operate on revoked
// communicators (shrink, agree).
func rvzEnter(c *Comm, op string, allowRevoked bool, in rvzInput) (*rendezvous, float64, error) {
	st := c.p.st
	w := st.w
	st.hookOp(op)
	t0 := st.clock.Now()
	key := rvzKey{comm: c.sh.id, op: op, seq: c.nextSeq(rvzSeq(op))}

	// Like point-to-point operations, a rendezvous collective fails on
	// revocation only once the caller itself has observed it; the
	// shrink/agree family sets allowRevoked and proceeds regardless.
	if c.sawRevoked && !allowRevoked {
		return nil, t0, ErrRevoked
	}
	w.state.Lock()
	if w.rvzTable == nil {
		w.rvzTable = make(map[rvzKey]*rendezvous)
	}
	r, ok := w.rvzTable[key]
	if !ok {
		r = &rendezvous{
			key:     key,
			members: c.sh.members,
			slots:   make([]rvzSlot, len(c.sh.members)),
		}
		r.recount(w)
		w.rvzTable[key] = r
	}
	s := &r.slots[c.memberPos()]
	if s.here {
		w.state.Unlock()
		return nil, t0, fmt.Errorf("mpi: process %d entered %s twice (seq %d): %w", st.wrank, op, key.seq, ErrComm)
	}
	s.at, s.a, s.b, s.here = st.clock.Now(), in.a, in.b, true
	if in.hosts != nil {
		r.hosts = in.hosts
	}
	r.arrived++
	// The caller was counted missing unless an abort has failed it since its
	// hookOp check (it unwinds at its next operation).
	if st.alive.Load() {
		r.missing--
	}
	w.state.Unlock()
	return r, t0, nil
}

// rvzPoll evaluates the rendezvous once and reports whether it is resolved.
// The caller that observes the group complete builds the shared result (or
// the deterministic abort), retires the instance from the table and wakes
// the members waiting in it. Park-safe in both blocking models: the wake
// bumps member epochs under their mu, so an epoch read taken before this
// poll detects any resolution that races with a subsequent park.
func rvzPoll(c *Comm, r *rendezvous, mode rvzMode, build buildFunc) bool {
	if r.done.Load() {
		return true
	}
	w := c.p.st.w
	w.state.Lock()
	defer w.state.Unlock()
	if r.done.Load() {
		return true
	}
	if r.gen != w.deathGen {
		r.recount(w)
	}
	if r.missing > 0 {
		return false
	}
	if r.dead > 0 && mode == failOnDeath {
		// Abort only once every alive member has arrived, exactly like
		// the completion path. Aborting on the first observation of a
		// death would stamp r.t with the max over whichever members
		// happened to have arrived in real time — a timestamp (and thus
		// per-rank clocks) dependent on goroutine scheduling. Waiting
		// makes the abort time a pure function of program order, which
		// the seed-replay determinism contract requires; every alive
		// member provably arrives, since the callers of failOnDeath
		// collectives pair them with reportDeath operations over the
		// same member sets, which have always had wait-for-all-alive
		// semantics.
		r.err = errCollectiveFailed
		r.t = r.maxArrival(w)
	} else {
		r.result, r.cost = build(w, r)
		r.t = r.maxArrival(w) + r.cost
		if r.dead > 0 && mode == reportDeath {
			r.err = errCollectiveFailed
		}
	}
	r.done.Store(true)
	delete(w.rvzTable, r.key)
	w.wakeWaiters(evRendezvous, r.members, r.key.comm, everySource)
	return true
}

// rvzFinish synchronises the caller's clock to the resolved rendezvous and
// attributes its cost. Caller must have observed r.done via rvzPoll; the
// result fields are written once, before done is set, so they are read here
// without the state lock.
func rvzFinish(c *Comm, r *rendezvous, op string, t0 float64) (any, error) {
	st := c.p.st
	w := st.w
	result, err, t, cost := r.result, r.err, r.t, r.cost

	st.clock.SyncTo(t)
	// Attribute the op's modelled cost once per participating member and
	// record its completion latency on this member's clock. cost > 0 also
	// covers Agree's reportDeath contract (the op completed among
	// survivors, err notwithstanding); the failOnDeath abort path carries
	// zero cost and is not a completion.
	if wm := w.wm; wm != nil && (err == nil || cost > 0) {
		wm.ObserveCost(componentForRendezvousOp(op), cost)
		wm.observeOp(op, st.clock.Now()-t0)
	}
	return result, err
}

// runRendezvous executes one instance of a rendezvous collective for the
// calling process: register input, wait for the group, have exactly one
// participant build the shared result, and synchronise virtual clocks to
// completion time (max of alive arrivals plus the modelled cost).
func runRendezvous(c *Comm, op string, mode rvzMode, allowRevoked bool, in rvzInput, build buildFunc) (any, error) {
	st := c.p.st
	r, t0, err := rvzEnter(c, op, allowRevoked, in)
	if err != nil {
		return nil, err
	}
	// Published before the first epoch read: resolution and any death wake
	// exactly the processes that show a rendezvous here.
	st.block(rvzOp(c.sh.id))
	defer st.unblock()
	for {
		// Epoch-gated park, exactly like recvMatch: resolution (rvzPoll's
		// wakeWaiters) and a death (endProc's wakeForDeath) bump the
		// epoch, so a wake landing between the read and the park is never
		// lost; a death finds the park counted on World.parkedRvz.
		st.mu.Lock()
		e, g := st.epoch, st.w.evGen.Load()
		st.mu.Unlock()
		if rvzPoll(c, r, mode, build) {
			break
		}
		st.mu.Lock()
		st.park(e, g, &st.w.parkedRvz)
		st.mu.Unlock()
	}
	return rvzFinish(c, r, op, t0)
}
