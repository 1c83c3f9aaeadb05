package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"unsafe"

	"ftsg/internal/vtime"
)

// internal tag space for collectives; see internalTag. User tags must be
// non-negative; negative tags are reserved for internal collective traffic.
const internalTagBase = 1000

// Status mirrors MPI_Status.
type Status struct {
	Source int
	Tag    int
	Bytes  int
}

// Send posts a message to rank dest of the communicator (the remote group
// for an intercommunicator). The runtime buffers eagerly, so Send never
// blocks; it returns MPI_ERR_PROC_FAILED if the destination is already dead
// and MPI_ERR_REVOKED on a revoked communicator. User tags must be >= 0.
func Send[T any](c *Comm, dest, tag int, data []T) error {
	if tag < 0 {
		return c.fire(fmt.Errorf("mpi: Send: negative tag %d is reserved: %w", tag, ErrComm))
	}
	return c.fire(sendRaw(c, dest, tag, data))
}

// SendOne sends a single value.
func SendOne[T any](c *Comm, dest, tag int, v T) error {
	return Send(c, dest, tag, []T{v})
}

// sendMode is what an eager send does with the caller's slice.
type sendMode uint8

const (
	// sendCopy copies the payload into a pooled buffer (copyIn), which the
	// receiver then owns; the caller keeps its slice.
	sendCopy sendMode = iota
	// sendOwn hands the slice itself to the receiver; a dropped or
	// directly delivered send returns it to the pool.
	sendOwn
	// sendLend hands the receiver the slice itself, read-only: a broadcast
	// tree forwards one array to every member. Nobody releases it; the GC
	// reclaims it once the last member drops it.
	sendLend
)

func sendRaw[T any](c *Comm, dest, tag int, data []T) error {
	return sendEnv(c, dest, tag, data, sendCopy)
}

func sendOwned[T any](c *Comm, dest, tag int, data []T) error {
	return sendEnv(c, dest, tag, data, sendOwn)
}

func sendLent[T any](c *Comm, dest, tag int, data []T) error {
	return sendEnv(c, dest, tag, data, sendLend)
}

// sendEnv implements the eager send; mode says whether the payload is
// copied, handed over or lent (see sendMode).
// The only lock taken on the failure-free path is the destination's
// mailbox mutex.
func sendEnv[T any](c *Comm, dest, tag int, data []T, mode sendMode) error {
	st := c.p.st
	w := st.w
	st.hookOp(OpSend)

	// A send fails on revocation only once the sender itself has observed
	// it (program order): sends are eager and never block, so consulting
	// the shared revoked flag here would make the outcome depend on the
	// wall-clock moment another rank's Revoke became visible.
	if c.sawRevoked {
		if mode == sendOwn {
			putBuf(data)
		}
		return ErrRevoked
	}
	dw, err := c.peerWorld(dest)
	if err != nil {
		if mode == sendOwn {
			putBuf(data)
		}
		return err
	}
	st.clock.AdvanceAttr(w.machine.SendOverhead, vtime.CompOSend)
	bytes := len(data) * elemSize[T]()
	// The LogGP charge depends on where the endpoints sit: same host
	// (shared memory), same rack (the fabric), or across racks. host and
	// rack are immutable, so reading the destination's placement is safe
	// without its lock.
	dst := w.proc(dw)
	tier := vtime.TierRack
	if dst.host == st.host {
		tier = vtime.TierNode
	} else if dst.rack != st.rack {
		tier = vtime.TierXRack
	}
	if wm := w.wm; wm != nil {
		wm.countSend(st.wrank, bytes)
		wm.countHop(st.curOp, tier)
		wm.ObserveCost(vtime.CompAlpha, w.linkAlpha[tier])
		wm.ObserveCost(vtime.CompBeta, float64(bytes)*w.linkBeta[tier])
		wm.observeOp("send", w.machine.SendOverhead)
	}
	// An eager buffered send completes locally even when the destination is
	// already dead or has exited: whether the sender's goroutine runs before
	// or after the victim's sets the (wall-clock) death flag must not change
	// the outcome, so death is never reported at the send call — the message
	// is lost on the wire, and the failure surfaces at subsequent receives
	// and collectives, whose checks follow the peer's program order. This is
	// the ULFM contract too: local completion of a buffered send guarantees
	// nothing about delivery.
	if !dst.alive.Load() {
		if mode == sendOwn {
			putBuf(data)
		}
		return nil
	}
	arrival := st.clock.Now() + w.linkAlpha[tier] + float64(bytes)*w.linkBeta[tier]
	// A receiver parked in RecvInto has published its buffer: the payload
	// goes straight there. The peek is lock-free and may be stale either way
	// — deliverDirect decides under the destination's lock, and a message
	// queued past a buffer published meanwhile retracts it (see enqueue).
	if dst.intoSet.Load() && deliverDirect(dst, c.sh.id, c.rank, tag, data, bytes, arrival) {
		if mode == sendOwn {
			putBuf(data)
		}
		return nil
	}
	env := getEnv()
	env.commID, env.src, env.tag = c.sh.id, c.rank, tag
	env.bytes = bytes
	env.arrival = arrival
	if mode == sendCopy {
		copyIn(env, st, data)
	} else {
		setPayload(env, data)
	}
	dst.enqueue(env)
	return nil
}

// deliverDirect copies data into the buffer the destination has published
// for the duration of a RecvInto park, if this message is the one that
// receive matches next. A payload of another element type or longer than the
// buffer is queued so the receiver reports it from the ordinary path. The
// copy, the completion record and the retraction are one critical section of
// dst.mu — the only place anyone but its owner writes a published buffer.
func deliverDirect[T any](dst *procState, comm, src, tag int, data []T, bytes int, arrival float64) bool {
	dst.mu.Lock()
	in := dst.into
	if in.etype != typeOf[T]() || len(data) > in.n || !dst.awaits(comm, src, tag) {
		dst.mu.Unlock()
		return false
	}
	copy(unsafe.Slice((*T)(in.ptr), len(data)), data)
	dst.got = directMsg{src: src, tag: tag, bytes: bytes, arrival: arrival, done: true}
	dst.retractInto()
	// The receive is satisfied: the process no longer reads as blocked to the
	// revoked-deadlock detector, which would find no queued message for it.
	dst.waitSh = nil
	dst.directs++
	dst.notifyLocked()
	dst.mu.Unlock()
	return true
}

// enqueue queues an arriving envelope in the destination's mailbox. It
// always bumps the epoch — a receiver between its mailbox check and its park
// must see that something landed — but signals only a process it can
// unblock: one parked in a receive of another signature stays asleep, where
// an unconditional wake would have it find nothing and park again. A
// rendezvous and a parked fiber are woken as before.
//
// A message queued while it matches a published RecvInto buffer retracts
// that buffer: its sender chose the queue before the receiver parked, and
// until the receiver runs, the same sender's next message would otherwise be
// delivered directly and overtake this one.
func (dst *procState) enqueue(env *envelope) {
	dst.mu.Lock()
	dst.mb.push(env)
	if dst.waitSh != nil && dst.cont == nil && !dst.awaits(env.commID, env.src, env.tag) {
		dst.epoch++
	} else {
		dst.retractInto()
		dst.notifyLocked()
	}
	dst.mu.Unlock()
}

// Recv receives a message from rank src with the given tag on the
// communicator; there are no wildcards. It blocks until a matching message
// arrives, and returns MPI_ERR_PROC_FAILED when the source is dead and
// MPI_ERR_REVOKED on a revoked communicator. A source outside the group is
// ErrComm, as is a negative tag.
func Recv[T any](c *Comm, src, tag int) ([]T, Status, error) {
	if tag < 0 {
		var zero []T
		return zero, Status{}, c.fire(fmt.Errorf("mpi: Recv: negative tag %d is reserved: %w", tag, ErrComm))
	}
	data, stt, err := recvRaw[T](c, src, tag, false)
	return data, stt, c.fire(err)
}

// RecvInto is Recv into the caller's buffer, the MPI_Recv signature: the
// message's elements are written to buf[:n] and Status.Bytes tells how many.
// buf is the caller's before and after the call — nothing is acquired from or
// released to the transport's pool on its behalf, and once RecvInto has
// returned, with or without an error, the runtime no longer writes it. While
// the call blocks, a matching send copies its payload straight from the
// sender's slice into buf. Matching, virtual time, accounting and failure
// reporting are exactly Recv's; in addition a message longer than buf is
// consumed and reported as ErrTruncate, with buf untouched.
func RecvInto[T any](c *Comm, src, tag int, buf []T) (Status, error) {
	if tag < 0 {
		return Status{}, c.fire(fmt.Errorf("mpi: RecvInto: negative tag %d is reserved: %w", tag, ErrComm))
	}
	into := intoBuf{ptr: unsafe.Pointer(unsafe.SliceData(buf)), n: len(buf), etype: typeOf[T]()}
	env, stt, err := recvMatch(c, src, tag, false, into)
	if env != nil { // matched in the mailbox; nil: failed, or delivered directly
		var data []T
		if data, stt, err = open[T](env); err == nil {
			if len(data) > len(buf) {
				stt, err = Status{}, fmt.Errorf("mpi: RecvInto: message of %d elements for a buffer of %d: %w", len(data), len(buf), ErrTruncate)
			} else {
				copy(buf, data)
			}
			putBuf(data)
		}
	}
	return stt, c.fire(err)
}

// RecvOne receives a single value.
func RecvOne[T any](c *Comm, src, tag int) (T, Status, error) {
	var zero T
	data, stt, err := Recv[T](c, src, tag)
	if err != nil {
		return zero, stt, err
	}
	if len(data) != 1 {
		return zero, stt, c.fire(fmt.Errorf("mpi: RecvOne: got %d values: %w", len(data), ErrType))
	}
	return data[0], stt, nil
}

// recvRaw is the receive shared by Recv and the internal collective receives
// (internal=true additionally honours collective abort records, which
// propagate collective failure without deadlock): the matching engine, then
// the payload handed over as the caller's slice.
func recvRaw[T any](c *Comm, src, tag int, internal bool) ([]T, Status, error) {
	env, _, err := recvMatch(c, src, tag, internal, intoBuf{})
	if err != nil {
		return nil, Status{}, err
	}
	return open[T](env)
}

// intoBuf is a RecvInto destination in untyped form: first element, length
// in elements and element type. A nil etype means none.
type intoBuf struct {
	ptr   unsafe.Pointer
	n     int
	etype reflect.Type
}

// directMsg records a message delivered straight into a published buffer,
// for the receiver to account once it runs.
type directMsg struct {
	src, tag, bytes int
	arrival         float64
	done            bool
}

// recvMatch is the one blocking-receive loop, under Recv, RecvInto and the
// collectives. It returns the matched envelope with the receive already
// charged to the clock and the metrics; or, when into names a buffer and a
// sender delivered straight into it while the caller was parked, a nil
// envelope and the message's status.
//
// The priority order — matching message, then the source's recorded abort,
// then the source's death, then the source's quiesce after revocation —
// mirrors the source's own program order (a rank sends before it aborts or
// quiesces, and either precedes its death), so the receiver's outcome is a
// function of the source's virtual-time history alone, independent of
// wall-clock scheduling.
//
// Locking: the mailbox check takes only the caller's own mu; the failure
// checks are lock-free or take a brief state read lock (see recvVerdict).
// Because message and verdict are no longer inspected under one big lock,
// any verdict is followed by a mandatory mailbox re-check: the source's
// mailbox insert happens-before the global-state write the verdict read, so
// a matching message that raced in is visible by then and wins, exactly as
// it did under the old priority loop.
//
// The buffer is published only for the duration of the park, beside the
// waitSh/waitSrc/waitTag descriptor, and is retracted under mu before the
// loop runs on — whoever ended the park. So while it is published no
// matching message is queued (enqueue retracts it), and after recvMatch
// returns no sender can reach it.
func recvMatch(c *Comm, src, tag int, internal bool, into intoBuf) (*envelope, Status, error) {
	st := c.p.st
	w := st.w
	st.hookOp(OpRecv)
	t0 := st.clock.Now()
	if c.sawRevoked {
		return nil, Status{}, ErrRevoked
	}
	published := false
	var source *procState // resolved once the receive has published
	listed := false       // on source's namer list
	defer func() {
		if listed {
			st.leaveNamers(source)
		}
		if published {
			st.unblock()
		}
	}()
	matched := func(env *envelope) (*envelope, Status, error) {
		chargeRecv(st, env.arrival, env.bytes, internal, t0)
		return env, Status{}, nil
	}
	woke := false
	for {
		st.mu.Lock()
		env := st.mb.take(c.sh.id, src, tag)
		first := env == nil && !published
		if first {
			// The receive may park: publish what it waits for, before the
			// epoch read and the checks below, so control-plane events can
			// tell whether it concerns them (see blockedOp). A message that
			// is already here — the failure-free fast path — skips this.
			st.block(c.recvOp(src))
			published = true
		}
		e, g := st.epoch, w.evGen.Load()
		st.mu.Unlock()
		if env != nil {
			return matched(env)
		}
		if first {
			// ... and, in a collective, join the source's namer list before
			// the verdict: only a collective's own receive consults the
			// source's aborts (joinNamers). An invalid rank has no process:
			// its verdict is ErrComm.
			if pw, err := c.peerWorld(src); err == nil {
				source = w.proc(pw)
				if internal {
					st.joinNamers(source)
					listed = true
				}
			}
		}

		if v := recvVerdict(c, src, tag, internal); v.err != nil {
			st.mu.Lock()
			env = st.mb.take(c.sh.id, src, tag)
			st.mu.Unlock()
			if env != nil {
				return matched(env)
			}
			if v.abort {
				// The peer bailed out of this collective instance and
				// will never send; model the failure notification as one
				// wire latency from its abort point.
				st.clock.SyncTo(v.at + w.machine.Alpha)
				st.clock.AdvanceAttr(w.machine.RecvOverhead, vtime.CompORecv)
			}
			return nil, Status{}, v.err
		}

		if c.sh.revoked.Load() {
			// Register as blocked on this communicator before running the
			// detector, so that when the last runnable members head for
			// their final park "simultaneously", whichever takes the
			// detector's atomic snapshot last sees all the others already
			// registered and resolves the group.
			st.mu.Lock()
			st.waitSh, st.waitSrc, st.waitTag = c.sh, src, tag
			st.mu.Unlock()
			if revokedDeadlock(c, st.wrank) {
				st.mu.Lock()
				env = st.mb.take(c.sh.id, src, tag)
				st.waitSh = nil
				st.mu.Unlock()
				if env != nil {
					return matched(env)
				}
				return nil, Status{}, ErrRevoked
			}
		}

		st.mu.Lock()
		if woke {
			st.emptyWakes++ // the last park's wake resolved nothing
			woke = false
		}
		if st.epoch == e {
			st.waitSh, st.waitSrc, st.waitTag = c.sh, src, tag
			if into.etype != nil {
				st.into = into
				st.intoSet.Store(true)
			}
			st.parks++ // taken back below if park returns without sleeping
			if st.park(e, g, c.parkCount(source)) {
				woke = true
			} else {
				st.parks--
			}
			st.retractInto()
		}
		got := st.got
		st.got.done = false
		st.waitSh = nil
		st.mu.Unlock()
		if got.done {
			// Delivered while parked: a matching message beats whatever else
			// ended the park.
			chargeRecv(st, got.arrival, got.bytes, internal, t0)
			return nil, Status{Source: got.src, Tag: got.tag, Bytes: got.bytes}, nil
		}
	}
}

// retractInto withdraws the buffer a RecvInto park published. Caller holds
// st.mu.
func (st *procState) retractInto() {
	if st.into.etype != nil {
		st.into = intoBuf{}
		st.intoSet.Store(false)
	}
}

// awaits reports whether the process is blocked in a receive that a message
// of this signature satisfies. Caller holds st.mu.
func (st *procState) awaits(comm, src, tag int) bool {
	return st.waitSh != nil && st.waitSh.id == comm &&
		st.waitSrc == src && st.waitTag == tag
}

// chargeRecv accounts one completed receive: virtual-time sync to the
// message's arrival, the receive overhead, and the metrics.
func chargeRecv(st *procState, arrival float64, bytes int, internal bool, t0 float64) {
	w := st.w
	st.clock.SyncTo(arrival)
	st.clock.AdvanceAttr(w.machine.RecvOverhead, vtime.CompORecv)
	if wm := w.wm; wm != nil {
		wm.countRecv(st.wrank, bytes)
		if !internal {
			wm.observeOp("recv", st.clock.Now()-t0)
		}
	}
}

// open extracts a matched envelope's payload as the caller's slice and
// recycles the envelope; the buffer becomes the caller's.
func open[T any](env *envelope) ([]T, Status, error) {
	data, ok := payload[T](env)
	if !ok {
		err := fmt.Errorf("mpi: Recv: message holds []%v: %w", env.etype, ErrType)
		putEnv(env)
		return nil, Status{}, err
	}
	stt := Status{Source: env.src, Tag: env.tag, Bytes: env.bytes}
	putEnv(env)
	return data, stt, nil
}

// deliver completes a receive the event path matched itself: chargeRecv,
// then open.
func deliver[T any](c *Comm, env *envelope, internal bool, t0 float64) ([]T, Status, error) {
	chargeRecv(c.p.st, env.arrival, env.bytes, internal, t0)
	return open[T](env)
}

// verdict is the outcome of a receive's failure checks.
type verdict struct {
	err   error
	abort bool    // err reports a recorded collective abort...
	at    float64 // ...at this virtual time
}

// recvVerdict evaluates, in program-order priority, the conditions under
// which a receive must stop waiting: the source's recorded collective
// abort (internal receives only), its quiesce on a revoked communicator,
// its death. Lock-free in the failure-free case: group membership is
// immutable, liveness is atomic, and the abort/quiesce maps are consulted
// only once an atomic gate flag or the source's liveness says there is
// something to see.
//
// Then the maps and the liveness are read together, under one state read
// lock. A source aborts, quiesces and dies in that program order, each a
// separate write of the state, so a snapshot that shows a later step shows
// the earlier ones too. Read one at a time, a receiver could miss the abort,
// then see the quiesce or the death that followed it, and fail without the
// abort's clock sync — a virtual time that depends on when it looked. Must
// be called without any transport lock held.
func recvVerdict(c *Comm, src, tag int, internal bool) verdict {
	w := c.p.st.w
	pw, err := c.peerWorld(src)
	if err != nil {
		return verdict{err: err}
	}
	if !(internal && c.sh.hasAborts.Load()) && !c.sh.revoked.Load() && w.alive(pw) {
		return verdict{}
	}
	w.state.RLock()
	at, aborted := c.sh.aborts[tag][pw]
	aborted = aborted && internal
	mismatch := aborted && c.sh.mismatched[[2]int{tag, pw}]
	quiesced := c.sh.quiesced[pw]
	alive := w.alive(pw)
	w.state.RUnlock()
	switch {
	case mismatch:
		return verdict{err: errPeerMismatch, abort: true, at: at}
	case aborted:
		return verdict{err: errCollectiveFailed, abort: true, at: at}
	case quiesced:
		return verdict{err: ErrRevoked}
	case !alive:
		return verdict{err: c.failedErr(src, pw)}
	}
	return verdict{}
}

// revokedDeadlock reports whether, on a revoked communicator, every other
// live non-quiesced member is blocked receiving on the same communicator
// with no pending resolution (no matchable message already delivered). At
// that point no member can ever send again, so the whole group must resolve
// to MPI_ERR_REVOKED — the asynchronous interruption MPI_Comm_revoke
// guarantees. Whether the group reaches this state is a function of each
// member's deterministic operation sequence, so the fallback preserves
// run-to-run determinism.
//
// The check takes an atomic snapshot: World.state freezes membership,
// quiesce and liveness transitions, and every member's mu (ascending world
// rank — the one place multiple process locks are held) freezes their
// parked state. A non-atomic scan could assemble a view that never existed
// at any instant and nondeterministically resolve a live group. Caller
// must hold no transport lock.
//
// The caller — self, registered as blocked before the call — is held to the
// same test first. Its own receive may have gained a resolution after its
// verdict check (the source aborted or quiesced in between); resolving the
// group then would answer MPI_ERR_REVOKED where the program-order verdict
// answers the abort, at a virtual time that depends on which came first in
// wall-clock time. The caller loops and takes the verdict instead.
func revokedDeadlock(c *Comm, self int) bool {
	w := c.p.st.w
	w.state.Lock()
	defer w.state.Unlock()
	ps := w.snapshot()
	me := ps[self]
	me.mu.Lock()
	pending := !stuckOn(w, c.sh, me)
	me.mu.Unlock()
	if pending {
		return false
	}
	locked := c.sh.byRank
	if locked == nil {
		locked = make([]*procState, len(c.sh.members))
		for i, wr := range c.sh.members {
			locked[i] = ps[wr]
		}
		slices.SortFunc(locked, func(a, b *procState) int { return a.wrank - b.wrank })
		c.sh.byRank = locked
	}
	for _, q := range locked {
		q.mu.Lock()
	}
	dead := true
	for _, q := range locked {
		if q.wrank != self && !stuckOn(w, c.sh, q) {
			dead = false
			break
		}
	}
	for i := len(locked) - 1; i >= 0; i-- {
		locked[i].mu.Unlock()
	}
	return dead
}

// stuckOn reports whether member q of communicator sh can never act on it
// again by itself: it is dead, or quiesced, or blocked receiving on sh with
// no resolution pending. Caller holds World.state and q.mu.
func stuckOn(w *World, sh *commShared, q *procState) bool {
	if !q.alive.Load() || sh.quiesced[q.wrank] {
		return true
	}
	if q.waitSh != sh {
		return false // not blocked on this communicator; it may still send
	}
	// A matchable message is waiting (it will consume it), or the receive
	// has a failure resolution recorded (source abort/quiesce/death) and
	// the wake is merely in flight. Counting it as stuck would resolve the
	// group early at a wall-clock-dependent moment — the member must
	// instead error out of its collective along the deterministic
	// program-order chain.
	return q.mb.peek(sh.id, q.waitSrc, q.waitTag) == nil &&
		!pendingRecvVerdict(w, sh, q, q.waitSrc, q.waitTag)
}

// pendingRecvVerdict reports whether member q's receive from rank src with
// tag already has a failure resolution recorded — a collective abort by its
// source for that instance tag, its source's quiesce, or its source's
// death. Such a member is about to be woken and must not be counted as
// permanently stuck by revokedDeadlock. Caller holds World.state and q.mu.
func pendingRecvVerdict(w *World, sh *commShared, q *procState, src, tag int) bool {
	// Resolve the source's world rank: the remote group for an
	// intercommunicator member, the (only) group otherwise.
	g := sh.a
	if sh.b != nil && Group(sh.a).Rank(q.wrank) >= 0 {
		g = sh.b
	}
	if src < 0 || src >= len(g) {
		return false
	}
	pw := g[src]
	if _, ok := sh.aborts[tag][pw]; ok {
		return true
	}
	if sh.quiesced[pw] {
		return true
	}
	return !w.alive(pw)
}

// errPeerMismatch is what the peers of a member that left over a mismatch
// receive. That member is alive: this is not MPI_ERR_PROC_FAILED.
var errPeerMismatch = fmt.Errorf("mpi: a peer left the collective over a mismatch: %w", ErrType)

// abortCollective records that the caller bailed out of collective instance
// (comm, tag) because of cause and wakes the members receiving from it,
// guaranteeing that peers blocked inside the same collective observe
// MPI_ERR_PROC_FAILED (or errPeerMismatch) instead of deadlocking — the
// behaviour the paper relies on when using MPI_Barrier for failure
// detection. The abort is a per-instance record rather than an injected
// message so that a receiver consults only the fate of the specific peer it
// awaits; mailbox arrival order (wall-clock dependent) never decides the
// outcome.
func abortCollective(c *Comm, tag int, cause error) {
	st := c.p.st
	w := st.w
	w.state.Lock()
	if c.sh.aborts == nil {
		c.sh.aborts = make(map[int]map[int]float64)
	}
	m := c.sh.aborts[tag]
	if m == nil {
		m = make(map[int]float64)
		c.sh.aborts[tag] = m
	}
	if _, ok := m[st.wrank]; !ok {
		m[st.wrank] = st.clock.Now()
		if errors.Is(cause, ErrType) {
			if c.sh.mismatched == nil {
				c.sh.mismatched = make(map[[2]int]bool)
			}
			c.sh.mismatched[[2]int{tag, st.wrank}] = true
		}
	}
	c.sh.hasAborts.Store(true)
	// Only a receive naming the aborter consults its abort record; on the
	// goroutine path each such receive is on the aborter's namer list.
	if w.mayWake(evAbort, st) {
		if w.eventEntry != nil {
			w.wakeWaiters(evAbort, c.sh.members, c.sh.id, st.wrank)
		} else {
			w.wakeNamers(st, c.sh.id)
		}
	}
	w.state.Unlock()
}

// internalTag builds the reserved tag for collective kind k, instance seq.
func internalTag(kind, seq int) int {
	return -(internalTagBase + seq*16 + kind)
}
