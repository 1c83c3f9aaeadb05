package mpi

import (
	"fmt"

	"ftsg/internal/vtime"
)

// The event-driven transport core: ranks as parked continuations.
//
// On the goroutine path every blocking call sleeps on the rank's condvar,
// pinning a full goroutine stack per rank for the lifetime of the run — the
// wall-clock (not virtual-time) scaling wall at 4096+ ranks. On this path a
// rank is a Fiber: its program is written in continuation-passing style,
// and a blocking operation registers a re-pollable completion (a poll
// closure plus the captured continuation) instead of sleeping. The bounded
// executor (exec.go) drives fibers; when a fiber's poll cannot complete it
// parks by publishing itself as procState.cont, and the next unblock-capable
// event — matching envelope, collective abort, agree verdict, death, revoke,
// watchdog abort — re-queues it through the same notifyLocked that signals
// sleeping goroutines.
//
// The park protocol mirrors the condvar protocol exactly (world.go package
// comment): the engine reads the rank's epoch, runs the poll, and parks only
// if the epoch is unchanged under the rank's mu — so a wake racing with the
// poll is never lost. Wakers never touch Fiber fields; the executor queue
// handoff orders every access, and a fiber is published in procState.cont
// only while parked, so it can never run on two workers.
//
// Virtual-time parity is by construction: the Fiber* operations reuse the
// exact sends (sendRaw/sendOwned — eager, never blocking), delivery
// (deliver), failure verdicts (recvVerdict, revokedDeadlock, abortCollective)
// and algorithm shapes (coll.go's dissemination/binomial trees, coll_hier.go's
// two-level and ring variants, with the same tags and the same fold orders)
// as the blocking path, so a fiber program produces byte-identical virtual
// times, metrics and failure semantics to its blocking twin.

// Fiber is one rank's execution context on the event-driven path
// (Options.EventEntry). Fiber code must use the Fiber* operations for
// anything that blocks; plain sends (Send), Compute charges and
// communicator queries never block and work unchanged. A blocking call
// (Recv, Barrier, ...) from fiber code would sleep the executor worker
// itself and can deadlock a small pool — don't.
type Fiber struct {
	p     *Proc
	start func()      // entry thunk, consumed on first dispatch
	poll  func() bool // armed await: true once resolved (continuation ran)
	next  *Fiber      // executor ready-queue link
	// blocked-receive descriptor copied into procState on park, feeding
	// the revoked-deadlock detector, the watchdog dump and /debug/ranks
	// exactly like a blocked goroutine's.
	waitSh  *commShared
	waitSrc int
	waitTag int
}

// await arms the fiber's next wakeup condition. poll runs with no locks
// held; it must either complete the operation (invoke the continuation,
// possibly arming the next await) and return true, or return false to park.
// op is published as the rank's blocked-op descriptor — here, before
// driveFiber reads the epoch for this poll, exactly where a blocking call
// publishes its own. The runtime's polls retract it (unblock) before they
// run the continuation; one left standing only costs a spurious wake until
// the next await replaces it. opAny suits a wait on a condition the runtime
// does not know.
func (f *Fiber) await(op blockedOp, poll func() bool) {
	if f.poll != nil {
		panic("mpi: fiber already has an operation in flight")
	}
	f.p.st.block(op)
	f.waitSh = nil
	f.poll = poll
}

// awaitRecv is await for a receive: it additionally records the receive's
// (communicator, source, tag), which driveFiber copies into procState on
// park for the revoked-deadlock detector, the watchdog dump and
// /debug/ranks.
func (f *Fiber) awaitRecv(c *Comm, src, tag int, poll func() bool) {
	f.await(c.recvOp(src), poll)
	f.waitSh, f.waitSrc, f.waitTag = c.sh, src, tag
}

// runEvent executes the event-driven path: one fiber per rank, all
// initially ready, driven by the bounded executor until every fiber has
// finished or died.
func (w *World) runEvent(o Options, hands []Proc) {
	ex := newExecutor(o.EventWorkers)
	w.exec = ex
	w.wm.enableEventGauges()
	fibers := make([]Fiber, len(hands))
	entry := o.EventEntry
	for r := range fibers {
		f := &fibers[r]
		f.p = &hands[r]
		f.start = func() { entry(f.p, f) }
	}
	ex.reserve(len(fibers))
	for r := range fibers {
		ex.ready(&fibers[r])
	}
	ex.run(w)
}

// driveFiber runs one dispatched fiber until it parks, finishes, or dies.
// The loop is the trampoline: a poll that completes inline returns before
// the next armed poll runs, so continuation chains never deepen the stack
// across awaits.
func (w *World) driveFiber(f *Fiber) {
	st := f.p.st
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSignal); ok {
				w.markFailed(st)
				w.exec.fiberDone()
				return
			}
			panic(r)
		}
	}()
	if s := f.start; s != nil {
		f.start = nil
		s()
	}
	for {
		poll := f.poll
		if poll == nil {
			// The continuation chain returned with nothing armed: the
			// rank's program is complete.
			w.finish(st)
			w.exec.fiberDone()
			return
		}
		e := st.epochNow()
		f.poll = nil
		if poll() {
			continue // resolved; the continuation may have re-armed f.poll
		}
		f.poll = poll
		st.mu.Lock()
		if st.epoch == e {
			st.waitSh, st.waitSrc, st.waitTag = f.waitSh, f.waitSrc, f.waitTag
			st.cont = f
			st.mu.Unlock()
			w.noteParked(1)
			return
		}
		// An event landed between the epoch read and the park: re-poll.
		// Clear any blocked-receive registration the poll made (the
		// revoked-deadlock detector's), exactly as recvRaw does after every
		// park attempt — a running fiber must never read as blocked.
		st.waitSh = nil
		st.mu.Unlock()
	}
}

// --- point-to-point -------------------------------------------------------

// FiberRecv is Recv for fiber code: the continuation receives exactly what
// Recv would have returned, with identical matching, virtual-time and
// failure semantics.
func FiberRecv[T any](f *Fiber, c *Comm, src, tag int, k func([]T, Status, error)) {
	if tag < 0 {
		k(nil, Status{}, c.fire(fmt.Errorf("mpi: Recv: negative tag %d is reserved: %w", tag, ErrComm)))
		return
	}
	fiberRecvRaw[T](f, c, src, tag, false, func(data []T, stt Status, err error) {
		k(data, stt, c.fire(err))
	})
}

// fiberRecvRaw is recvRaw in continuation-passing form. Each poll runs one
// iteration of recvRaw's loop — mailbox match, then the program-order
// failure verdict with its mandatory mailbox re-check, then the
// revoked-communicator deadlock detector — and the engine's epoch gate
// replaces the condvar park.
func fiberRecvRaw[T any](f *Fiber, c *Comm, src, tag int, internal bool, k func([]T, Status, error)) {
	st := c.p.st
	w := st.w
	st.hookOp(OpRecv)
	t0 := st.clock.Now()
	if c.sawRevoked {
		k(nil, Status{}, ErrRevoked)
		return
	}
	// Fast path: the matching envelope is already queued (on a FIFO
	// executor the eager send usually lands before the receiver is
	// dispatched) — deliver inline without allocating the poll closure.
	// Identical to recvRaw's first mailbox check, so program-order
	// semantics and virtual time are unchanged; the inline continuation
	// deepens the stack only within one collective (bounded by its step
	// count), not across awaits.
	st.mu.Lock()
	env := st.mb.take(c.sh.id, src, tag)
	st.mu.Unlock()
	if env != nil {
		k(deliver[T](c, env, internal, t0))
		return
	}
	f.awaitRecv(c, src, tag, func() bool {
		st.mu.Lock()
		env := st.mb.take(c.sh.id, src, tag)
		st.mu.Unlock()
		if env != nil {
			st.unblock()
			k(deliver[T](c, env, internal, t0))
			return true
		}

		if v := recvVerdict(c, src, tag, internal); v.err != nil {
			st.mu.Lock()
			env = st.mb.take(c.sh.id, src, tag)
			st.mu.Unlock()
			st.unblock()
			if env != nil {
				k(deliver[T](c, env, internal, t0))
				return true
			}
			if v.abort {
				st.clock.SyncTo(v.at + w.machine.Alpha)
				st.clock.AdvanceAttr(w.machine.RecvOverhead, vtime.CompORecv)
			}
			k(nil, Status{}, v.err)
			return true
		}

		if c.sh.revoked.Load() {
			// Register as blocked before running the detector, for the
			// same final-park race recvRaw documents.
			st.mu.Lock()
			st.waitSh, st.waitSrc, st.waitTag = c.sh, src, tag
			st.mu.Unlock()
			if revokedDeadlock(c, st.wrank) {
				st.mu.Lock()
				env = st.mb.take(c.sh.id, src, tag)
				st.waitSh = nil
				st.mu.Unlock()
				st.unblock()
				if env != nil {
					k(deliver[T](c, env, internal, t0))
					return true
				}
				k(nil, Status{}, ErrRevoked)
				return true
			}
		}
		return false
	})
}

// --- collectives ----------------------------------------------------------

// FiberBarrier is Comm.Barrier for fiber code: same dissemination /
// two-level algorithm, same instance tag, same abort propagation.
func FiberBarrier(f *Fiber, c *Comm, k func(error)) {
	if c.IsInter() {
		k(c.fire(fmt.Errorf("mpi: Barrier on intercommunicator: %w", ErrComm)))
		return
	}
	t0 := opStart(c, "barrier")
	tag := internalTag(kindBarrier, c.nextSeq(kindBarrier))
	done := func(err error) {
		if err != nil {
			abortCollective(c, tag, err)
			k(c.fire(err))
			return
		}
		opEnd(c, "barrier", t0)
		k(nil)
	}
	if t := c.hierTopo(); t != nil {
		fiberHierBarrier(f, c, t, tag, done)
	} else {
		fiberDisseminate(f, c, tag, wholeComm(c), c.rank, done)
	}
}

// fiberDisseminate is disseminate in CPS: the dissemination rounds of a
// barrier over l.
func fiberDisseminate(f *Fiber, c *Comm, tag int, l rankList, myIdx int, k func(error)) {
	n := l.n
	var round func(step int)
	round = func(step int) {
		if step >= n {
			k(nil)
			return
		}
		if err := sendOwned(c, l.at((myIdx+step)%n), tag, barrierToken); err != nil {
			k(err)
			return
		}
		fiberRecvRaw[byte](f, c, l.at((myIdx-step+n)%n), tag, true, func(_ []byte, _ Status, err error) {
			if err != nil {
				k(err)
				return
			}
			round(step << 1)
		})
	}
	round(1)
}

// fiberHierBarrier mirrors hierBarrier: intra-node fan-in, dissemination
// over node leaders, intra-node fan-out.
func fiberHierBarrier(f *Fiber, c *Comm, t *commTopo, tag int, k func(error)) {
	me := c.rank
	myNode := t.nodeOf[me]
	node := t.nodes[myNode]
	myIdx := indexOf(node, me)
	fiberTokenFanIn(f, c, tag, node, myIdx, func(err error) {
		if err != nil {
			k(err)
			return
		}
		out := func(err error) {
			if err != nil {
				k(err)
				return
			}
			fiberTokenFanOut(f, c, tag, node, myIdx, k)
		}
		if myIdx != 0 {
			out(nil)
			return
		}
		fiberDisseminate(f, c, tag, subList(t.leaders), myNode, out)
	})
}

// fiberTokenFanIn is tokenFanIn in CPS: binomial fan-in of the barrier
// token to list[0].
func fiberTokenFanIn(f *Fiber, c *Comm, tag int, list []int, myIdx int, k func(error)) {
	n := len(list)
	var step func(mask int)
	step = func(mask int) {
		if mask >= n {
			k(nil)
			return
		}
		if myIdx&mask != 0 {
			k(sendOwned(c, list[myIdx-mask], tag, barrierToken))
			return
		}
		if src := myIdx + mask; src < n {
			fiberRecvRaw[byte](f, c, list[src], tag, true, func(_ []byte, _ Status, err error) {
				if err != nil {
					k(err)
					return
				}
				step(mask << 1)
			})
			return
		}
		step(mask << 1)
	}
	step(1)
}

// fiberTokenFanOut is tokenFanOut in CPS: the reverse binomial fan-out
// from list[0].
func fiberTokenFanOut(f *Fiber, c *Comm, tag int, list []int, myIdx int, k func(error)) {
	n := len(list)
	down := func(mask int) {
		for ; mask > 0; mask >>= 1 {
			if myIdx+mask < n {
				if err := sendOwned(c, list[myIdx+mask], tag, barrierToken); err != nil {
					k(err)
					return
				}
			}
		}
		k(nil)
	}
	var up func(mask int)
	up = func(mask int) {
		if mask >= n {
			down(mask >> 1)
			return
		}
		if myIdx&mask != 0 {
			fiberRecvRaw[byte](f, c, list[myIdx-mask], tag, true, func(_ []byte, _ Status, err error) {
				if err != nil {
					k(err)
					return
				}
				down(mask >> 1)
			})
			return
		}
		up(mask << 1)
	}
	up(1)
}

// fiberBcastList is bcastList in CPS over l, rooted at
// l.at(rootIdx); identical virtual-root rotation, so identical message
// endpoints and arrival times, and the same one lent array.
func fiberBcastList[T any](f *Fiber, c *Comm, tag int, l rankList, rootIdx, myIdx int, data []T, k func([]T, error)) {
	n := l.n
	vr := (myIdx - rootIdx + n) % n
	down := func(buf []T, mask int) {
		for ; mask > 0; mask >>= 1 {
			if vr+mask < n {
				if err := sendLent(c, l.at((vr+mask+rootIdx)%n), tag, buf); err != nil {
					k(nil, err)
					return
				}
			}
		}
		k(lent(buf), nil)
	}
	var up func(mask int)
	up = func(mask int) {
		if mask >= n {
			down(data, mask>>1)
			return
		}
		if vr&mask != 0 {
			fiberRecvRaw[T](f, c, l.at((vr-mask+rootIdx)%n), tag, true, func(got []T, _ Status, err error) {
				if err != nil {
					k(nil, err)
					return
				}
				down(got, mask>>1)
			})
			return
		}
		up(mask << 1)
	}
	up(1)
}

// fiberReduceList is reduceList in CPS: same pooled-accumulator
// ownership discipline, same fold (foldReceived) and fold order
// op(accumulated, received), so floating-point results are bit-identical.
// Delivers the accumulator to the continuation at the root, nil elsewhere.
func fiberReduceList[T any](f *Fiber, c *Comm, tag int, l rankList, rootIdx, myIdx int, data []T, owned bool, fo folder[T], k func([]T, error)) {
	n := l.n
	vr := (myIdx - rootIdx + n) % n
	var acc []T
	if owned {
		acc = data
	}
	var step func(mask int)
	step = func(mask int) {
		if mask >= n || vr&mask != 0 {
			if acc == nil {
				acc = cloneBuf(data)
			}
			if vr == 0 {
				k(acc, nil)
				return
			}
			k(nil, sendOwned(c, l.at((vr-mask+rootIdx)%n), tag, acc))
			return
		}
		srcVr := vr + mask
		if srcVr >= n {
			step(mask << 1)
			return
		}
		fiberRecvRaw[T](f, c, l.at((srcVr+rootIdx)%n), tag, true, func(got []T, _ Status, err error) {
			if err != nil {
				k(nil, err)
				return
			}
			if len(got) != len(data) {
				k(nil, fmt.Errorf("mpi: Reduce: length mismatch %d vs %d: %w", len(got), len(data), ErrType))
				return
			}
			acc = foldReceived(fo, acc, data, got)
			step(mask << 1)
		})
	}
	step(1)
}

// FiberAllreduce is Allreduce for fiber code: flat reduce+bcast, or the
// hierarchical tree / leader-ring variants past the same cutover, all with
// the blocking path's tags, shapes and fold orders, and the same lent
// result.
func FiberAllreduce[T any](f *Fiber, c *Comm, data []T, op func(T, T) T, k func([]T, error)) {
	if c.IsInter() {
		k(nil, c.fire(fmt.Errorf("mpi: Allreduce on intercommunicator: %w", ErrComm)))
		return
	}
	t0 := opStart(c, "allreduce")
	tag := internalTag(kindAllreduce, c.nextSeq(kindAllreduce))
	done := func(buf []T, err error) {
		if err != nil {
			abortCollective(c, tag, err)
			k(nil, c.fire(err))
			return
		}
		opEnd(c, "allreduce", t0)
		k(buf, nil)
	}
	fo := newFolder(op)
	if t := c.hierTopo(); t != nil {
		if useRing(len(data)*elemSize[T](), len(t.leaders)) {
			fiberHierAllreduceRing(f, c, t, tag, data, fo, done)
		} else {
			fiberHierAllreduce(f, c, t, tag, data, fo, done)
		}
		return
	}
	whole := wholeComm(c)
	fiberReduceList(f, c, tag, whole, 0, c.rank, data, false, fo, func(buf []T, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		fiberBcastList(f, c, tag, whole, 0, c.rank, buf, done)
	})
}

// fiberHierReduce mirrors hierReduce: intra-node reduce to the effective
// leader (consuming data when owned), then an owned-handoff reduce over
// leaders.
func fiberHierReduce[T any](f *Fiber, c *Comm, t *commTopo, tag, root int, data []T, owned bool, fo folder[T], k func([]T, error)) {
	me := c.rank
	myNode := t.nodeOf[me]
	node := t.nodes[myNode]
	lead := t.nodeLead(myNode, root)
	fiberReduceList(f, c, tag, subList(node), indexOf(node, lead), indexOf(node, me), data, owned, fo, func(acc []T, err error) {
		if err != nil {
			k(nil, err)
			return
		}
		if me != lead {
			k(nil, nil)
			return
		}
		fiberReduceList(f, c, tag, subList(t.effLeaders(root)), t.nodeOf[root], myNode, acc, true, fo, k)
	})
}

// fiberHierBcast mirrors hierBcast: binomial over effective leaders, then
// binomial within each node.
func fiberHierBcast[T any](f *Fiber, c *Comm, t *commTopo, tag, root int, data []T, k func([]T, error)) {
	me := c.rank
	myNode := t.nodeOf[me]
	node := t.nodes[myNode]
	lead := t.nodeLead(myNode, root)
	intra := func(buf []T) {
		fiberBcastList(f, c, tag, subList(node), indexOf(node, lead), indexOf(node, me), buf, k)
	}
	if me != lead {
		intra(data)
		return
	}
	fiberBcastList(f, c, tag, subList(t.effLeaders(root)), t.nodeOf[root], myNode, data, func(buf []T, err error) {
		if err != nil {
			k(nil, err)
			return
		}
		intra(buf)
	})
}

// fiberHierAllreduce mirrors hierAllreduce: hierarchical reduce to rank 0,
// then hierarchical bcast, one shared tag.
func fiberHierAllreduce[T any](f *Fiber, c *Comm, t *commTopo, tag int, data []T, fo folder[T], k func([]T, error)) {
	fiberHierReduce(f, c, t, tag, 0, data, false, fo, func(buf []T, err error) {
		if err != nil {
			k(nil, err)
			return
		}
		fiberHierBcast(f, c, t, tag, 0, buf, k)
	})
}

// fiberHierAllreduceRing mirrors hierAllreduceRing: intra-node reduce, ring
// reduce-scatter + allgather over node leaders, intra-node bcast.
func fiberHierAllreduceRing[T any](f *Fiber, c *Comm, t *commTopo, tag int, data []T, fo folder[T], k func([]T, error)) {
	me := c.rank
	myNode := t.nodeOf[me]
	node := t.nodes[myNode]
	myIdx := indexOf(node, me)
	fiberReduceList(f, c, tag, subList(node), 0, myIdx, data, false, fo, func(acc []T, err error) {
		if err != nil {
			k(nil, err)
			return
		}
		fin := func(err error) {
			if err != nil {
				k(nil, err)
				return
			}
			fiberBcastList(f, c, tag, subList(node), 0, myIdx, acc, k)
		}
		if myIdx != 0 {
			fin(nil)
			return
		}
		fiberRingAllreduce(f, c, t, tag, myNode, acc, fo, fin)
	})
}

// fiberRingAllreduce is ringAllreduce in CPS: the leader-ring
// reduce-scatter and allgather phases, reducing acc in place with the same
// chunking and ring fold order.
func fiberRingAllreduce[T any](f *Fiber, c *Comm, t *commTopo, tag, j int, acc []T, fo folder[T], k func(error)) {
	L := len(t.leaders)
	next := t.leaders[(j+1)%L]
	prev := t.leaders[(j-1+L)%L]
	m := len(acc)
	lo := func(kk int) int { return kk * m / L }
	var gather func(step int)
	var scatter func(step int)
	scatter = func(step int) {
		if step >= L-1 {
			gather(0)
			return
		}
		sk := ((j-step)%L + L) % L
		if err := sendRaw(c, next, tag, acc[lo(sk):lo(sk+1)]); err != nil {
			k(err)
			return
		}
		rk := ((j-step-1)%L + L) % L
		fiberRecvRaw[T](f, c, prev, tag, true, func(got []T, _ Status, err error) {
			if err != nil {
				k(err)
				return
			}
			seg := acc[lo(rk):lo(rk+1)]
			if len(got) != len(seg) {
				k(fmt.Errorf("mpi: Allreduce: ring chunk mismatch %d vs %d: %w", len(got), len(seg), ErrType))
				return
			}
			fo.fold(seg, seg, got)
			putBuf(got)
			scatter(step + 1)
		})
	}
	gather = func(step int) {
		if step >= L-1 {
			k(nil)
			return
		}
		sk := ((j+1-step)%L + L) % L
		if err := sendRaw(c, next, tag, acc[lo(sk):lo(sk+1)]); err != nil {
			k(err)
			return
		}
		rk := ((j-step)%L + L) % L
		fiberRecvRaw[T](f, c, prev, tag, true, func(got []T, _ Status, err error) {
			if err != nil {
				k(err)
				return
			}
			seg := acc[lo(rk):lo(rk+1)]
			if len(got) != len(seg) {
				k(fmt.Errorf("mpi: Allreduce: ring chunk mismatch %d vs %d: %w", len(got), len(seg), ErrType))
				return
			}
			copy(seg, got)
			putBuf(got)
			gather(step + 1)
		})
	}
	scatter(0)
}

// --- ULFM agree -----------------------------------------------------------

// FiberAgree is Comm.Agree for fiber code: the same rendezvous meeting
// point (rendezvous.go's enter/poll/finish protocol), so fiber and
// goroutine members of one communicator can even meet in the same Agree
// instance with identical cost and clock synchronisation.
func FiberAgree(f *Fiber, c *Comm, flag int, k func(int, error)) {
	fiberRendezvous(f, c, OpAgree, reportDeath, true, rvzInput{a: flag}, agreeBuild(c), func(res any, err error) {
		if res == nil {
			k(0, c.fire(err))
			return
		}
		k(res.(int), c.fire(err))
	})
}
