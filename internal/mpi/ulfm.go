package mpi

import (
	"fmt"

	"ftsg/internal/vtime"
)

// This file implements the ULFM (User Level Failure Mitigation) extensions
// the paper's recovery protocol uses: OMPI_Comm_revoke, OMPI_Comm_shrink,
// OMPI_Comm_agree, OMPI_Comm_failure_ack and OMPI_Comm_failure_get_acked.
// Their costs follow the calibrated beta-ULFM model (vtime.ULFMModel),
// reproducing the Table I pathologies for multiple failures.

// Revoke marks the communicator revoked (OMPI_Comm_revoke). Revocation is
// not collective: any member may call it, and every pending or future
// operation on the communicator — except Shrink, Agree, FailureAck and
// FailureGetAcked — completes with MPI_ERR_REVOKED at every member.
func (c *Comm) Revoke() error {
	st := c.p.st
	w := st.w
	c.sawRevoked = true
	w.state.Lock()
	first := !c.sh.revoked.Load()
	if first {
		c.sh.revoked.Store(true)
		if w.revokedComms == nil {
			w.revokedComms = make(map[int]bool)
		}
		w.revokedComms[c.sh.id] = true
	}
	st.clock.AdvanceAttr(w.machine.ULFM.RevokeCost, vtime.CompRevoke)
	w.wm.countRevoke()
	c.quiesceLocked(first)
	w.state.Unlock()
	return nil
}

// quiesceLocked records that the caller has observed the communicator's
// revocation and wakes the receivers that may now resolve. Only a receive on
// this communicator can be resolved by a revocation or by a quiesce record;
// rendezvous collectives consult the owner-only sawRevoked at entry and
// nothing afterwards. The first revocation walks every member: a receiver
// that parked before it is counted only on its source. After it, every
// receive on the communicator parks counted as one on a revoked
// communicator, so a later quiesce walks only if mayWake finds one asleep.
// Caller holds state (write).
func (c *Comm) quiesceLocked(first bool) {
	st := c.p.st
	w := st.w
	if c.sh.quiesced == nil {
		c.sh.quiesced = make(map[int]bool)
	}
	c.sh.quiesced[st.wrank] = true
	if first || w.mayWake(evQuiesce, st) {
		w.wakeWaiters(evQuiesce, c.sh.members, c.sh.id, everySource)
	}
}

// Shrink builds a new intracommunicator containing the surviving members of
// this (possibly revoked) intracommunicator, in their original relative
// order (OMPI_Comm_shrink). It succeeds even in the presence of failures —
// that is its purpose — and its cost follows the beta-ULFM model, which is
// dramatically more expensive for two or more failures (Table I).
func (c *Comm) Shrink() (*Comm, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Shrink on intercommunicator: %w", ErrComm))
	}
	return c.shrinkHandle(runRendezvous(c, OpShrink, ignoreDeath, true, rvzInput{}, shrinkBuild(c)))
}

// shrinkHandle completes a Shrink from its rendezvous outcome: the
// caller's handle, or the error, fired.
func (c *Comm) shrinkHandle(res any, err error) (*Comm, error) {
	if err != nil {
		return nil, c.fire(err)
	}
	return c.adopt(&res.([]Comm)[c.rank]), nil
}

// shrinkBuild is Shrink's shared-result builder: the survivors of the old
// group in their original relative order, costed by the beta-ULFM shrink
// model. Shared by the blocking Shrink and FiberShrink so both paths meet in
// the same rendezvous instance. The result is the new communicator's
// handles by member position.
func shrinkBuild(c *Comm) buildFunc {
	return func(w *World, r *rendezvous) (any, float64) {
		hs := make([]Comm, len(r.members))
		alive := make([]int, 0, len(r.members)-r.dead)
		for pos, wr := range r.members {
			// MPI_UNDEFINED for a dead member: only one an abort failed
			// while it waited here takes its handle, and it unwinds at its
			// next operation.
			hs[pos].rank = -1
			if w.alive(wr) {
				hs[pos].rank = len(alive)
				alive = append(alive, wr)
			}
		}
		sh := w.newCommLocked(alive, nil)
		for pos := range hs {
			hs[pos].sh = sh
		}
		return hs, w.machine.ULFM.ShrinkCost(len(r.members), r.dead)
	}
}

// Agree performs fault-tolerant agreement on the bitwise AND of the flags
// contributed by the surviving members (OMPI_Comm_agree). It works on
// revoked communicators and on intercommunicators (both groups participate,
// as when the paper synchronises the spawn intercommunicator's parent and
// child sides). If any member of the communicator has failed, the agreed
// flag is still returned together with MPI_ERR_PROC_FAILED.
func (c *Comm) Agree(flag int) (int, error) {
	res, err := runRendezvous(c, OpAgree, reportDeath, true, rvzInput{a: flag}, agreeBuild(c))
	if res == nil {
		return 0, c.fire(err)
	}
	return res.(int), c.fire(err)
}

// agreeBuild is Agree's shared-result builder: bitwise AND over the inputs
// of surviving members, costed by the beta-ULFM agreement model. Shared by
// the blocking Agree and the event-driven FiberAgree so both paths meet in
// the same rendezvous instance with identical results and costs.
func agreeBuild(c *Comm) buildFunc {
	return func(w *World, r *rendezvous) (any, float64) {
		agreed := -1 // all bits set
		for pos := range r.slots {
			if s := &r.slots[pos]; s.here && w.alive(r.members[pos]) {
				agreed &= s.a
			}
		}
		nfailed := r.dead
		if c.sh.repairFor > nfailed {
			nfailed = c.sh.repairFor
		}
		return agreed, w.machine.ULFM.AgreeCost(len(r.members), nfailed)
	}
}

// FailureAck acknowledges all currently known failures on the communicator
// (OMPI_Comm_failure_ack): FailureGetAcked returns exactly this snapshot.
// acked is owner-only handle state. (The runtime has no wildcard receives,
// so there is no MPI_ERR_PENDING for an ack to lift.)
//
// The snapshot is the communicator's one failed list for the current
// World.deathGen, shared read-only by every handle: the first ack after a
// departure builds it under the state write lock, every later one reads it
// under the read lock. So a dance in which every member acks walks the
// group once per death, not once per member.
func (c *Comm) FailureAck() error {
	st := c.p.st
	w := st.w
	w.state.RLock()
	a := c.sh.ack
	if a != nil && a.gen != w.deathGen {
		a = nil
	}
	w.state.RUnlock()
	if a == nil {
		w.state.Lock()
		if a = c.sh.ack; a == nil || a.gen != w.deathGen {
			a = &ackList{gen: w.deathGen}
			for _, r := range c.sh.members {
				if !w.alive(r) {
					a.failed = append(a.failed, r)
				}
			}
			c.sh.ack = a
		}
		w.state.Unlock()
	}
	c.acked = a.failed
	st.clock.AdvanceAttr(w.machine.ULFM.GroupOpCost*float64(len(c.sh.members)), vtime.CompAck)
	return nil
}

// FailureGetAcked returns the group (world ranks) of failures acknowledged
// by the last FailureAck on this handle (OMPI_Comm_failure_get_acked). It is
// the acknowledged snapshot itself, shared read-only by every handle that
// acked at the same World.deathGen: read it, never write to it.
func (c *Comm) FailureGetAcked() Group { return c.acked }

// ChargeGroupOp charges the local cost of an MPI_Group_* manipulation over n
// elements, used by the recovery layer when it builds the failed-process
// list (paper Fig. 6).
func (c *Comm) ChargeGroupOp(n int) {
	c.p.st.clock.AdvanceAttr(c.p.st.w.machine.ULFM.GroupOpCost*float64(n), vtime.CompGroupOp)
}
