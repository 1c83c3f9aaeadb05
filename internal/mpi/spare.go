package mpi

import (
	"errors"
	"fmt"
)

// This file implements spare-process claiming: the substitute recovery mode's
// replacement for dynamic spawn. Options.SpareRanks parks extra processes at
// startup (alive, placed, but members of no communicator and running no
// code); ClaimSpares wakes n of them through the ordinary rendezvous
// machinery and knits them to the callers with the same intercommunicator
// shape SpawnMultiple produces, so the downstream merge/agree/split protocol
// is identical. The modelled cost is agreement-scale, not spawn-scale — the
// processes already exist, which is the entire point of pre-allocation.

// ErrNoSpares reports that a ClaimSpares call asked for more spare processes
// than remain parked. Every member of the collective receives it, so callers
// can fall back (e.g. to shrink-only recovery) deterministically.
var ErrNoSpares = errors.New("mpi: no spare processes available")

// ClaimSpares wakes n parked spare processes (Options.SpareRanks) and
// returns an intercommunicator with the callers as the local group and the
// claimed spares as the remote group — the same shape SpawnMultiple returns,
// so the claimed processes observe a non-nil Proc.Parent and attach exactly
// like re-spawned replacements. It is collective over this
// intracommunicator. If fewer than n spares remain, every member receives
// ErrNoSpares and no spare is consumed.
func (c *Comm) ClaimSpares(n int) (*Comm, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: ClaimSpares on intercommunicator: %w", ErrComm))
	}
	if n <= 0 {
		return nil, c.fire(fmt.Errorf("mpi: ClaimSpares: n = %d: %w", n, ErrComm))
	}
	return c.spawnHandle(runRendezvous(c, "claim", failOnDeath, false, rvzInput{}, claimBuild(c, n)))
}

// claimBuild is ClaimSpares's shared-result builder: ErrNoSpares when the
// pool is short (consuming nothing), otherwise the spares knitted in by
// claimLocked under World.state. Shared by the blocking ClaimSpares and
// FiberClaimSpares so both paths meet in the same rendezvous instance.
func claimBuild(c *Comm, n int) buildFunc {
	return func(w *World, r *rendezvous) (any, float64) {
		if len(w.spareFree) < n {
			return &spawnResult{err: ErrNoSpares}, 0
		}
		// Waking parked processes costs one agreement round over the
		// survivors plus the joiners — no process launch, no image
		// distribution. This is the measured substitute advantage over
		// SpawnCost.
		cost := w.machine.ULFM.AgreeCost(len(c.sh.a)+n, 0)
		start := r.maxArrival(w) + cost
		return &spawnResult{handles: w.claimLocked(c.sh.a, n, start)}, cost
	}
}

// claimLocked consumes the first n parked spares and launches them on the
// world's execution path, knitted in exactly as spawnLocked knits its
// children. Caller holds World.state (write) and has checked
// len(w.spareFree) >= n. Returns the parent side's handles.
func (w *World) claimLocked(parentGroup []int, n int, start float64) []Comm {
	ps := w.snapshot()
	sts := make([]*procState, n)
	for i, wr := range w.spareFree[:n] {
		sts[i] = ps[wr]
	}
	w.spareFree = w.spareFree[n:]
	w.sparesUsed += n
	return w.startChildrenLocked(parentGroup, sts, start)
}
