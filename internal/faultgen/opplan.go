package faultgen

import (
	"fmt"

	"ftsg/internal/mpi"
)

// OpEvent describes one operation-granularity kill: instead of dying at a
// solver-step boundary (Plan), the victim dies at the entry of one of its
// own MPI operations — inside a barrier, a halo exchange, a gather, or the
// recovery protocol itself.
type OpEvent struct {
	// AfterOps is the 1-based count of observed MPI operations after which
	// the victim dies: its AfterOps-th operation never completes.
	AfterOps int
	// DuringRecovery delays counting until the victim enters the recovery
	// protocol: operations are ignored until the victim's shrink call, which
	// counts as operation 1, so a small AfterOps lands the death inside an
	// in-progress repair (spawn, merge, agree, split) — the pathology whose
	// cost the paper's Table I measures.
	DuringRecovery bool
}

// OpPlan maps doomed ranks to operation-granularity kill events. Like Plan,
// it is drawn deterministically from a seed, so every simulated process
// derives the same plan without communication; unlike Plan, it is executed
// by an mpi.OpHook (see Hook) rather than polled per step.
type OpPlan struct {
	victims map[int]OpEvent
}

// NewOpPlan draws one victim per event, honouring the usual constraints:
// rank 0 never fails, ranks in exclude (typically a step plan's victims for
// the same run) are never chosen, and no two victims — counting the excluded
// ranks — may hit a conflicting sub-grid pair. Events are assigned to the
// drawn victims in order.
func NewOpPlan(cfg Config, events []OpEvent, exclude []int) (*OpPlan, error) {
	if len(events) == 0 {
		return &OpPlan{victims: map[int]OpEvent{}}, nil
	}
	for i, e := range events {
		if e.AfterOps < 1 {
			return nil, fmt.Errorf("faultgen: op event %d: AfterOps %d < 1", i, e.AfterOps)
		}
	}
	excluded := make(map[int]bool, len(exclude))
	for _, r := range exclude {
		excluded[r] = true
	}
	eligible := 0
	for r := 1; r < cfg.NumRanks; r++ {
		if !excluded[r] {
			eligible++
		}
	}
	if len(events) > eligible {
		return nil, fmt.Errorf("faultgen: %d op events with only %d eligible ranks", len(events), eligible)
	}
	s := newSampler(cfg)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		victims := make(map[int]OpEvent, len(events))
		taken := func(r int) bool {
			_, dup := victims[r]
			return dup || excluded[r]
		}
		hitGrids := make(map[int]bool)
		if cfg.GridOf != nil {
			for _, r := range exclude {
				if g := cfg.GridOf(r); g >= 0 {
					hitGrids[g] = true
				}
			}
		}
		ok := true
		for _, e := range events {
			var r int
			if r, ok = s.draw(taken, hitGrids); !ok {
				break
			}
			victims[r] = e
		}
		if ok {
			return &OpPlan{victims: victims}, nil
		}
	}
	return nil, fmt.Errorf("faultgen: could not place %d op events under constraints", len(events))
}

// Hook returns the mpi.OpHook that executes this plan for the given original
// world rank, or nil when the rank is not a victim. The closure keeps its
// operation count across SetOpHook arm/disarm cycles, so the caller can
// blank out program phases whose peers cannot tolerate a mid-operation death
// without resetting the count. Install it only on the victim's own Proc.
func (p *OpPlan) Hook(proc *mpi.Proc, rank int) mpi.OpHook {
	if p == nil {
		return nil
	}
	e, ok := p.victims[rank]
	if !ok {
		return nil
	}
	n := 0
	counting := !e.DuringRecovery
	return func(op string) {
		if !counting {
			if op != mpi.OpShrink {
				return
			}
			counting = true // the shrink itself is operation 1
		}
		n++
		if n >= e.AfterOps {
			proc.Kill()
		}
	}
}
