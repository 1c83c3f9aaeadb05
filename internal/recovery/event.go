// This file runs the recovery protocol on the event-driven MPI path: CPS
// twins of repair, ChildAttach and reconstruct, written against the
// mpi.Fiber* operations so a repairing rank parks as a continuation instead
// of a sleeping goroutine. Every twin preserves its blocking original's span,
// charge and Stats accumulation sequence exactly — the same phases in the
// same order at the same virtual times — so traces, metrics and timings are
// byte-identical across the two paths. Respawned replacements and claimed
// spares attach back as fibers (mpi.World startProcLocked), observing a
// non-nil Proc.Parent exactly like their goroutine-path counterparts.
package recovery

import (
	"errors"
	"fmt"

	"ftsg/internal/mpi"
)

// fiberRepair is repair for fiber code: revoke, shrink, failed-procs list,
// then the mode's way of acquiring replacements, with every blocking step a
// parked continuation. Spawned and claimed replacements are knitted in by
// fiberKnit.
func fiberRepair(p *mpi.Proc, f *mpi.Fiber, broken *mpi.Comm, st *Stats, place Placement, mode Mode, k func(repaired *mpi.Comm, failedRanks []int, fellBack bool, err error)) {
	me := broken.Rank()
	t0 := p.Now()
	sp := st.span(t0, me, "revoke", "")
	_ = broken.Revoke()
	sp.End(p.Now())
	st.charge("revoke", p.Now()-t0)

	t1 := p.Now()
	sp1 := st.span(t1, me, "shrink", "")
	mpi.FiberShrink(f, broken, func(shrunk *mpi.Comm, err error) {
		sp1.End(p.Now())
		if err != nil {
			k(nil, nil, false, fmt.Errorf("recovery: shrink: %w", err))
			return
		}
		st.ShrinkTime += p.Now() - t1
		st.charge("shrink", p.Now()-t1)

		t2 := p.Now()
		failedRanks := FailedProcsList(broken, shrunk)
		st.ListTime += p.Now() - t2
		if len(failedRanks) == 0 {
			k(nil, nil, false, fmt.Errorf("recovery: repair called with no failed processes"))
			return
		}
		st.FailedRanks = failedRanks
		totalFailed := len(failedRanks)

		switch mode {
		case ModeSpawn:
			plan := planSpawn(p, broken, shrunk, failedRanks, place)
			if plan.err != nil {
				k(nil, nil, false, fmt.Errorf("recovery: placement: %w", plan.err))
				return
			}
			t3 := p.Now()
			sp3 := st.span(t3, me, "spawn", plan.detail)
			mpi.FiberSpawnMultiple(f, shrunk, totalFailed, plan.hosts, 0, func(inter *mpi.Comm, err error) {
				sp3.End(p.Now())
				if err != nil {
					k(nil, nil, false, fmt.Errorf("recovery: spawn: %w", err))
					return
				}
				st.SpawnTime += p.Now() - t3
				st.charge("spawn", p.Now()-t3)
				fiberKnit(p, f, me, shrunk, inter, failedRanks, st, k)
			})
		case ModeSubstitute:
			t3 := p.Now()
			sp3 := st.span(t3, me, "claim", "%d spares", totalFailed)
			mpi.FiberClaimSpares(f, shrunk, totalFailed, func(inter *mpi.Comm, err error) {
				sp3.End(p.Now())
				if errors.Is(err, mpi.ErrNoSpares) {
					k(shrunk, failedRanks, true, nil)
					return
				}
				if err != nil {
					k(nil, nil, false, fmt.Errorf("recovery: claim: %w", err))
					return
				}
				st.SpawnTime += p.Now() - t3
				st.charge("claim", p.Now()-t3)
				fiberKnit(p, f, me, shrunk, inter, failedRanks, st, k)
			})
		default: // ModeShrink, ModeNoRepair: nothing to knit in
			k(shrunk, failedRanks, false, nil)
		}
	})
}

// fiberKnit is the back half of repair for fiber code: merge the acquired
// replacements in, agree, send them their old ranks, and split back into the
// pre-failure order. A named function rather than a closure in fiberRepair
// so the two acquiring modes share it without an allocation per repair.
func fiberKnit(p *mpi.Proc, f *mpi.Fiber, me int, shrunk, inter *mpi.Comm, failedRanks []int, st *Stats, k func(*mpi.Comm, []int, bool, error)) {
	t0 := p.Now()
	sp := st.span(t0, me, "merge", "")
	mpi.FiberIntercommMerge(f, inter, false, func(unordered *mpi.Comm, err error) {
		sp.End(p.Now())
		if err != nil {
			k(nil, nil, false, fmt.Errorf("recovery: merge: %w", err))
			return
		}
		st.MergeTime += p.Now() - t0
		st.charge("merge", p.Now()-t0)

		// As on the blocking path: past the merge the replacements are
		// blocked inside their own attach, so any failure below revokes the
		// merged communicator to orphan them deterministically.
		abandon := func(err error) error {
			_ = unordered.Revoke()
			return err
		}

		t1 := p.Now()
		sp1 := st.span(t1, me, "agree", "")
		mpi.FiberAgree(f, inter, 1, func(_ int, err error) {
			sp1.End(p.Now())
			if err != nil {
				k(nil, nil, false, abandon(fmt.Errorf("recovery: agree: %w", err)))
				return
			}
			st.AgreeTime += p.Now() - t1
			st.charge("agree", p.Now()-t1)

			shrinkedGroupSize := shrunk.Size()
			if unordered.Rank() == 0 {
				for i, fr := range failedRanks {
					if err := mpi.FiberSendOne(unordered, shrinkedGroupSize+i, MergeTag, fr); err != nil {
						k(nil, nil, false, abandon(fmt.Errorf("recovery: send old rank: %w", err)))
						return
					}
				}
			}

			totalProcs := unordered.Size()
			key := SelectRankKey(unordered.Rank(), shrinkedGroupSize, failedRanks, totalProcs)
			t2 := p.Now()
			sp2 := st.span(t2, me, "split", "restore rank order, key %d", key)
			mpi.FiberSplit(f, unordered, 0, key, func(repaired *mpi.Comm, err error) {
				sp2.End(p.Now())
				if err != nil {
					k(nil, nil, false, abandon(fmt.Errorf("recovery: split: %w", err)))
					return
				}
				st.SplitTime += p.Now() - t2
				st.charge("split", p.Now()-t2)
				k(repaired, failedRanks, false, nil)
			})
		})
	})
}

// FiberChildAttach is ChildAttach for fiber code: the child part of Fig. 3 —
// synchronise, merge high, learn the predecessor's rank, split into order.
func FiberChildAttach(p *mpi.Proc, f *mpi.Fiber, parent *mpi.Comm, st *Stats, k func(*mpi.Comm, int, error)) {
	me := p.WorldRank()
	parent.SetErrhandler(ErrorHandler(p))
	t0 := p.Now()
	sp := st.span(t0, me, "agree", "child synchronise")
	mpi.FiberAgree(f, parent, 1, func(_ int, agreeErr error) {
		sp.End(p.Now())
		st.AgreeTime += p.Now() - t0
		st.charge("agree", p.Now()-t0)
		if agreeErr != nil {
			k(nil, -1, fmt.Errorf("recovery: child agree: %v: %w", agreeErr, ErrOrphaned))
			return
		}

		t1 := p.Now()
		sp1 := st.span(t1, me, "merge", "child merge high")
		mpi.FiberIntercommMerge(f, parent, true, func(unordered *mpi.Comm, err error) {
			sp1.End(p.Now())
			if err != nil {
				k(nil, -1, fmt.Errorf("recovery: child merge: %w", err))
				return
			}
			st.MergeTime += p.Now() - t1
			st.charge("merge", p.Now()-t1)

			mpi.FiberRecvOne[int](f, unordered, 0, MergeTag, func(oldRank int, _ mpi.Status, err error) {
				if err != nil {
					if retryable(err) {
						k(nil, -1, fmt.Errorf("recovery: child receive old rank: %v: %w", err, ErrOrphaned))
						return
					}
					k(nil, -1, fmt.Errorf("recovery: child receive old rank: %w", err))
					return
				}

				t2 := p.Now()
				sp2 := st.span(t2, me, "split", "assume old rank %d", oldRank)
				mpi.FiberSplit(f, unordered, 0, oldRank, func(ordered *mpi.Comm, err error) {
					sp2.End(p.Now())
					if err != nil {
						if retryable(err) {
							k(nil, -1, fmt.Errorf("recovery: child split: %v: %w", err, ErrOrphaned))
							return
						}
						k(nil, -1, fmt.Errorf("recovery: child split: %w", err))
						return
					}
					st.SplitTime += p.Now() - t2
					st.charge("split", p.Now()-t2)
					k(ordered, oldRank, nil)
				})
			})
		})
	})
}

// FiberReconstruct is Reconstruct for fiber code.
func FiberReconstruct(p *mpi.Proc, f *mpi.Fiber, myWorld, parent *mpi.Comm, st *Stats, k func(*mpi.Comm, int, error)) {
	fiberReconstruct(p, f, myWorld, parent, st, SameHostPlacement, ModeSpawn, nil, nil, k)
}

// FiberReconstructMode is ReconstructMode for fiber code. Survivors thread
// origOf exactly as on the blocking path; replacements pass a nil
// communicator and their Proc.Parent.
func FiberReconstructMode(p *mpi.Proc, f *mpi.Fiber, myWorld, parent *mpi.Comm, st *Stats, place Placement, mode Mode, origOf []int, k func(*ModeResult, error)) {
	res := new(ModeResult)
	fiberReconstruct(p, f, myWorld, parent, st, place, mode, origOf, res, func(c *mpi.Comm, rank int, err error) {
		if err != nil {
			k(nil, err)
			return
		}
		res.Comm, res.Rank = c, rank
		k(res, nil)
	})
}

// fiberReconstruct is reconstruct for fiber code: the Fig. 3 detect/repair
// loop, with each iteration a call of fiberLoop.round so retries after a
// mid-repair failure and the child-becomes-parent transition both continue
// the same continuation chain. The position map and fallback count go to res
// when it is non-nil, so FiberReconstruct can hand its continuation straight
// through.
func fiberReconstruct(p *mpi.Proc, f *mpi.Fiber, myWorld, parent *mpi.Comm, st *Stats, place Placement, mode Mode, origOf []int, res *ModeResult, k func(*mpi.Comm, int, error)) {
	switch mode {
	case ModeSpawn, ModeSubstitute:
	case ModeShrink, ModeNoRepair:
		if parent != nil {
			k(nil, -1, fmt.Errorf("recovery: mode %v has no replacement processes", mode))
			return
		}
	default:
		k(nil, -1, fmt.Errorf("recovery: unknown mode %v", mode))
		return
	}
	l := &fiberLoop{p: p, f: f, st: st, place: place, mode: mode, handler: ErrorHandler(p), lg: ledger{cur: origOf}, res: res, k: k}
	l.round(myWorld, parent, 0)
}

// fiberLoop is what the rounds of one fiberReconstruct call share; holding it
// in one place keeps every parked continuation down to a pointer and its own
// round's locals.
type fiberLoop struct {
	p       *mpi.Proc
	f       *mpi.Fiber
	st      *Stats
	place   Placement
	mode    Mode
	handler mpi.Errhandler
	lg      ledger
	res     *ModeResult
	k       func(*mpi.Comm, int, error)
}

// round is one iteration of the Fig. 3 loop.
func (l *fiberLoop) round(reconstructed, parent *mpi.Comm, iter int) {
	p, st := l.p, l.st
	st.Iterations = iter + 1
	if parent != nil {
		// Child path: attach, then behave as a parent to verify.
		t0 := p.Now()
		FiberChildAttach(p, l.f, parent, st, func(ordered *mpi.Comm, _ int, err error) {
			st.ReconstructTime += p.Now() - t0
			if err != nil {
				l.k(nil, -1, err)
				return
			}
			l.round(ordered, nil, iter+1)
		})
		return
	}

	reconstructed.SetErrhandler(l.handler)
	// Detection as on the blocking path: barrier first, agree last, so the
	// repair decision is uniform across members.
	t0 := p.Now()
	sp := st.span(t0, reconstructed.Rank(), "detect", "barrier + agree round")
	mpi.FiberBarrier(l.f, reconstructed, func(barrierErr error) {
		mpi.FiberAgree(l.f, reconstructed, 1, func(_ int, agreeErr error) {
			sp.End(p.Now())
			st.ListTime += p.Now() - t0
			st.charge("detect", p.Now()-t0)

			if agreeErr == nil && barrierErr == nil {
				if l.lg.replaced != nil {
					st.FailedRanks = l.lg.replaced
				}
				if l.res != nil {
					l.res.OrigOf, l.res.Fallbacks = l.lg.cur, l.lg.fallbacks
				}
				l.k(reconstructed, reconstructed.Rank(), nil)
				return
			}

			t1 := p.Now()
			fiberRepair(p, l.f, reconstructed, st, l.place, l.mode, func(repaired *mpi.Comm, failed []int, fellBack bool, err error) {
				st.ReconstructTime += p.Now() - t1
				if err != nil {
					if retryable(err) && iter+1 < maxRepairRounds {
						// Retry from the SAME broken communicator, exactly as
						// reconstruct does.
						l.round(reconstructed, nil, iter+1)
						return
					}
					l.k(nil, -1, err)
					return
				}
				l.lg.record(l.mode, failed, repaired.Size() < reconstructed.Size(), fellBack)
				l.round(repaired, nil, iter+1)
			})
		})
	})
}
