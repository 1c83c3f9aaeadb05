// This file runs the recovery protocol on the event-driven MPI path: CPS
// twins of repair, ChildAttach and reconstruct, written against the
// mpi.Fiber* operations so a repairing rank parks as a continuation instead
// of a sleeping goroutine. Each twin opens and closes the same phases as its
// blocking original through the same record (Stats.open, phase.close), which
// alone times a phase, ends its span on the caller's original rank and books
// its Stats field and charges; the twins differ only in where they park. So
// traces, metrics and timings are byte-identical across the two paths. A
// parked continuation captures its phase's record and nothing more of it:
// the name and the Stats field are given at the close. Respawned replacements and claimed spares attach
// back as fibers (mpi.World startProcLocked), observing a non-nil
// Proc.Parent exactly like their goroutine-path counterparts.
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
func fiberRepair(p *mpi.Proc, f *mpi.Fiber, broken *mpi.Comm, st *Stats, place Placement, mode Mode, track int, k func(repaired *mpi.Comm, failedRanks []int, fellBack bool, err error)) {
	ph := st.open(p, track, "revoke", "")
	_ = broken.Revoke()
	ph.close(p, st, "revoke", nil, nil)

	ph1 := st.open(p, track, "shrink", "")
	mpi.FiberShrink(f, broken, func(shrunk *mpi.Comm, err error) {
		if ph1.close(p, st, "shrink", &st.ShrinkTime, err) != nil {
			k(nil, nil, false, fmt.Errorf("recovery: shrink: %w", err))
			return
		}

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
			ph3 := st.open(p, track, "spawn", plan.detail)
			mpi.FiberSpawnMultiple(f, shrunk, totalFailed, plan.hosts, 0, func(inter *mpi.Comm, err error) {
				if ph3.close(p, st, "spawn", &st.SpawnTime, err) != nil {
					k(nil, nil, false, fmt.Errorf("recovery: spawn: %w", err))
					return
				}
				fiberKnit(p, f, track, shrunk, inter, failedRanks, st, k)
			})
		case ModeSubstitute:
			ph3 := st.open(p, track, "claim", "%d spares", totalFailed)
			mpi.FiberClaimSpares(f, shrunk, totalFailed, func(inter *mpi.Comm, err error) {
				if errors.Is(ph3.close(p, st, "claim", &st.SpawnTime, err), mpi.ErrNoSpares) {
					k(shrunk, failedRanks, true, nil)
					return
				}
				if err != nil {
					k(nil, nil, false, fmt.Errorf("recovery: claim: %w", err))
					return
				}
				fiberKnit(p, f, track, shrunk, inter, failedRanks, st, k)
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
func fiberKnit(p *mpi.Proc, f *mpi.Fiber, track int, shrunk, inter *mpi.Comm, failedRanks []int, st *Stats, k func(*mpi.Comm, []int, bool, error)) {
	ph := st.open(p, track, "merge", "")
	mpi.FiberIntercommMerge(f, inter, false, func(unordered *mpi.Comm, err error) {
		if ph.close(p, st, "merge", &st.MergeTime, err) != nil {
			k(nil, nil, false, fmt.Errorf("recovery: merge: %w", err))
			return
		}

		// As on the blocking path: past the merge the replacements are
		// blocked inside their own attach, so any failure below revokes the
		// merged communicator to orphan them deterministically.
		abandon := func(err error) error {
			_ = unordered.Revoke()
			return err
		}

		ph1 := st.open(p, track, "agree", "")
		mpi.FiberAgree(f, inter, 1, func(_ int, err error) {
			if ph1.close(p, st, "agree", &st.AgreeTime, err) != nil {
				k(nil, nil, false, abandon(fmt.Errorf("recovery: agree: %w", err)))
				return
			}

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
			ph2 := st.open(p, track, "split", "restore rank order, key %d", key)
			mpi.FiberSplit(f, unordered, 0, key, func(repaired *mpi.Comm, err error) {
				if ph2.close(p, st, "split", &st.SplitTime, err) != nil {
					k(nil, nil, false, abandon(fmt.Errorf("recovery: split: %w", err)))
					return
				}
				k(repaired, failedRanks, false, nil)
			})
		})
	})
}

// FiberChildAttach is ChildAttach for fiber code: the child part of Fig. 3 —
// synchronise, merge high, learn the predecessor's rank, split into order.
// Its spans go on the world-unique id's track, as ChildAttach's do.
func FiberChildAttach(p *mpi.Proc, f *mpi.Fiber, parent *mpi.Comm, st *Stats, k func(*mpi.Comm, int, error)) {
	parent.SetErrhandler(ErrorHandler(p))
	ph := st.open(p, p.WorldRank(), "agree", "child synchronise")
	mpi.FiberAgree(f, parent, 1, func(_ int, agreeErr error) {
		ph.close(p, st, "agree", &st.AgreeTime, nil) // booked even when it failed
		if agreeErr != nil {
			k(nil, -1, fmt.Errorf("recovery: child agree: %v: %w", agreeErr, ErrOrphaned))
			return
		}

		ph1 := st.open(p, p.WorldRank(), "merge", "child merge high")
		mpi.FiberIntercommMerge(f, parent, true, func(unordered *mpi.Comm, err error) {
			if ph1.close(p, st, "merge", &st.MergeTime, err) != nil {
				k(nil, -1, fmt.Errorf("recovery: child merge: %w", err))
				return
			}

			mpi.FiberRecvOne[int](f, unordered, 0, MergeTag, func(oldRank int, _ mpi.Status, err error) {
				if err != nil {
					if retryable(err) {
						k(nil, -1, fmt.Errorf("recovery: child receive old rank: %v: %w", err, ErrOrphaned))
						return
					}
					k(nil, -1, fmt.Errorf("recovery: child receive old rank: %w", err))
					return
				}

				ph2 := st.open(p, p.WorldRank(), "split", "assume old rank %d", oldRank)
				mpi.FiberSplit(f, unordered, 0, oldRank, func(ordered *mpi.Comm, err error) {
					if ph2.close(p, st, "split", &st.SplitTime, err) != nil {
						if retryable(err) {
							k(nil, -1, fmt.Errorf("recovery: child split: %v: %w", err, ErrOrphaned))
							return
						}
						k(nil, -1, fmt.Errorf("recovery: child split: %w", err))
						return
					}
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
	// repair decision is uniform across members. Its span and the repair's go
	// on the original rank, read again for the repair rather than captured,
	// so each parked continuation holds no more than its own phase record.
	ph := st.open(p, OrigAt(l.lg.cur, reconstructed.Rank()), "detect", "barrier + agree round")
	mpi.FiberBarrier(l.f, reconstructed, func(barrierErr error) {
		mpi.FiberAgree(l.f, reconstructed, 1, func(_ int, agreeErr error) {
			ph.close(p, st, "detect", &st.ListTime, nil)

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
			fiberRepair(p, l.f, reconstructed, st, l.place, l.mode, OrigAt(l.lg.cur, reconstructed.Rank()), func(repaired *mpi.Comm, failed []int, fellBack bool, err error) {
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
