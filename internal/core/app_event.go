package core

import (
	"slices"

	"ftsg/internal/grid"
	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
)

// The application on the event-driven MPI path (Config.Event): rank() in
// continuation-passing style, built on the Fiber* twins in mpi, recovery and
// pde.ParallelSolver. The steps between the blocking calls are the very
// ones rank() runs (steps.go), in the same order, and every twin preserves
// its blocking original's virtual-time behaviour, so the two paths produce
// byte-identical Results, traces, journals and metrics. What this file adds
// is the second way to block: each call rank() waits on becomes a
// continuation here, each of its loops a recursive closure.

// fiberRank is a rank's program state plus what parks and resumes it.
type fiberRank struct {
	*rankState
	f    *mpi.Fiber
	dps  []int
	done func(error) // final continuation; runs exactly once
}

// eventEntry is entry for fiber code (mpi.Options.EventEntry).
func (rs *runState) eventEntry(p *mpi.Proc, f *mpi.Fiber) {
	r, err := rs.newRank(p)
	fr := &fiberRank{rankState: r, f: f, dps: rs.dps}
	fr.done = func(err error) {
		r.release()
		rs.exit(p, err)
	}
	if err != nil {
		fr.done(err)
		return
	}
	fr.begin()
}

// then continues with next unless the step before it failed.
func (fr *fiberRank) then(next func()) func(error) {
	return func(err error) {
		if err != nil {
			fr.done(err)
			return
		}
		next()
	}
}

// begin is rank() up to its loop.
func (fr *fiberRank) begin() {
	rs, p := fr.rs, fr.p
	loop := func() { fr.nextDP(0) }
	if !fr.replacement {
		fr.build(fr.then(loop))
		return
	}
	tAttach := fr.beginDetect()
	recovery.FiberReconstructMode(p, fr.f, nil, p.Parent(), &fr.st, rs.place, rs.cfg.RecoveryMode, nil, func(mr *recovery.ModeResult, err error) {
		if err != nil {
			fr.done(err)
			return
		}
		tMerged := p.Now()
		mpi.FiberBcast[int](fr.f, mr.Comm, 0, nil, func(buf []int, err error) {
			if err := fr.admit(mr, buf, err, tAttach, tMerged); err != nil {
				fr.done(err)
				return
			}
			fr.rejoin(carried{}, loop)
		})
	})
}

func (fr *fiberRank) build(k func(error)) {
	mpi.FiberSplit(fr.f, fr.world, fr.mine.ID, fr.rank, func(gc *mpi.Comm, err error) {
		k(fr.newSolver(gc, err))
	})
}

func (fr *fiberRank) rejoin(old carried, next func()) {
	fr.build(fr.then(func() {
		if err := fr.carryOver(old); err != nil {
			fr.done(err)
			return
		}
		fr.recoverData(fr.recoverIDs, fr.then(func() {
			fr.recovered()
			next()
		}))
	}))
}

// nextDP is one turn of rank()'s loop: solve to detection point i, then
// detect.
func (fr *fiberRank) nextDP(i int) {
	if i >= len(fr.dps) {
		fr.recoverData(fr.rs.simLost, fr.then(func() {
			fr.report()
			fr.combine()
		}))
		return
	}
	dp := fr.dps[i]
	if dp <= fr.cur {
		fr.nextDP(i + 1)
		return
	}
	iv := fr.beginSolve(dp)
	var step func(s int)
	step = func(s int) {
		if s > dp {
			fr.endSolve(iv, dp)
			fr.detect(i)
			return
		}
		fr.pollFaults(s)
		if fr.gridLost {
			step(s + 1)
			return
		}
		fr.solver.FiberStep(fr.f, func(err error) {
			fr.stepped(err)
			step(s + 1)
		})
	}
	step(fr.cur + 1)
}

func (fr *fiberRank) detect(i int) {
	rs, p := fr.rs, fr.p
	next := func() { fr.nextDP(i + 1) }
	tRepair := fr.beginDetect()
	recovery.FiberReconstructMode(p, fr.f, fr.world, nil, &fr.st, rs.place, rs.cfg.RecoveryMode, fr.mc.origOf, func(mr *recovery.ModeResult, err error) {
		if err := fr.detected(err, tRepair); err != nil {
			fr.done(err)
			return
		}
		if fr.st.ReconstructTime == 0 {
			fr.then(next)(fr.commit())
			return
		}
		announce, err := fr.repaired(mr)
		if err != nil {
			fr.done(err)
			return
		}
		mpi.FiberBcast(fr.f, fr.world, 0, announce, func(buf []int, err error) {
			if err := fr.agreed(buf, err); err != nil {
				fr.done(err)
				return
			}
			fr.rejoin(fr.retire(), next)
		})
	})
}

func (fr *fiberRank) recoverData(lost []int, k func(error)) {
	if len(lost) == 0 {
		k(nil)
		return
	}
	w := fr.beginRecover(lost)
	done := func(err error) {
		fr.endRecover(w)
		k(err)
	}
	switch {
	case fr.cfg.Technique == CheckpointRestart && slices.Contains(lost, fr.mine.ID):
		fr.recoverCR(done)
	case fr.cfg.Technique == ResamplingCopying:
		fr.recoverRC(lost, 0, done)
	default:
		done(nil)
	}
}

func (fr *fiberRank) recoverCR(k func(error)) {
	recompute := func() {
		fr.solver.FiberRun(fr.f, fr.cur-fr.solver.StepCount, func(err error) { k(crRecomputed(err)) })
	}
	restart := func() {
		if err := fr.crRestart(); err != nil {
			k(err)
			return
		}
		recompute()
	}
	if !fr.crBegin() {
		restart()
		return
	}
	var negotiate func()
	negotiate = func() {
		mpi.FiberAllgather(fr.f, fr.gcomm, fr.crOffer(), func(all [][]int64, err error) {
			step, err := fr.crPick(all, err)
			if err != nil {
				k(err)
				return
			}
			if step == 0 {
				restart()
				return
			}
			data, vote, err := fr.crRead(step)
			if err != nil {
				k(err)
				return
			}
			mpi.FiberAllreduce(fr.f, fr.gcomm, vote, mpi.MinOp, func(allOK []int64, err error) {
				restored, err := fr.crSettle(step, data, allOK, err)
				switch {
				case err != nil:
					k(err)
				case restored:
					recompute()
				default:
					negotiate()
				}
			})
		})
	}
	negotiate()
}

// recoverRC recovers lost[i:], one grid after the other.
func (fr *fiberRank) recoverRC(lost []int, i int, k func(error)) {
	if i >= len(lost) {
		k(nil)
		return
	}
	rt, err := fr.rcRouteOf(lost, lost[i])
	if err != nil {
		k(err)
		return
	}
	install := func(vals []float64, err error) {
		if err != nil {
			k(err)
			return
		}
		mpi.FiberBcast(fr.f, fr.gcomm, 0, vals, func(vals []float64, err error) {
			if err := fr.rcInstall(rt, vals, err); err != nil {
				k(err)
				return
			}
			fr.recoverRC(lost, i+1, k)
		})
	}
	receive := func() {
		switch {
		case fr.mine.ID != rt.lost.ID:
			fr.recoverRC(lost, i+1, k)
		case fr.gcomm.Rank() == 0:
			mpi.FiberRecv(fr.f, fr.world, rt.srcRoot, rt.tag(), func(vals []float64, _ mpi.Status, err error) {
				install(vals, err)
			})
		default:
			install(nil, nil)
		}
	}
	if fr.mine.ID != rt.src.ID {
		receive()
		return
	}
	fr.solver.FiberGather(fr.f, 0, func(g *grid.Grid, err error) {
		if err := fr.rcSend(rt, g, err); err != nil {
			k(err)
			return
		}
		receive()
	})
}

// combine is rankState.combine for fiber code.
func (fr *fiberRank) combine() {
	sp := fr.beginCombine()
	k := func(err error) {
		sp.End(fr.p.Now())
		fr.done(err)
	}
	scheme, err := fr.scheme()
	if err != nil {
		k(err)
		return
	}
	fr.solver.FiberGather(fr.f, 0, func(g *grid.Grid, err error) {
		c, err := fr.contributionOf(scheme, g, err)
		if err != nil {
			k(err)
			return
		}
		mpi.FiberSplit(fr.f, fr.world, c.color, fr.mine.ID, func(roots *mpi.Comm, err error) {
			summand, err := fr.accumulate(&c, roots, err)
			if summand == nil {
				k(err)
				return
			}
			mpi.FiberReduce(fr.f, roots, 0, summand, mpi.Sum[float64], func(total []float64, err error) {
				k(fr.combined(&c, total, err))
			})
		})
	})
}
