package core

import (
	"errors"
	"fmt"
	"log/slog"

	"ftsg/internal/checkpoint"
	"ftsg/internal/combine"
	"ftsg/internal/grid"
	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/pde"
	"ftsg/internal/recovery"
	"ftsg/internal/telemetry"
)

// The application on the event-driven MPI path (Config.Event): eventEntry is
// entry/rank in continuation-passing style, built on the mpi.Fiber*,
// recovery.Fiber* and pde.FiberSolver twins. Every phase runs in the same
// order with the same trace spans, journal entries, invariant checks and
// Result writes as the goroutine path, and every twin preserves its blocking
// original's virtual-time behaviour, so the two paths produce byte-identical
// Results — including runs with real failures repaired by any of the four
// recovery modes, with respawned replacements and claimed spares attaching
// back as fibers. fiberRank holds what the blocking rank() keeps in locals;
// the phase methods chain through continuations instead of returning.

// eventEntry is entry for fiber code (mpi.Options.EventEntry).
func (rs *runState) eventEntry(p *mpi.Proc, f *mpi.Fiber) {
	fr := &fiberRank{rs: rs, p: p, f: f, cfg: rs.cfg}
	fr.done = func(err error) {
		if fr.solver != nil {
			fr.solver.Release() // as rank()'s deferred release
		}
		if err == nil || errors.Is(err, recovery.ErrOrphaned) {
			// As on the goroutine path: an orphaned replacement exits cleanly.
			return
		}
		rs.dumpFlight(fmt.Sprintf("rank %d abort", p.WorldRank()))
		panic(fmt.Sprintf("core: world rank %d: %v", p.WorldRank(), err))
	}
	fr.begin()
}

// fiberRank is one simulated rank's program state on the event path — the
// locals of the blocking rank(), lifted so parked continuations can resume
// them.
type fiberRank struct {
	rs   *runState
	p    *mpi.Proc
	f    *mpi.Fiber
	cfg  Config
	done func(error) // final continuation; runs exactly once

	charge      func(cells int)
	journal     *telemetry.Journal
	repairVec   *metrics.TimeSumVec
	advanceVec  *metrics.TimeSumVec
	replacement bool

	world      *mpi.Comm
	rank, cur  int
	failedList []int
	epoch      int
	myStats    recovery.Stats
	mc         *modeCtx
	mine       SubGrid

	gcomm  *mpi.Comm
	solver pde.FiberSolver

	opHook         mpi.OpHook
	gridLost       bool
	detectOverhead float64
	stateBuf       []float64
	dps            []int
}

// begin is rank()'s prologue: instrument, classify (fresh rank, respawned
// replacement, claimed spare), and attach replacements through the fiber
// recovery protocol.
func (fr *fiberRank) begin() {
	rs, p, cfg := fr.rs, fr.p, fr.cfg
	fr.charge = func(cells int) { p.ComputeCells(cells, cfg.ComputeScale) }
	fr.journal = cfg.Journal
	fr.repairVec = rs.reg.TimeSumVec("rank.vtime.repair")
	fr.advanceVec = rs.reg.TimeSumVec("rank.vtime.advance")
	fr.replacement = p.Parent() != nil
	fr.myStats = recovery.Stats{Trace: cfg.Trace, Metrics: rs.reg}
	if cfg.RecoveryMode != recovery.ModeSpawn {
		fr.mc = newModeCtx(cfg.RecoveryMode, cfg.NumProcs())
		fr.myStats.ModeLabel = cfg.RecoveryMode.String()
	}
	fr.dps = rs.detectionPoints()

	if !fr.replacement {
		fr.world = p.World()
		fr.rank = fr.world.Rank()
		fr.setup()
		return
	}
	tAttach := p.Now()
	afterAttach := func() {
		fr.epoch = 1
		fr.repairVec.At(fr.rank).Add(p.Now() - tAttach)
		fr.setup()
	}
	recovery.FiberReconstructMode(p, fr.f, nil, p.Parent(), &fr.myStats, rs.place, cfg.RecoveryMode, nil, func(mr *recovery.ModeResult, err error) {
		if err != nil {
			fr.done(err)
			return
		}
		fr.world, fr.rank = mr.Comm, mr.Rank
		if fr.mc == nil {
			afterAttach()
			return
		}
		// A claimed spare (substitute mode) learns everything else —
		// including which original rank it replaces — from rank 0's broadcast.
		fiberSyncRecoveryInfoMode(fr.f, fr.world, 0, nil, nil, nil, func(cur int, failed, aband, origOf []int, serr error) {
			if serr != nil {
				fr.done(serr)
				return
			}
			fr.cur, fr.failedList = cur, failed
			fr.mc.adopt(origOf, aband, failed)
			fr.rank = fr.mc.origOf[fr.world.Rank()]
			afterAttach()
		})
	})
}

// setup resolves the rank's sub-grid, builds the group communicator and
// solver, and — for replacements — rejoins the survivors (recovery-info
// sync, checkpoint flush, data recovery), then starts the main loop.
func (fr *fiberRank) setup() {
	rs, p, cfg := fr.rs, fr.p, fr.cfg
	mine, err := gridOfRank(rs.grids, fr.rank)
	if err != nil {
		fr.done(err)
		return
	}
	fr.mine = mine

	if !fr.replacement {
		fr.build(fr.world, func(err error) {
			if err != nil {
				fr.done(err)
				return
			}
			fr.startLoop()
		})
		return
	}
	afterSync := func() {
		// Invariant: this replacement adopted its predecessor's (original)
		// rank, so that rank must be in the failed list rank 0 announced.
		if !containsInt(fr.failedList, fr.rank) {
			fr.done(fmt.Errorf("core: replacement adopted rank %d but rank 0 announced failed ranks %v", fr.rank, fr.failedList))
			return
		}
		cfg.Trace.Emit(p.Now(), fr.rank, "respawn",
			"replacement world id %d attached on host %d, rejoining at step %d",
			p.WorldRank(), p.Host(), fr.cur)
		fr.journal.Emit(p.Now(), fr.rank, fr.epoch, "respawn",
			slog.Int("step", fr.cur), slog.Int("world_id", p.WorldRank()), slog.Int("host", p.Host()))
		fr.build(fr.world, func(err error) {
			if err != nil {
				fr.done(err)
				return
			}
			rs.flushCheckpoints(p, fr.rank, fr.cur)
			fr.recoverData(fr.failedList, fr.cur, rs.activeRecoverIDs(fr.mc, fr.failedList), func(err error) {
				if err != nil {
					fr.done(err)
					return
				}
				rs.mergeStats(&fr.myStats, fr.failedList)
				fr.startLoop()
			})
		})
	}
	if fr.mc == nil {
		fiberSyncRecoveryInfo(fr.f, fr.world, 0, nil, func(cur int, failed []int, err error) {
			if err != nil {
				fr.done(err)
				return
			}
			fr.cur, fr.failedList = cur, failed
			afterSync()
		})
		return
	}
	// Substitute children already ran their broadcast above, alongside the
	// attach.
	afterSync()
}

// build is rank()'s build closure: split the world by sub-grid and construct
// the solver. Decomp2D is rejected in event mode (Config.Validate), so the
// solver is always the fiber-capable 1D ParallelSolver.
func (fr *fiberRank) build(w *mpi.Comm, k func(error)) {
	mpi.FiberSplit(fr.f, w, fr.mine.ID, fr.rank, func(gc *mpi.Comm, err error) {
		if err != nil {
			k(fmt.Errorf("group split: %w", err))
			return
		}
		s, err := pde.NewParallelSolver(gc, fr.rs.prob, fr.mine.Lv, fr.rs.dt)
		if err != nil {
			k(err)
			return
		}
		s.SetCharge(fr.charge)
		fr.gcomm, fr.solver = gc, s
		k(nil)
	})
}

// startLoop arms the op-granularity fault hook (survivors only) and enters
// the detection-interval loop.
func (fr *fiberRank) startLoop() {
	if !fr.replacement {
		fr.opHook = fr.rs.opPlan.Hook(fr.p, fr.rank)
	}
	fr.gridLost = fr.mc != nil && fr.mc.abandoned[fr.mine.ID]
	fr.nextDP(0)
}

// nextDP runs one detection interval: solve to the detection point, then
// detect (and repair if needed).
func (fr *fiberRank) nextDP(i int) {
	if i >= len(fr.dps) {
		fr.finish()
		return
	}
	dp := fr.dps[i]
	if dp <= fr.cur {
		fr.nextDP(i + 1)
		return
	}
	rs, p, cfg := fr.rs, fr.p, fr.cfg
	if fr.opHook != nil {
		p.SetOpHook(fr.opHook)
	}
	tSolve := p.Now()
	solveSpan := cfg.Trace.BeginSpan(tSolve, fr.rank, "solve", "steps %d..%d", fr.cur+1, dp)
	var stepLoop func(s int)
	stepLoop = func(s int) {
		if s > dp {
			solveSpan.End(p.Now())
			fr.advanceVec.At(fr.rank).Add(p.Now() - tSolve)
			fr.cur = dp
			fr.detect(i, dp)
			return
		}
		if !fr.replacement && rs.plan != nil {
			if fr.journal != nil {
				if at, ok := rs.plan.DeathStep(fr.rank); ok && at == s {
					fr.journal.Emit(p.Now(), fr.rank, fr.epoch, "fault-inject", slog.Int("step", s))
				}
			}
			rs.plan.Poll(p, fr.rank, s)
		}
		if fr.gridLost {
			stepLoop(s + 1)
			return
		}
		fr.solver.FiberStep(fr.f, func(err error) {
			if err != nil {
				// A group member died mid-solve: revoke the group
				// communicators so blocked peers stop too, abandon the grid,
				// and wait for global detection.
				fr.gridLost = true
				_ = fr.solver.GroupComm().Revoke()
				_ = fr.gcomm.Revoke()
			}
			stepLoop(s + 1)
		})
	}
	stepLoop(fr.cur + 1)
}

// detect runs the detection point's reconstruct round and dispatches to the
// repaired-world path or the checkpoint write.
func (fr *fiberRank) detect(i, dp int) {
	rs, p, cfg := fr.rs, fr.p, fr.cfg
	tRepair := p.Now()
	st := &recovery.Stats{Trace: cfg.Trace, Metrics: rs.reg, ModeLabel: fr.myStats.ModeLabel}
	recovery.FiberReconstructMode(p, fr.f, fr.world, nil, st, rs.place, cfg.RecoveryMode, fr.mc.positions(), func(mr *recovery.ModeResult, err error) {
		if fr.opHook != nil {
			p.SetOpHook(nil)
		}
		if err != nil {
			fr.done(err)
			return
		}
		fr.repairVec.At(fr.rank).Add(p.Now() - tRepair)
		if st.ReconstructTime > 0 {
			fr.repaired(i, dp, st, mr)
			return
		}
		fr.detectOverhead += st.ListTime
		if cfg.Technique == CheckpointRestart && dp < cfg.Steps && !fr.gridLost {
			fr.stateBuf = pde.AppendState(fr.solver, fr.stateBuf[:0])
			ckSpan := cfg.Trace.BeginSpan(p.Now(), fr.rank, "checkpoint", "write step %d", dp)
			err := rs.store.Write(p, fr.mine.ID, fr.gcomm.Rank(), dp, fr.stateBuf)
			ckSpan.End(p.Now())
			if err != nil {
				fr.done(err)
				return
			}
			if fr.rank == 0 {
				rs.mu.Lock()
				rs.res.CheckpointWrites++
				rs.mu.Unlock()
				cfg.Trace.Emit(p.Now(), fr.rank, "checkpoint", "checkpoint written at step %d", dp)
				fr.journal.Emit(p.Now(), fr.rank, fr.epoch, "checkpoint-commit", slog.Int("step", dp))
			}
		}
		fr.nextDP(i + 1)
	})
}

// repaired handles a detection point where a failure was repaired: verify the
// protocol's promises, sync the recovery info, rebuild the solver, recover
// the lost data — the blocking rank()'s st.ReconstructTime > 0 branch.
func (fr *fiberRank) repaired(i, dp int, st *recovery.Stats, mr *recovery.ModeResult) {
	rs, cfg := fr.rs, fr.cfg
	newWorld, newRank := mr.Comm, mr.Rank
	if fr.mc == nil {
		if newRank != fr.rank {
			fr.done(fmt.Errorf("core: repaired communicator moved rank %d to %d", fr.rank, newRank))
			return
		}
		if newWorld.Size() != fr.world.Size() {
			fr.done(fmt.Errorf("core: repaired communicator size %d, want %d", newWorld.Size(), fr.world.Size()))
			return
		}
		fr.world, fr.rank = newWorld, newRank
		fiberSyncRecoveryInfo(fr.f, fr.world, dp, st.FailedRanks, func(_ int, failed []int, err error) {
			if err != nil {
				fr.done(err)
				return
			}
			fr.failedList = failed
			// Invariant: every survivor derived the failed-rank list locally
			// (Fig. 6 group algebra); it must agree with rank 0's broadcast.
			if !equalInts(fr.failedList, st.FailedRanks) {
				fr.done(fmt.Errorf("core: rank %d derived failed ranks %v but rank 0 announced %v", fr.rank, st.FailedRanks, fr.failedList))
				return
			}
			fr.afterRepairSync(i, dp, st, nil)
		})
		return
	}
	if newWorld.Size() != len(mr.OrigOf) {
		fr.done(fmt.Errorf("core: repaired communicator size %d but position map covers %d", newWorld.Size(), len(mr.OrigOf)))
		return
	}
	if mr.OrigOf[newRank] != fr.rank {
		fr.done(fmt.Errorf("core: repaired communicator position %d holds original rank %d, want %d", newRank, mr.OrigOf[newRank], fr.rank))
		return
	}
	if cfg.RecoveryMode == recovery.ModeSubstitute && mr.Fallbacks == 0 {
		if newWorld.Size() != fr.world.Size() {
			fr.done(fmt.Errorf("core: substitute repair changed communicator size %d -> %d", fr.world.Size(), newWorld.Size()))
			return
		}
	} else if newWorld.Size() >= fr.world.Size() {
		fr.done(fmt.Errorf("core: %v repair did not shrink the communicator (%d -> %d)", cfg.RecoveryMode, fr.world.Size(), newWorld.Size()))
		return
	}
	fr.world = newWorld // rank keeps its original identity
	fr.mc.fallbacks += mr.Fallbacks
	recoverIDs := rs.applyEvent(fr.mc, mr.OrigOf, st.FailedRanks)
	fiberSyncRecoveryInfoMode(fr.f, fr.world, dp, st.FailedRanks, fr.mc.abandonedList(), fr.mc.origOf, func(_ int, failed, aband, origOf []int, err error) {
		if err != nil {
			fr.done(err)
			return
		}
		fr.failedList = failed
		// Invariants: the locally derived failed list, position map and
		// abandoned set must all agree with rank 0's broadcast — every
		// survivor folded the same event into the same prior state.
		if !equalInts(fr.failedList, st.FailedRanks) {
			fr.done(fmt.Errorf("core: rank %d derived failed ranks %v but rank 0 announced %v", fr.rank, st.FailedRanks, fr.failedList))
			return
		}
		if !equalInts(origOf, fr.mc.origOf) {
			fr.done(fmt.Errorf("core: rank %d derived position map %v but rank 0 announced %v", fr.rank, fr.mc.origOf, origOf))
			return
		}
		if !equalInts(aband, fr.mc.abandonedList()) {
			fr.done(fmt.Errorf("core: rank %d derived abandoned grids %v but rank 0 announced %v", fr.rank, fr.mc.abandonedList(), aband))
			return
		}
		fr.afterRepairSync(i, dp, st, recoverIDs)
	})
}

// afterRepairSync finishes a repaired detection point: trace/journal the
// repair, rebuild the solver on the new world, restore or recover the state,
// and continue the loop.
func (fr *fiberRank) afterRepairSync(i, dp int, st *recovery.Stats, recoverIDs []int) {
	rs, p, cfg := fr.rs, fr.p, fr.cfg
	if fr.rank == 0 {
		cfg.Trace.Emit(p.Now(), fr.rank, "repair",
			"failed ranks %v repaired at step %d (shrink %.2fs, spawn %.2fs, merge %.3fs, agree %.2fs, split %.3fs)",
			fr.failedList, dp, st.ShrinkTime, st.SpawnTime, st.MergeTime, st.AgreeTime, st.SplitTime)
		if fr.journal != nil {
			fr.journal.Emit(p.Now(), fr.rank, fr.epoch, "failure-detected",
				slog.Int("step", dp), slog.String("failed", fmt.Sprint(fr.failedList)))
			for _, ph := range []struct {
				name    string
				seconds float64
			}{
				{"detect", st.ListTime}, {"shrink", st.ShrinkTime},
				{"spawn", st.SpawnTime}, {"merge", st.MergeTime},
				{"agree", st.AgreeTime}, {"split", st.SplitTime},
			} {
				fr.journal.Emit(p.Now(), fr.rank, fr.epoch, "repair-phase",
					slog.String("phase", ph.name), slog.Float64("seconds", ph.seconds),
					slog.Int("step", dp))
			}
		}
	}
	fr.epoch++
	oldState, oldStep := fr.solver.State(), fr.solver.Steps()
	fr.solver.Release()
	fr.build(fr.world, func(err error) {
		if err != nil {
			fr.done(err)
			return
		}
		// Carry the pre-repair state into the rebuilt solver — same
		// restorable rule as the blocking path.
		restorable := !fr.gridLost
		if fr.mc != nil {
			restorable = !containsInt(rs.lostGridIDs(fr.failedList), fr.mine.ID) && !fr.mc.abandoned[fr.mine.ID]
		}
		if restorable {
			if err := fr.solver.Restore(oldStep, oldState); err != nil {
				fr.done(err)
				return
			}
		}
		rs.flushCheckpoints(p, fr.rank, dp)
		fr.recoverData(fr.failedList, dp, recoverIDs, func(err error) {
			if err != nil {
				fr.done(err)
				return
			}
			rs.mergeStats(st, fr.failedList)
			fr.gridLost = fr.mc != nil && fr.mc.abandoned[fr.mine.ID]
			fr.nextDP(i + 1)
		})
	})
}

// finish is rank()'s epilogue: simulated-loss recovery, result reporting and
// the combination phase.
func (fr *fiberRank) finish() {
	rs, cfg := fr.rs, fr.cfg
	afterSim := func(err error) {
		if err != nil {
			fr.done(err)
			return
		}
		rs.mu.Lock()
		if fr.detectOverhead > rs.res.DetectOverhead {
			rs.res.DetectOverhead = fr.detectOverhead
		}
		rs.mu.Unlock()
		if fr.mc != nil && fr.world.Rank() == 0 {
			rs.mu.Lock()
			rs.res.FinalProcs = fr.world.Size()
			rs.res.Survivors = append([]int(nil), fr.mc.origOf...)
			rs.res.RepairFallbacks = fr.mc.fallbacks
			rs.res.AbandonedGrids = fr.mc.abandonedList()
			if frk := fr.mc.failedRanks(); len(frk) > 0 {
				rs.res.FailedRanks = frk
				rs.res.LostGrids = rs.lostGridIDs(frk)
			}
			rs.mu.Unlock()
		}
		fr.combinePhase()
	}
	// Simulated failures (Figs. 9/10 mode): whole grids are assumed lost at
	// the end, without killing processes. Spawn-only, so mc is nil here.
	if !cfg.RealFailures && len(rs.simLost) > 0 {
		fr.recoverData(nil, cfg.Steps, nil, afterSim)
		return
	}
	afterSim(nil)
}

// recoverData is rs.recoverData in CPS: restore the data of lost sub-grids
// at the given step using the configured technique.
func (fr *fiberRank) recoverData(failedRanks []int, atStep int, recoverIDs []int, k func(error)) {
	rs, p, cfg := fr.rs, fr.p, fr.cfg
	world, mc := fr.world, fr.mc
	lost := rs.lostGridIDs(failedRanks)
	if mc != nil {
		lost = recoverIDs
	}
	if len(lost) == 0 {
		k(nil)
		return
	}
	if world.Rank() == 0 {
		cfg.Trace.Emit(p.Now(), 0, "recover-data", "%v recovery of sub-grids %v at step %d",
			cfg.Technique, lost, atStep)
	}
	t0 := p.Now()
	sp := cfg.Trace.BeginSpan(t0, traceRank(world, mc), "recover-data", "%v, sub-grids %v", cfg.Technique, lost)
	done := func(err error) {
		sp.End(p.Now())
		rs.mu.Lock()
		if d := p.Now() - t0; d > rs.res.DataRecoveryTime {
			rs.res.DataRecoveryTime = d
		}
		if len(rs.res.LostGrids) == 0 {
			rs.res.LostGrids = append([]int(nil), lost...)
		}
		rs.mu.Unlock()
		k(err)
	}
	switch cfg.Technique {
	case CheckpointRestart:
		fr.recoverCR(lost, atStep, done)
	case ResamplingCopying:
		fr.recoverRC(lost, atStep, done)
	case AlternateCombination:
		// No data movement: the combination-phase coefficients are recomputed
		// over the survivors; lost grids simply do not contribute.
		done(nil)
	default:
		done(fmt.Errorf("core: unknown technique %v", cfg.Technique))
	}
}

// recoverCR is recoverData's Checkpoint/Restart branch in CPS: negotiate the
// newest group-wide readable checkpoint, restore, recompute to atStep.
func (fr *fiberRank) recoverCR(lost []int, atStep int, k func(error)) {
	rs, p, f, cfg := fr.rs, fr.p, fr.f, fr.cfg
	world, gcomm, solver, mine, mc := fr.world, fr.gcomm, fr.solver, fr.mine, fr.mc
	if !containsInt(lost, mine.ID) {
		k(nil)
		return
	}
	recompute := func() {
		solver.FiberRun(f, atStep-solver.Steps(), func(err error) {
			if err != nil {
				k(fmt.Errorf("core: CR recompute: %w", err))
				return
			}
			k(nil)
		})
	}
	fromIC := func() error {
		if gcomm.Rank() == 0 {
			cfg.Journal.Emit(p.Now(), world.Rank(), fr.epoch, "checkpoint-restore",
				slog.Int("grid", mine.ID), slog.Int("step", 0))
		}
		ic := grid.NewPooled(mine.Lv)
		ic.Fill(rs.prob.U0)
		rerr := solver.SetFromGrid(ic, 0)
		ic.Free()
		return rerr
	}
	if mc != nil && mc.holed(mine) {
		// A shrunken group: the surviving checkpoints cannot be read back into
		// the smaller solver. Recompute from the initial condition.
		if err := fromIC(); err != nil {
			k(err)
			return
		}
		recompute()
		return
	}
	// The same group-wide negotiation as the blocking path: exchange
	// candidate steps, verify the full read everywhere, fall back
	// generation-by-generation past damage.
	cand := rs.store.CandidateSteps(mine.ID, gcomm.Rank())
	var negotiate func()
	negotiate = func() {
		fiberAgreeRestoreStep(f, gcomm, cand, rs.store.Generations(), func(step int, err error) {
			if err != nil {
				k(fmt.Errorf("core: CR restore: %w", err))
				return
			}
			if step == 0 {
				if err := fromIC(); err != nil {
					k(err)
					return
				}
				recompute()
				return
			}
			data, rerr := rs.store.ReadAt(p, mine.ID, gcomm.Rank(), step)
			ok := int64(1)
			if rerr != nil {
				if !errors.Is(rerr, checkpoint.ErrNoCheckpoint) {
					k(fmt.Errorf("core: CR restore: %w", rerr))
					return
				}
				ok = 0
			}
			if rerr == nil && mc != nil && len(data) != len(solver.State()) {
				// A checkpoint written under a different group shape: treat it
				// like damage and fall back to an older common step.
				ok = 0
			}
			mpi.FiberAllreduce(f, gcomm, []int64{ok}, mpi.MinOp, func(allOK []int64, aerr error) {
				if aerr != nil {
					k(fmt.Errorf("core: CR restore: %w", aerr))
					return
				}
				if allOK[0] == 1 {
					if gcomm.Rank() == 0 {
						cfg.Journal.Emit(p.Now(), world.Rank(), fr.epoch, "checkpoint-restore",
							slog.Int("grid", mine.ID), slog.Int("step", step))
					}
					if err := solver.Restore(step, data); err != nil {
						k(err)
						return
					}
					recompute()
					return
				}
				if gcomm.Rank() == 0 {
					cfg.Journal.Emit(p.Now(), world.Rank(), fr.epoch, "checkpoint-fallback",
						slog.Int("grid", mine.ID), slog.Int("step", step))
				}
				cand = removeStep(cand, step)
				negotiate()
			})
		})
	}
	negotiate()
}

// recoverRC is recoverData's Resampling-and-Copying branch in CPS: for each
// lost grid, the partner's root gathers and ships its (possibly restricted)
// solution to the lost grid's root, which broadcasts it to its group.
func (fr *fiberRank) recoverRC(lost []int, atStep int, k func(error)) {
	rs, f := fr.rs, fr.f
	world, gcomm, solver, mine, mc := fr.world, fr.gcomm, fr.solver, fr.mine, fr.mc
	var next func(i int)
	next = func(i int) {
		if i >= len(lost) {
			k(nil)
			return
		}
		lg := lost[i]
		lostGrid := rs.grids[lg]
		src, resample, err := recoveryPartner(rs.grids, lostGrid)
		if err != nil {
			k(err)
			return
		}
		if containsInt(lost, src.ID) {
			k(fmt.Errorf("core: RC cannot recover grid %d: partner %d also lost", lg, src.ID))
			return
		}
		srcRoot, dstRoot := src.FirstRank, lostGrid.FirstRank
		if mc != nil {
			if mc.abandoned[src.ID] || mc.holed(src) {
				k(fmt.Errorf("core: RC cannot recover grid %d: partner %d unusable after shrink", lg, src.ID))
				return
			}
			srcRoot = mc.commRankOf(mc.liveRootOf(src))
			dstRoot = mc.commRankOf(mc.liveRootOf(lostGrid))
			if srcRoot < 0 || dstRoot < 0 {
				k(fmt.Errorf("core: RC recovery of grid %d: no surviving group root", lg))
				return
			}
		}
		asDst := func() {
			if mine.ID != lg {
				next(i + 1)
				return
			}
			gotVals := func(vals []float64) {
				mpi.FiberBcast(f, gcomm, 0, vals, func(vals []float64, err error) {
					if err != nil {
						k(err)
						return
					}
					g, err := grid.FromValues(lostGrid.Lv, vals)
					if err != nil {
						k(fmt.Errorf("core: RC transfer: %w", err))
						return
					}
					err = solver.SetFromGrid(g, atStep)
					mpi.ReleaseBuf(vals) // transport-owned (Recv at the group root, Bcast below it)
					if err != nil {
						k(err)
						return
					}
					next(i + 1)
				})
			}
			if gcomm.Rank() == 0 {
				mpi.FiberRecv[float64](f, world, srcRoot, tagRecoverBase+lg, func(vals []float64, _ mpi.Status, err error) {
					if err != nil {
						k(err)
						return
					}
					gotVals(vals)
				})
				return
			}
			gotVals(nil)
		}
		if mine.ID == src.ID {
			solver.FiberGather(f, 0, func(g *grid.Grid, err error) {
				if err != nil {
					k(err)
					return
				}
				if gcomm.Rank() == 0 {
					send := g
					if resample {
						// mpi.Send copies eagerly, so the pooled restriction
						// can be freed right after.
						send = grid.NewPooled(lostGrid.Lv)
						if err := grid.RestrictInto(g, send); err != nil {
							send.Free()
							k(err)
							return
						}
					}
					err := mpi.Send(world, dstRoot, tagRecoverBase+lg, send.V)
					if resample {
						send.Free()
					}
					if err != nil {
						k(err)
						return
					}
				}
				g.Free() // the gathered grid is pooled; nil below the group root
				asDst()
			})
			return
		}
		asDst()
	}
	next(0)
}

// combinePhase is rs.combinePhase in CPS. SerialCombine is rejected in event
// mode (Config.Validate), so the parallel gather-scatter is the only branch.
func (fr *fiberRank) combinePhase() {
	rs, p, cfg := fr.rs, fr.p, fr.cfg
	world, mc := fr.world, fr.mc
	sp := cfg.Trace.BeginSpan(p.Now(), traceRank(world, mc), "combine", "")
	k := func(err error) {
		sp.End(p.Now())
		fr.done(err)
	}
	scheme, err := rs.computeScheme(p, rs.lostGridIDs(fr.failedList), world.Rank() == 0, mc)
	if err != nil {
		k(err)
		return
	}
	fr.combineParallel(scheme, k)
}

// combineParallel is rs.combineParallel in CPS: group-root gather, roots
// split, coefficient-weighted accumulation, elementwise reduce at rank 0.
func (fr *fiberRank) combineParallel(scheme combine.Scheme, k func(error)) {
	rs, p, f, cfg := fr.rs, fr.p, fr.f, fr.cfg
	world, gcomm, solver, mine := fr.world, fr.gcomm, fr.solver, fr.mine
	solver.FiberGather(f, 0, func(g *grid.Grid, err error) {
		if err != nil {
			k(fmt.Errorf("core: combine gather: %w", err))
			return
		}
		coeff := scheme.Coeff(mine.Lv)
		contribute := gcomm.Rank() == 0 && mine.Role != RoleDuplicate && coeff != 0
		color := mpi.Undefined
		if contribute || world.Rank() == 0 {
			color = 0
		}
		mpi.FiberSplit(f, world, color, mine.ID, func(roots *mpi.Comm, err error) {
			if err != nil {
				k(fmt.Errorf("core: combine split: %w", err))
				return
			}
			if roots == nil {
				g.Free() // pooled; nil below the group root
				k(nil)
				return
			}
			t0 := p.Now()
			target := grid.Level{I: cfg.Layout.N, J: cfg.Layout.N}
			oneShot := cfg.ComputeScale * float64(cfg.Steps) / nominalSteps
			partial := grid.NewPooled(target)
			if contribute {
				partial.AccumulateSampled(g, coeff)
				p.ComputeCells(target.Points(), oneShot)
			}
			g.Free()
			mpi.FiberReduceSum(f, roots, 0, partial.V, func(total []float64, err error) {
				partial.Free()
				if err != nil {
					k(fmt.Errorf("core: combine reduce: %w", err))
					return
				}
				if roots.Rank() != 0 {
					k(nil)
					return
				}
				comb, err := grid.FromValues(target, total)
				if err != nil {
					k(err)
					return
				}
				rs.recordCombined(p, comb, t0)
				mpi.ReleaseBuf(total) // Reduce's root result is a pooled transport buffer
				k(nil)
			})
		})
	})
}

// --- fiber twins of the broadcast-sync helpers ----------------------------

// fiberSyncRecoveryInfo is syncRecoveryInfo for fiber code: same payload,
// same broadcast, same parse.
func fiberSyncRecoveryInfo(f *mpi.Fiber, world *mpi.Comm, step int, mine []int, k func(int, []int, error)) {
	mpi.FiberBcast(f, world, 0, recoveryInfoBuf(world, step, mine), func(out []int, err error) {
		k(parseRecoveryInfo(out, err))
	})
}

// fiberSyncRecoveryInfoMode is syncRecoveryInfoMode for fiber code.
func fiberSyncRecoveryInfoMode(f *mpi.Fiber, world *mpi.Comm, step int, failed, abandoned, origOf []int, k func(int, []int, []int, []int, error)) {
	mpi.FiberBcast(f, world, 0, recoveryInfoModeBuf(world, step, failed, abandoned, origOf), func(out []int, err error) {
		k(parseRecoveryInfoMode(world, out, err))
	})
}

// fiberAgreeRestoreStep is agreeRestoreStep for fiber code.
func fiberAgreeRestoreStep(f *mpi.Fiber, gcomm *mpi.Comm, cand []int, width int, k func(int, error)) {
	mpi.FiberAllgather(f, gcomm, restoreStepBuf(cand, width), func(all [][]int64, err error) {
		if err != nil {
			k(0, err)
			return
		}
		k(pickRestoreStep(cand, all), nil)
	})
}
