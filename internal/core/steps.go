package core

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"

	"ftsg/internal/checkpoint"
	"ftsg/internal/combine"
	"ftsg/internal/faultgen"
	"ftsg/internal/grid"
	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/pde"
	"ftsg/internal/recovery"
	"ftsg/internal/trace"
)

// This file is the rank program minus its blocking: every step of the
// detection-point loop (paper Fig. 3) that performs no blocking MPI call,
// written once as a method on rankState. rank() in app.go strings the steps
// together around blocking calls, app_event.go around fiber continuations;
// a step that follows a blocking call takes that call's results — error
// included — so the check and its message exist once too. The recovery mode
// is a value in rankState.mc, never a second copy of a step: where spawn and
// the other modes differ, the step says so in one place and says why.

// rankState is one simulated rank's program state. A launched rank's lives
// in the run's block (runState.ranks) and holds its per-rank values by
// value — the solver, the repair result — so that a rank allocates nothing
// for its own bookkeeping; what it shares with the other ranks of its
// communicator (the recovery-mode state, modeCtx.st) is the communicator's
// and read-only.
type rankState struct {
	rs  *runState
	p   *mpi.Proc
	cfg *Config

	// Recovery-overlap accounting: per-rank virtual time blocked in the
	// detect/repair window vs advancing the solve. Nil-safe throughout.
	repairVec, advanceVec *metrics.Vec[metrics.TimeSum]

	// replacement marks a process born from a repair (re-spawned, or a
	// claimed spare) rather than from the initial launch.
	replacement bool
	world       *mpi.Comm
	// rank is this process's ORIGINAL rank — the stable identity behind grid
	// assignment, fault plans, metric labels and trace tracks — while
	// communicator positions shift under shrinks. (Labelling a span with the
	// comm position would put two processes on one track, and their
	// same-instant spans would interleave by real scheduling order.)
	rank int
	cur  int // last step completed
	// epoch counts the communicator repairs this process has lived through —
	// the journal's "which incarnation of the world" stamp. A replacement is
	// born out of repair round one (or a later one; it cannot tell, and the
	// stamp only needs to order events on one rank's timeline).
	epoch int
	mc    modeCtx
	mine  SubGrid
	st    recovery.Stats      // the reconstruct call in progress, or the last one
	mr    recovery.ModeResult // the blocking path's last repair result

	gcomm *mpi.Comm
	// solver is the group's solver, rebuilt in place (newSolver) on every
	// repaired communicator once retire has released the old one; the zero
	// value before the first build holds nothing to release.
	solver pde.ParallelSolver

	// fault is this rank's part in the run's failure plan, resolved once in
	// seat; replacements keep the zero value, their predecessor already
	// died. An operation trigger's hook is armed only across the solve +
	// detect/repair window of each detection interval — the phases whose
	// peers tolerate a mid-operation death — and disarmed before the
	// recovery-info broadcast, data recovery and the combination; its op
	// count persists across windows.
	fault faultgen.Trigger
	// gridLost marks this rank's sub-grid as dead: set transiently when a
	// group member dies mid-solve (cleared once recovery restores the data),
	// and persistently when the grid is abandoned — the rank then stops
	// stepping and checkpointing but keeps taking part in detection and the
	// final combination (with coefficient zero).
	gridLost       bool
	detectOverhead float64
	crCand         []int // CR restore: checkpoint steps still on offer; a transport buffer
}

// newRank instruments and classifies the process. A launched rank is seated
// at once, in its element of the run's block; a replacement — re-spawned or
// a claimed spare, few of them — gets a state of its own and learns its seat
// from rank 0 (admit).
func (rs *runState) newRank(p *mpi.Proc) (*rankState, error) {
	replacement := p.Parent() != nil
	var r *rankState
	if replacement {
		r = new(rankState)
	} else {
		r = &rs.ranks[p.WorldRank()]
	}
	*r = rankState{
		rs: rs, p: p, cfg: &rs.cfg,
		repairVec:   rs.reg.TimeSumVec("rank.vtime.repair"),
		advanceVec:  rs.reg.TimeSumVec("rank.vtime.advance"),
		replacement: replacement,
		mc:          modeCtx{mode: rs.cfg.RecoveryMode, st: &rs.initial},
	}
	if replacement {
		return r, nil
	}
	r.world = p.World()
	r.rank = r.world.Rank()
	return r, r.seat()
}

// seat resolves the rank's sub-grid once its original rank is known.
func (r *rankState) seat() error {
	mine, err := gridOfRank(r.rs.grids, r.rank)
	if err != nil {
		return err
	}
	r.mine = mine
	r.gridLost = r.mc.st.isAbandoned(mine.ID)
	if !r.replacement {
		r.fault = r.rs.faults.Trigger(r.p, r.rank)
	}
	return nil
}

// release returns whichever solver the rank holds when its run ends —
// normally, on an error or killed — to the buffer pool.
func (r *rankState) release() { r.solver.Release() }

// beginDetect opens a reconstruct call — a detection point's, or the one
// that attaches a replacement: it resets the call's statistics and returns
// the start of its window.
func (r *rankState) beginDetect() float64 {
	r.st = recovery.Stats{Trace: r.cfg.Trace, Metrics: r.rs.reg}
	if !r.mc.spawn() {
		// Spawn's phase times keep their unlabelled series only; the other
		// modes are additionally charged to a per-mode one.
		r.st.ModeLabel = r.mc.mode.String()
	}
	return r.p.Now()
}

// newSolver finishes a group split: it builds the solver over the group
// communicator in place, charging its steps at the run's compute scale.
func (r *rankState) newSolver(gc *mpi.Comm, err error) error {
	if err != nil {
		return fmt.Errorf("group split: %w", err)
	}
	if err := r.solver.Init(gc, r.rs.prob, r.mine.Lv, r.rs.dt); err != nil {
		return err
	}
	r.solver.ChargeScale = computeScale
	r.gcomm = gc
	return nil
}

// --- a replacement joins ---------------------------------------------------

// admit seats a replacement, which joins mid-run with no history of its
// own, from rank 0's announcement: where the survivors stand, the state of
// the communicator it joined, and — for a claimed spare — which original
// rank it replaces. tAttach and tMerged bracket its reconstruct call.
func (r *rankState) admit(mr *recovery.ModeResult, buf []int, err error, tAttach, tMerged float64) error {
	r.world, r.rank, r.epoch = mr.Comm, mr.Rank, 1
	info, err := r.receiveInfo(buf, err)
	if err == nil {
		r.cur = info.step
		r.mc.st = r.rs.announcedState(r.world, info)
	}
	mpi.ReleaseBuf(buf)
	if err != nil {
		return err
	}
	st := r.mc.st
	if !r.mc.spawn() {
		// A re-spawned process holds its predecessor's rank as soon as the
		// merge returns, so its repair window closed there; a claimed spare
		// learns whom it replaces only from the broadcast.
		r.rank = st.orig(r.world.Rank())
		tMerged = r.p.Now()
	}
	r.repairVec.At(r.rank).Add(tMerged - tAttach)
	if !slices.Contains(st.failed, r.rank) {
		return fmt.Errorf("core: replacement adopted rank %d but rank 0 announced failed ranks %v", r.rank, st.failed)
	}
	if err := r.seat(); err != nil {
		return err
	}
	r.cfg.Trace.Note(r.p.Now(), r.rank, r.epoch, "respawn",
		slog.Int("step", r.cur), slog.Int("world_id", r.p.WorldRank()), slog.Int("host", r.p.Host()))
	return nil
}

// --- solve to a detection point --------------------------------------------

// window is one timed phase of the program: its start and its trace span.
type window struct {
	t0   float64
	span trace.SpanHandle
}

// beginSolve opens the solve from the current step up to detection point dp;
// endSolve closes it there.
func (r *rankState) beginSolve(dp int) window {
	if r.fault.Hook != nil {
		r.p.SetOpHook(r.fault.Hook)
	}
	t0 := r.p.Now()
	return window{t0, r.cfg.Trace.BeginSpan(t0, r.rank, "solve", "steps %d..%d", r.cur+1, dp)}
}

func (r *rankState) endSolve(w window, dp int) {
	w.span.End(r.p.Now())
	r.advanceVec.At(r.rank).Add(r.p.Now() - w.t0)
	r.cur = dp
}

// pollFaults kills this rank, with a journal note, if its fault triggers at
// step s.
func (r *rankState) pollFaults(s int) {
	if r.fault.Step == s {
		r.cfg.Trace.Note(r.p.Now(), r.rank, r.epoch, "fault-inject", slog.Int("step", s))
		r.p.Kill()
	}
}

// stepped takes a solver step's verdict. An error means a group member died
// mid-solve: revoke the group communicator once so blocked peers stop too,
// give the grid up, and wait for global detection.
func (r *rankState) stepped(err error) {
	if err == nil {
		return
	}
	r.gridLost = true
	_ = r.gcomm.Revoke()
}

// --- detect ----------------------------------------------------------------

// detected closes the detection window that opened at tRepair.
func (r *rankState) detected(err error, tRepair float64) error {
	if r.fault.Hook != nil {
		r.p.SetOpHook(nil)
	}
	if err != nil {
		return err
	}
	r.repairVec.At(r.rank).Add(r.p.Now() - tRepair)
	return nil
}

// commit ends a detection point that found no failure: CR writes its
// checkpoint.
func (r *rankState) commit() error {
	rs, p := r.rs, r.p
	r.detectOverhead += r.st.ListTime
	if r.cfg.Technique != CheckpointRestart || r.cur >= r.cfg.Steps || r.gridLost {
		return nil
	}
	ckSpan := r.cfg.Trace.BeginSpan(p.Now(), r.rank, "checkpoint", "write step %d", r.cur)
	err := rs.store.Write(p, r.mine.ID, r.gcomm.Rank(), r.cur, r.solver.Rows())
	ckSpan.End(p.Now())
	if err != nil {
		return err
	}
	if r.rank == 0 {
		rs.mu.Lock()
		rs.res.CheckpointWrites++
		rs.mu.Unlock()
		r.cfg.Trace.Note(p.Now(), r.rank, r.epoch, "checkpoint-commit", slog.Int("step", r.cur))
	}
	return nil
}

// --- reconstruct -----------------------------------------------------------

// checkPromise holds a repair to the protocol's core promises. Every
// survivor keeps its original identity; spawn (paper Fig. 3) and a
// substitute round that found spares restore the size, while shrink,
// no-repair and a substitute round that fell back lose the failed ranks.
func checkPromise(mode recovery.Mode, rank, oldSize, newSize int, mr *recovery.ModeResult) error {
	// A nil position map is the identity and covers any size.
	if mr.OrigOf != nil && newSize != len(mr.OrigOf) {
		return fmt.Errorf("core: repaired communicator size %d but position map covers %d", newSize, len(mr.OrigOf))
	}
	if orig := recovery.OrigAt(mr.OrigOf, mr.Rank); orig != rank {
		return fmt.Errorf("core: repaired communicator position %d holds original rank %d, want %d", mr.Rank, orig, rank)
	}
	restores := mode == recovery.ModeSpawn || mode == recovery.ModeSubstitute && mr.Fallbacks == 0
	if restores && newSize != oldSize {
		return fmt.Errorf("core: %v repair changed communicator size %d -> %d", mode, oldSize, newSize)
	}
	if !restores && newSize >= oldSize {
		return fmt.Errorf("core: %v repair did not shrink the communicator (%d -> %d)", mode, oldSize, newSize)
	}
	if mr.OrigOf == nil && newSize != oldSize {
		return fmt.Errorf("core: %v repair shrank the communicator (%d -> %d) but kept the identity position map", mode, oldSize, newSize)
	}
	return nil
}

// repaired takes a reconstruct call that repaired a failure: it checks the
// promises and moves the rank onto the repaired communicator and its state.
// Rank 0 also folds the event into the run's failure history — the only
// rank that keeps one, as no failure plan kills it — and returns its
// announcement (nil elsewhere) for the broadcast that follows.
func (r *rankState) repaired(mr *recovery.ModeResult) ([]int, error) {
	if err := checkPromise(r.mc.mode, r.rank, r.world.Size(), mr.Comm.Size(), mr); err != nil {
		return nil, err
	}
	r.world = mr.Comm
	r.mc.st = r.rs.repairedState(r.world, &r.mc, mr.OrigOf, r.st.FailedRanks)
	if !slices.Equal(mr.OrigOf, r.mc.st.origOf) {
		return nil, fmt.Errorf("core: rank %d derived position map %v but its communicator's state maps %v", r.rank, mr.OrigOf, r.mc.st.origOf)
	}
	if r.world.Rank() != 0 {
		return nil, nil
	}
	r.rs.recordEvent(r.mc.st.failed, mr.Fallbacks)
	return r.mc.encodeInfo(r.cur, r.world.Size()), nil
}

// recordEvent folds one repair event into the run's failure history.
func (rs *runState) recordEvent(failed []int, fallbacks int) {
	rs.mu.Lock()
	rs.res.FailedRanks = recovery.Union(rs.res.FailedRanks, failed)
	rs.res.RepairFallbacks += fallbacks
	rs.mu.Unlock()
}

// receiveInfo decodes rank 0's announcement. The broadcast buffer is the
// transport's everywhere (at rank 0, encodeInfo's own fresh slice), and the
// decoded lists are views of it: the caller releases it once done with them.
func (r *rankState) receiveInfo(buf []int, err error) (recoveryInfo, error) {
	if err != nil {
		return recoveryInfo{}, fmt.Errorf("core: broadcast recovery info: %w", err)
	}
	return decodeInfo(r.mc.mode, r.world.Size(), buf)
}

// agreed takes the announcement every survivor receives after a repair.
// The communicator's state folded the event's failed list (Fig. 6 group
// algebra), position map and abandoned set into the state every survivor
// agreed on before; the announcement must match it, and the failed list
// must match the one this survivor derived. Rank 0 then logs the repair.
func (r *rankState) agreed(buf []int, err error) error {
	defer mpi.ReleaseBuf(buf)
	info, err := r.receiveInfo(buf, err)
	if err != nil {
		return err
	}
	st := r.mc.st
	if !slices.Equal(info.failed, r.st.FailedRanks) {
		return fmt.Errorf("core: rank %d derived failed ranks %v but rank 0 announced %v", r.rank, r.st.FailedRanks, info.failed)
	}
	if !st.sameMap(info.origOf) {
		return fmt.Errorf("core: rank %d's communicator maps %v but rank 0 announced %v", r.rank, st.origOf, info.origOf)
	}
	if !slices.Equal(info.abandoned, st.abandoned) {
		return fmt.Errorf("core: rank %d's communicator abandoned grids %v but rank 0 announced %v", r.rank, st.abandoned, info.abandoned)
	}
	if r.rank == 0 {
		r.logRepair()
	}
	r.epoch++
	return nil
}

func (r *rankState) logRepair() {
	now, rec, st := r.p.Now(), r.cfg.Trace, &r.st
	rec.Note(now, r.rank, r.epoch, "failure-detected",
		slog.Int("step", r.cur), slog.String("failed", fmt.Sprint(r.mc.st.failed)))
	for _, ph := range []struct {
		name    string
		seconds float64
	}{
		{"detect", st.ListTime}, {"shrink", st.ShrinkTime},
		{"spawn", st.SpawnTime}, {"merge", st.MergeTime},
		{"agree", st.AgreeTime}, {"split", st.SplitTime},
	} {
		rec.Note(now, r.rank, r.epoch, "repair-phase",
			slog.String("phase", ph.name), slog.Float64("seconds", ph.seconds),
			slog.Int("step", r.cur))
	}
}

// carried is what a survivor takes from its pre-repair solver into the one
// rebuilt on the repaired communicator; a replacement carries nothing.
type carried struct {
	state []float64 // pooled
	step  int
}

// retire gives up the solver that hung off the old communicator, keeping a
// pooled copy of its rows.
func (r *rankState) retire() carried {
	rows := r.solver.Rows()
	old := carried{mpi.AcquireBuf[float64](len(rows)), r.solver.StepCount}
	copy(old.state, rows)
	r.solver.Release()
	return old
}

// carryOver restores the pre-repair state into the rebuilt solver where it
// is still good, and releases it either way.
func (r *rankState) carryOver(old carried) error {
	defer mpi.ReleaseBuf(old.state)
	damaged := slices.ContainsFunc(r.mc.st.failed, r.mine.has)
	if old.state != nil && r.mc.st.restorable(damaged, r.mine.ID) {
		return r.solver.Restore(old.step, old.state)
	}
	return nil
}

// recovered closes a repair once the lost data is back.
func (r *rankState) recovered() {
	r.rs.mergeStats(&r.st)
	r.gridLost = r.mc.st.isAbandoned(r.mine.ID)
}

// --- recover the lost sub-grids --------------------------------------------

// beginRecover opens the recovery of the lost sub-grids at the current step,
// under the span detail of their list. Every process of the communicator
// recovers the same list; only members of the lost grids and their recovery
// partners communicate.
func (r *rankState) beginRecover(detail string) window {
	t0 := r.p.Now()
	return window{t0, r.cfg.Trace.BeginSpan(t0, r.rank, "recover-data", detail)}
}

func (r *rankState) endRecover(w window) {
	w.span.End(r.p.Now())
	r.rs.mu.Lock()
	if d := r.p.Now() - w.t0; d > r.rs.res.DataRecoveryTime {
		r.rs.res.DataRecoveryTime = d
	}
	r.rs.mu.Unlock()
}

// Checkpoint/Restart restarts a lost grid from the newest checkpoint step
// its whole process group can read. The recompute runs the parallel solver,
// whose halo exchanges require every member to execute the same number of
// steps — a rank that independently fell back to an older generation would
// recompute more steps than its neighbours and deadlock the group. So the
// members negotiate: exchange candidate steps (crOffer), pick the newest
// everybody offers (crPick), and vote on the full CRC-checked read (crRead)
// before committing (crSettle). A step whose payload turns out damaged on
// any rank is discarded group-wide and the next older common step is tried;
// when nothing usable survives on every rank, all restart from the initial
// condition and recompute the full prefix. Recovery never hard-fails on
// storage damage; that failure mode is exactly what CR exists to absorb.

// crBegin reports whether this rank's grid can restart from a checkpoint at
// all, and if so collects the steps it can offer. A shrunken group cannot:
// the surviving checkpoints were written under the pre-shrink group ranks
// and decomposition. It recomputes from the initial condition — the full
// prefix is the measured price of losing a rank without replacement.
func (r *rankState) crBegin() bool {
	if r.mc.st.holed(r.mine) {
		return false
	}
	r.crCand = r.rs.store.AppendCandidateSteps(mpi.AcquireBuf[int](r.crRoom())[:0], r.mine.ID, r.gcomm.Rank())
	return true
}

// crEnd releases the candidate list once the negotiation is over.
func (r *rankState) crEnd() {
	mpi.ReleaseBuf(r.crCand)
	r.crCand = nil
}

// crRoom is the room the candidate list and the offer get, in one
// allocation each: one step per generation the store keeps, and no fewer
// than 8 (64 bytes), the smallest buffer the transport pool takes back, so
// that both are recycled.
func (r *rankState) crRoom() int { return max(r.rs.store.Generations(), 8) }

// crOffer pads the candidate list to the store's generation count, so the
// exchange's shape is independent of how much per-rank damage the header
// peeks found. The offer is a transport buffer: release it once the
// exchange returns (Allgather copies it).
func (r *rankState) crOffer() []int64 {
	buf := mpi.AcquireBuf[int64](r.crRoom())[:max(r.rs.store.Generations(), len(r.crCand))]
	clear(buf)
	for i, s := range r.crCand {
		buf[i] = int64(s)
	}
	return buf
}

// crPick selects the newest step every member offered, 0 when there is none.
func (r *rankState) crPick(all [][]int64, err error) (int, error) {
	if err != nil {
		return 0, fmt.Errorf("core: CR restore: %w", err)
	}
	best := 0
	for _, s := range r.crCand {
		if s <= best {
			continue
		}
		common := true
		for _, theirs := range all {
			if !slices.Contains(theirs, int64(s)) {
				common = false
				break
			}
		}
		if common {
			best = s
		}
	}
	return best, nil
}

// crRestart restarts the grid from the initial condition.
func (r *rankState) crRestart() error {
	r.journalRestore(0)
	ic := grid.NewPooled(r.mine.Lv)
	ic.Fill(r.rs.prob.U0)
	err := r.solver.SetFromGrid(ic, 0)
	ic.Free()
	return err
}

func (r *rankState) journalRestore(step int) {
	if r.gcomm.Rank() == 0 {
		r.cfg.Trace.Note(r.p.Now(), r.rank, r.epoch, "checkpoint-restore",
			slog.Int("grid", r.mine.ID), slog.Int("step", step))
	}
}

// crRead reads this rank's checkpoint of the agreed step in full and casts
// its vote: 1 when the payload is usable.
func (r *rankState) crRead(step int) ([]float64, []int64, error) {
	data, err := r.rs.store.ReadAt(r.p, r.mine.ID, r.gcomm.Rank(), step)
	if err != nil && !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return nil, nil, fmt.Errorf("core: CR restore: %w", err)
	}
	vote := []int64{0}
	if err == nil {
		// A checkpoint written under another group shape (possible once
		// communicators shrink and regrow) counts as damage.
		if len(data) == len(r.solver.Rows()) {
			vote[0] = 1
		}
	}
	return data, vote, nil
}

// crSettle takes the group's vote on step: unanimous, the state is restored
// and the negotiation is over; otherwise the full read exposed damage the
// header peek missed on at least one rank, so the step is dropped everywhere
// and the group renegotiates.
func (r *rankState) crSettle(step int, data []float64, allOK []int64, err error) (bool, error) {
	if err != nil {
		return false, fmt.Errorf("core: CR restore: %w", err)
	}
	if allOK[0] == 1 {
		r.journalRestore(step)
		return true, r.solver.Restore(step, data)
	}
	if r.gcomm.Rank() == 0 {
		r.cfg.Trace.Note(r.p.Now(), r.rank, r.epoch, "checkpoint-fallback",
			slog.Int("grid", r.mine.ID), slog.Int("step", step))
	}
	out := r.crCand[:0]
	for _, s := range r.crCand {
		if s != step {
			out = append(out, s)
		}
	}
	r.crCand = out
	return false, nil
}

// crRecomputed takes the verdict of the run from the restored step back up
// to the current one.
func crRecomputed(err error) error {
	if err != nil {
		return fmt.Errorf("core: CR recompute: %w", err)
	}
	return nil
}

// rcRoute is one Resampling-and-Copying transfer: the lost grid, the partner
// it recovers from, and the world addresses of the two group roots.
type rcRoute struct {
	lost, src        SubGrid
	resample         bool
	srcRoot, dstRoot int
}

// rcRouteOf plans the recovery of lost grid lg. A group's root is its lowest
// SURVIVING original rank (Split orders by original rank), translated to its
// current communicator position; with nothing shrunk out that is the grid's
// first rank.
func (r *rankState) rcRouteOf(lost []int, lg int) (rcRoute, error) {
	rt := rcRoute{lost: r.rs.grids[lg]}
	var err error
	rt.src, rt.resample, err = recoveryPartner(r.rs.grids, rt.lost)
	if err != nil {
		return rt, err
	}
	if slices.Contains(lost, rt.src.ID) {
		return rt, fmt.Errorf("core: RC cannot recover grid %d: partner %d also lost", lg, rt.src.ID)
	}
	st := r.mc.st
	if st.isAbandoned(rt.src.ID) || st.holed(rt.src) {
		return rt, fmt.Errorf("core: RC cannot recover grid %d: partner %d unusable after shrink", lg, rt.src.ID)
	}
	rt.srcRoot = st.commRankOf(st.liveRootOf(rt.src))
	rt.dstRoot = st.commRankOf(st.liveRootOf(rt.lost))
	if rt.srcRoot < 0 || rt.dstRoot < 0 {
		return rt, fmt.Errorf("core: RC recovery of grid %d: no surviving group root", lg)
	}
	return rt, nil
}

// tag is the transfer's message tag on the world communicator.
func (rt rcRoute) tag() int { return tagRecoverBase + rt.lost.ID }

// rcSend takes the partner group's gathered solution (g is nil below the
// group root) and ships it — restricted to the lost grid's level when the
// partner is finer — to the lost grid's root. Send copies eagerly, so the
// pooled grids are freed right after.
func (r *rankState) rcSend(rt rcRoute, g *grid.Grid, err error) error {
	if err != nil {
		return err
	}
	defer g.Free()
	if r.gcomm.Rank() != 0 {
		return nil
	}
	send := g
	if rt.resample {
		send = grid.NewPooled(rt.lost.Lv)
		defer send.Free()
		if err := grid.RestrictInto(g, send); err != nil {
			return err
		}
	}
	return mpi.Send(r.world, rt.dstRoot, rt.tag(), send.V)
}

// rcInstall takes the transferred values, broadcast over the lost grid's
// group, and installs them as the solver's state at the current step. vals
// is transport-owned (Recv at the group root, Bcast below it).
func (r *rankState) rcInstall(rt rcRoute, vals []float64, err error) error {
	if err != nil {
		return err
	}
	g, err := grid.FromValues(rt.lost.Lv, vals)
	if err != nil {
		return fmt.Errorf("core: RC transfer: %w", err)
	}
	err = r.solver.SetFromGrid(g, r.cur)
	mpi.ReleaseBuf(vals)
	return err
}

// --- combine ---------------------------------------------------------------

// report records what this rank knows at the end of its loop. The root of
// the final communicator reports its shape — the surviving original ranks
// in communicator order (none under spawn, where the map is the identity)
// and the abandoned grids — and the grids of every rank that failed, from
// the failure history it kept (recordEvent).
func (r *rankState) report() {
	res := &r.rs.res
	r.rs.mu.Lock()
	defer r.rs.mu.Unlock()
	if r.detectOverhead > res.DetectOverhead {
		res.DetectOverhead = r.detectOverhead
	}
	if r.world.Rank() != 0 {
		return
	}
	res.FinalProcs = r.world.Size()
	if !r.mc.spawn() {
		res.Survivors = r.mc.st.appendMap(nil, r.world.Size())
	}
	res.AbandonedGrids = r.mc.st.abandoned
	if len(res.FailedRanks) > 0 {
		res.LostGrids = r.rs.lostGridIDs(res.FailedRanks)
	}
}

func (r *rankState) beginCombine() trace.SpanHandle {
	return r.cfg.Trace.BeginSpan(r.p.Now(), r.rank, "combine", "")
}

// scheme returns the combination scheme for the run, shared read-only: it
// is a function of the final world communicator's state, so it is that
// communicator's agreed value, computed once (schemeOf). Whatever the
// technique, abandoned grids leave the hole-tolerant survivor scheme.
// Otherwise only Alternate Combination departs from the classic +1/-1
// coefficients: grids lost without being abandoned — spawn, which replaces
// the ranks but not the data, or a simulated loss — get the paper's
// recovered GCP coefficients over the grids still held. Rank 0 charges the
// recomputation as AC's data-recovery cost; no-repair by definition
// recovers nothing, so its data-recovery time stays zero.
func (r *rankState) scheme() (combine.Scheme, error) {
	rs, st, ac := r.rs, r.mc.st, r.cfg.Technique == AlternateCombination
	if len(st.abandoned) == 0 && !(ac && len(st.lost) > 0) {
		return rs.classic, nil
	}
	tRec := r.p.Now()
	sc := r.world.Agreed(schemeKey{}, func() any { return rs.schemeOf(st) }).(*agreedScheme)
	if sc.err != nil {
		return nil, sc.err
	}
	if r.world.Rank() == 0 && ac && r.mc.mode != recovery.ModeNoRepair {
		r.p.Compute(float64(len(rs.grids)*64) * 1e-7) // coefficient computation cost
		rs.mu.Lock()
		if d := r.p.Now() - tRec; d > rs.res.DataRecoveryTime {
			rs.res.DataRecoveryTime = d
		}
		rs.mu.Unlock()
	}
	return sc.scheme, nil
}

// contribution is one rank's part in the paper's parallel gather-scatter
// combination (Section II-A): each group root accumulates its own
// coefficient-weighted sub-grid on the target grid and a single elementwise
// Reduce over the roots assembles the combined solution at rank 0.
type contribution struct {
	g      *grid.Grid // the group's gathered solution; pooled, nil below the group root
	coeff  float64
	active bool // this rank adds g to the sum
	color  int  // its colour in the split that forms the roots' communicator
	roots  *mpi.Comm
	t0     float64
}

// contributionOf takes the group gather and decides the rank's part.
func (r *rankState) contributionOf(scheme combine.Scheme, g *grid.Grid, err error) (contribution, error) {
	if err != nil {
		return contribution{}, fmt.Errorf("core: combine gather: %w", err)
	}
	c := contribution{g: g, coeff: scheme.Coeff(r.mine.Lv), color: mpi.Undefined}
	c.active = r.gcomm.Rank() == 0 && r.mine.Role != RoleDuplicate && c.coeff != 0
	if c.active || r.world.Rank() == 0 {
		c.color = 0
	}
	return c, nil
}

// accumulate takes the roots' communicator (nil for everybody else, who is
// done) and returns the rank's summand for the reduction: a zeroed pooled
// transport buffer, which the Reduce that follows consumes.
func (r *rankState) accumulate(c *contribution, roots *mpi.Comm, err error) ([]float64, error) {
	defer c.g.Free()
	if err != nil {
		return nil, fmt.Errorf("core: combine split: %w", err)
	}
	if roots == nil {
		return nil, nil
	}
	c.roots, c.t0 = roots, r.p.Now()
	target := r.targetLevel()
	summand := mpi.AcquireBuf[float64](target.Points())
	clear(summand)
	if c.active {
		partial, err := grid.FromValues(target, summand)
		if err != nil {
			return nil, err
		}
		partial.AccumulateSampled(c.g, c.coeff)
		r.p.ComputeCells(target.Points(), r.oneShot())
	}
	return summand, nil
}

// combined takes the reduction's result; rank 0 measures the error. total
// is Reduce's root result, a pooled transport buffer.
func (r *rankState) combined(c *contribution, total []float64, err error) error {
	if err != nil {
		return fmt.Errorf("core: combine reduce: %w", err)
	}
	if c.roots.Rank() != 0 {
		return nil
	}
	comb, err := grid.FromValues(r.targetLevel(), total)
	if err != nil {
		return err
	}
	r.recordCombined(comb, c.t0)
	mpi.ReleaseBuf(total)
	return nil
}

func (r *rankState) targetLevel() grid.Level {
	return grid.Level{I: r.cfg.Layout.N, J: r.cfg.Layout.N}
}

// oneShot maps a one-shot operation (the combination) onto the nominal
// problem size.
func (r *rankState) oneShot() float64 {
	return computeScale * float64(r.cfg.Steps) / nominalSteps
}

// recordCombined measures the combined solution's error and stores the
// combine-phase metrics (rank 0 only).
func (r *rankState) recordCombined(comb *grid.Grid, t0 float64) {
	rs := r.rs
	l1 := rs.prob.L1Error(comb, float64(r.cfg.Steps)*rs.dt)
	rs.mu.Lock()
	rs.res.L1Error = l1
	rs.res.CombineTime = r.p.Now() - t0
	rs.mu.Unlock()
}
