package core

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"ftsg/internal/checkpoint"
	"ftsg/internal/combine"
	"ftsg/internal/faultgen"
	"ftsg/internal/ftcomb"
	"ftsg/internal/grid"
	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/pde"
	"ftsg/internal/recovery"
	"ftsg/internal/topo"
	"ftsg/internal/trace"
)

// nominalSteps is the paper's timestep count (2^13); together with
// ComputeScale it maps one-shot operations (the combination) onto the
// nominal problem size.
const nominalSteps = 8192

// Application tags on the world communicator.
const (
	tagRecoverBase = 2000 // + lost grid ID: replication/resampling transfer
	tagCombineBase = 3000 // + grid ID: sub-grid solutions to rank 0
)

// runState is the state shared (in-process) by all simulated ranks of one
// run. Result fields are guarded by mu.
type runState struct {
	cfg     Config
	grids   []SubGrid
	prob    *pde.Problem
	dt      float64
	ckPlan  checkpoint.Plan
	store   *checkpoint.Store
	plan    *faultgen.Plan
	opPlan  *faultgen.OpPlan
	simLost []int
	cluster *topo.Cluster
	place   recovery.Placement
	reg     *metrics.Registry

	flightOnce sync.Once

	mu  sync.Mutex
	res Result
}

// flightSeq numbers automatic flight-recorder dump files within a process.
var flightSeq atomic.Int64

// dumpFlight writes the run's trace recorder (the always-on flight recorder
// unless the caller attached a full one) to a post-mortem file, once per
// run. reason names the trigger in the stderr note; failures to write are
// reported but never mask the original abort.
func (rs *runState) dumpFlight(reason string) {
	rs.flightOnce.Do(func() {
		dir := rs.cfg.FlightDumpDir
		if dir == "" {
			dir = os.TempDir()
		}
		path := filepath.Join(dir, fmt.Sprintf("ftsg-flight-%d-%d.trace.json",
			os.Getpid(), flightSeq.Add(1)))
		if err := rs.cfg.Trace.DumpChromeTrace(path); err != nil {
			fmt.Fprintf(os.Stderr, "core: %s: flight recorder dump failed: %v\n", reason, err)
			return
		}
		fmt.Fprintf(os.Stderr, "core: %s: flight recorder dumped to %s\n", reason, path)
	})
}

// Run executes the fault-tolerant application and returns its metrics.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Every run carries a trace recorder: an explicit one from the caller,
	// or the bounded always-on flight recorder, so an abort or watchdog fire
	// can leave a Perfetto-loadable post-mortem without -trace-out.
	if cfg.Trace == nil {
		cfg.Trace = trace.NewFlight(0)
	}
	rs := &runState{cfg: cfg, grids: cfg.Grids()}
	// A watchdog fire means the run is lost: dump the flight recorder before
	// the configured stall handling (panic when OnStall is nil, abort
	// otherwise) so the deadlock leaves a timeline, not just the text dump.
	if cfg.Watchdog.Timeout > 0 {
		inner := cfg.Watchdog.OnStall
		rs.cfg.Watchdog.OnStall = func(dump string) {
			rs.dumpFlight("watchdog stall")
			if inner == nil {
				panic(dump)
			}
			inner(dump)
		}
	}
	rs.prob, rs.dt = cfg.Problem()
	for _, g := range rs.grids {
		if err := pde.CheckStable(g.Lv, rs.prob, rs.dt); err != nil {
			return nil, err
		}
	}

	stepTime := cfg.EstimateStepTime()
	mtbf := cfg.MTBF
	if mtbf == 0 {
		mtbf = float64(cfg.Steps) * stepTime / 2 // the paper's setup
	}
	rs.ckPlan = checkpoint.NewPlan(cfg.Steps, stepTime, mtbf, cfg.Machine.TIOWrite)

	// Instrumentation: an explicit registry (possibly shared across runs
	// for aggregate summaries) wins; Telemetry attaches a private one so
	// the Result's traffic/IO fields come out populated. Resolved before
	// the checkpoint store so the store's instruments land on it.
	reg := cfg.Metrics
	if reg == nil && cfg.Telemetry {
		reg = metrics.New()
	}

	// The checkpoint store exists only under CR — the other techniques
	// never touch disk, and skipping it spares every RC/AC run a temp dir.
	if cfg.Technique == CheckpointRestart {
		var backend checkpoint.Backend
		removeAll := false
		switch cfg.CheckpointBackend {
		case "", "dir":
			dir := cfg.CheckpointDir
			if dir == "" {
				var err error
				dir, err = os.MkdirTemp("", "ftsg-ckpt-*")
				if err != nil {
					return nil, err
				}
				removeAll = true
			}
			b, err := checkpoint.OpenDir(dir)
			if err != nil {
				return nil, err
			}
			backend = b
		case "mem":
			backend = checkpoint.NewMem()
			removeAll = true
		default:
			return nil, fmt.Errorf("core: unknown checkpoint backend %q", cfg.CheckpointBackend)
		}
		store, err := checkpoint.Open(checkpoint.Options{
			Backend:     cfg.CheckpointFaults.Wrap(backend),
			Generations: cfg.CheckpointGenerations,
			Async:       cfg.CheckpointAsync,
			Metrics:     reg,
		})
		if err != nil {
			return nil, err
		}
		rs.store = store
		if removeAll {
			defer func() { _ = store.Remove() }()
		} else {
			defer func() { _ = store.Close() }()
		}
	}

	var err error
	var conflicts [][2]int
	if cfg.Technique == ResamplingCopying {
		conflicts = rcConflicts(rs.grids)
	}
	nprocs := cfg.NumProcs()

	// Cluster layout, optionally with an explicit shape (hosts/slots/racks)
	// and spare nodes; placement policy for replacements (same host by
	// default, spare node when available).
	slots := cfg.Machine.SlotsPerHost
	if cfg.SlotsPerHost > 0 {
		slots = cfg.SlotsPerHost
	}
	baseHosts := (nprocs + slots - 1) / slots
	if cfg.Hosts > 0 {
		baseHosts = cfg.Hosts
	}
	racks := cfg.Racks
	if racks < 1 {
		racks = 1
	}
	rs.cluster = topo.NewRacked(baseHosts+cfg.SpareNodes, slots, racks)
	rs.place = recovery.SameHostPlacement
	if cfg.SpareNodes > 0 {
		rs.place = recovery.SpareNodePlacement(rs.cluster.Host(baseHosts).Name)
	}

	gridOfID := func(rank int) int {
		g, gerr := gridOfRank(rs.grids, rank)
		if gerr != nil {
			return -1
		}
		return g.ID
	}
	if cfg.NodeFailure {
		rs.plan, err = faultgen.NodePlan(cfg.Seed, cfg.FailStep, nprocs, func(rank int) int {
			h, herr := rs.cluster.HostIndexOfRank(rank)
			if herr != nil {
				return -1
			}
			return h
		})
		if err != nil {
			return nil, err
		}
	} else if len(cfg.FailSchedule) > 0 {
		rs.plan, err = faultgen.Schedule(faultgen.Config{
			Seed:      cfg.Seed,
			NumRanks:  nprocs,
			GridOf:    gridOfID,
			Conflicts: conflicts,
		}, cfg.FailSchedule)
		if err != nil {
			return nil, err
		}
	} else if cfg.NumFailures > 0 {
		if cfg.RealFailures {
			rs.plan, err = faultgen.New(faultgen.Config{
				Seed:        cfg.Seed,
				NumFailures: cfg.NumFailures,
				Step:        cfg.FailStep,
				NumRanks:    nprocs,
				GridOf:      gridOfID,
				Conflicts:   conflicts,
			})
		} else {
			// Simulated losses hit the combined solution grids and, for
			// RC, the duplicates (the paper's "loss of 5 out of 10 grids"
			// counts them — and without them the pairwise recovery
			// constraints cap the losses at 3). Grid 0 holds the
			// controlling rank 0 and is protected.
			var candidates []int
			for _, g := range rs.grids[1:] {
				switch g.Role {
				case RoleDiagonal, RoleLowerDiagonal:
					candidates = append(candidates, g.ID)
				case RoleDuplicate:
					if cfg.Technique == ResamplingCopying {
						candidates = append(candidates, g.ID)
					}
				}
			}
			rs.simLost, err = faultgen.PickGrids(cfg.Seed, cfg.NumFailures, candidates, conflicts)
			sort.Ints(rs.simLost)
		}
		if err != nil {
			return nil, err
		}
	}
	if len(cfg.OpFailures) > 0 {
		// Operation-granularity victims: decorrelate the draw from the step
		// plan's seed (same seed, different stream) and exclude its victims,
		// so both kinds of failure can hit the same run without colliding.
		var exclude []int
		if rs.plan != nil {
			exclude = rs.plan.Victims()
		}
		rs.opPlan, err = faultgen.NewOpPlan(faultgen.Config{
			Seed:      cfg.Seed + 7919,
			NumRanks:  nprocs,
			GridOf:    gridOfID,
			Conflicts: conflicts,
		}, cfg.OpFailures, exclude)
		if err != nil {
			return nil, err
		}
	}

	rs.res = Result{
		Technique:      cfg.Technique,
		Machine:        cfg.Machine.Name,
		Procs:          nprocs,
		GridCount:      len(rs.grids),
		Steps:          cfg.Steps,
		CheckpointPlan: rs.ckPlan,
		LostGrids:      append([]int(nil), rs.simLost...),
		TIOWrite:       cfg.Machine.TIOWrite,
		Mode:           cfg.RecoveryMode.String(),
		FinalProcs:     nprocs, // non-spawn modes overwrite at the end of the run
	}

	// Substitute mode parks its spare processes on the spare node (the same
	// place spawn-mode replacements land when SpareNodes is configured);
	// WithDefaults guarantees a spare node exists whenever SpareRanks > 0.
	var spareHosts []string
	if cfg.SpareRanks > 0 {
		spareHosts = []string{rs.cluster.Host(baseHosts).Name}
	}

	rs.reg = reg
	opts := mpi.Options{
		NProcs:     nprocs,
		Machine:    cfg.Machine,
		Cluster:    rs.cluster,
		Metrics:    reg,
		Watchdog:   rs.cfg.Watchdog,
		Introspect: cfg.Introspect,
		SpareRanks: cfg.SpareRanks,
		SpareHosts: spareHosts,
	}
	if cfg.Event {
		opts.EventEntry = rs.eventEntry
		opts.EventWorkers = cfg.EventWorkers
	} else {
		opts.Entry = rs.entry
	}
	rep, err := mpi.Run(opts)
	if err != nil {
		return nil, err
	}
	rs.res.TotalTime = rep.MaxVirtualTime
	rs.res.Spawned = rep.Spawned
	rs.res.Deaths = len(rep.Failed)
	rs.res.SparesUsed = rep.SparesUsed
	if reg != nil {
		// With a shared registry these are cumulative across the runs
		// recorded so far, not per-run.
		rs.res.MPIMessages = reg.Counter("mpi.sent.messages").Value()
		rs.res.MPIBytes = reg.Counter("mpi.sent.bytes").Value()
		rs.res.CheckpointBytesOut = reg.Counter("checkpoint.bytes.written").Value()
		rs.res.CheckpointBytesIn = reg.Counter("checkpoint.bytes.read").Value()
	}
	return &rs.res, nil
}

// detectionPoints lists the steps at which failure detection is tested:
// before every checkpoint write for CR, only before the combination for RC
// and AC (Section III of the paper).
func (rs *runState) detectionPoints() []int {
	var dps []int
	if rs.cfg.Technique == CheckpointRestart {
		for s := rs.ckPlan.IntervalSteps; s < rs.cfg.Steps; s += rs.ckPlan.IntervalSteps {
			dps = append(dps, s)
		}
	}
	return append(dps, rs.cfg.Steps)
}

func (rs *runState) entry(p *mpi.Proc) {
	if err := rs.rank(p); err != nil {
		if errors.Is(err, recovery.ErrOrphaned) {
			// This replacement's repair round was hit by a further failure
			// and abandoned; the survivors retried with fresh replacements.
			// Exiting cleanly is the whole of its job.
			return
		}
		// The run is about to abort: leave the flight-recorder post-mortem
		// before panicking out of the simulated process.
		rs.dumpFlight(fmt.Sprintf("rank %d abort", p.WorldRank()))
		panic(fmt.Sprintf("core: world rank %d: %v", p.WorldRank(), err))
	}
}

// rank is the program every simulated process runs, including re-spawned
// replacements.
func (rs *runState) rank(p *mpi.Proc) error {
	cfg := rs.cfg
	charge := func(cells int) { p.ComputeCells(cells, cfg.ComputeScale) }
	journal := cfg.Journal

	// Recovery-overlap accounting: per-rank virtual time blocked in the
	// detect/repair window vs advancing the solve. Nil-safe throughout; the
	// non-blocking-recovery work uses these as its before/after yardstick.
	repairVec := rs.reg.TimeSumVec("rank.vtime.repair")
	advanceVec := rs.reg.TimeSumVec("rank.vtime.advance")

	var world *mpi.Comm
	var rank, cur int
	var failedList []int
	replacement := p.Parent() != nil
	// epoch counts the communicator repairs this process has lived through —
	// the journal's "which incarnation of the world" stamp. A replacement is
	// born out of repair round one (or a later one; it cannot tell, and the
	// stamp only needs to order events on one rank's timeline).
	epoch := 0
	myStats := recovery.Stats{Trace: cfg.Trace, Metrics: rs.reg}

	// Non-spawn recovery modes carry per-rank mode state (position mapping,
	// holes, abandoned grids); spawn needs none and leaves mc nil. `rank`
	// always holds this process's ORIGINAL rank — the stable identity behind
	// grid assignment, fault plans, and metric labels — while communicator
	// positions shift under shrinks.
	var mc *modeCtx
	if cfg.RecoveryMode != recovery.ModeSpawn {
		mc = newModeCtx(cfg.RecoveryMode, cfg.NumProcs())
		myStats.ModeLabel = cfg.RecoveryMode.String()
	}

	if replacement {
		tAttach := p.Now()
		mr, err := recovery.ReconstructMode(p, nil, p.Parent(), &myStats, rs.place, cfg.RecoveryMode, nil)
		if err != nil {
			return err
		}
		world, rank = mr.Comm, mr.Rank
		if mc != nil {
			// A claimed spare (substitute mode) learns everything else —
			// including which original rank it replaces — from rank 0's
			// broadcast.
			var aband, origOf []int
			cur, failedList, aband, origOf, err = syncRecoveryInfoMode(world, 0, nil, nil, nil)
			if err != nil {
				return err
			}
			mc.adopt(origOf, aband, failedList)
			rank = mc.origOf[world.Rank()]
		}
		epoch = 1
		repairVec.At(rank).Add(p.Now() - tAttach)
	} else {
		world = p.World()
		rank = world.Rank()
	}

	mine, err := gridOfRank(rs.grids, rank)
	if err != nil {
		return err
	}

	build := func(w *mpi.Comm) (*mpi.Comm, pde.Solver, error) {
		gc, err := w.Split(mine.ID, rank)
		if err != nil {
			return nil, nil, fmt.Errorf("group split: %w", err)
		}
		var s pde.Solver
		if cfg.Decomp2D {
			px, py := decompDims(gc.Size(), mine.Lv)
			s, err = pde.NewParallelSolver2D(gc, rs.prob, mine.Lv, rs.dt, px, py)
		} else {
			s, err = pde.NewParallelSolver(gc, rs.prob, mine.Lv, rs.dt)
		}
		if err != nil {
			return nil, nil, err
		}
		s.SetCharge(charge)
		return gc, s, nil
	}

	var gcomm *mpi.Comm
	var solver pde.Solver
	// Whichever solver the rank holds when its run ends — normally, on an
	// error or killed — goes back to the buffer pool.
	defer func() {
		if solver != nil {
			solver.Release()
		}
	}()
	if replacement {
		// Rejoin the survivors: learn the detection step and failed ranks,
		// rebuild the group communicator, and take part in data recovery
		// (same sequence as the survivors' failure branch below). Substitute
		// children already ran their broadcast above, alongside the attach.
		if mc == nil {
			cur, failedList, err = syncRecoveryInfo(world, 0, nil)
			if err != nil {
				return err
			}
		}
		// Invariant: this replacement adopted its predecessor's (original)
		// rank, so that rank must be in the failed list rank 0 announced.
		if !containsInt(failedList, rank) {
			return fmt.Errorf("core: replacement adopted rank %d but rank 0 announced failed ranks %v", rank, failedList)
		}
		cfg.Trace.Emit(p.Now(), rank, "respawn",
			"replacement world id %d attached on host %d, rejoining at step %d",
			p.WorldRank(), p.Host(), cur)
		journal.Emit(p.Now(), rank, epoch, "respawn",
			slog.Int("step", cur), slog.Int("world_id", p.WorldRank()), slog.Int("host", p.Host()))
		gcomm, solver, err = build(world)
		if err != nil {
			return err
		}
		rs.flushCheckpoints(p, rank, cur)
		if err := rs.recoverData(p, world, gcomm, solver, mine, failedList, cur, epoch, mc, rs.activeRecoverIDs(mc, failedList)); err != nil {
			return err
		}
		rs.mergeStats(&myStats, failedList)
	} else {
		gcomm, solver, err = build(world)
		if err != nil {
			return err
		}
	}

	// Operation-granularity fault injection (chaos campaigns): the hook is
	// armed only across the solve + detect/repair window of each detection
	// interval — the phases whose peers tolerate a mid-operation death — and
	// disarmed before the recovery-info broadcast, data recovery and the
	// combination. Its op count persists across windows. Replacements never
	// poll or hook: their predecessor already died.
	var opHook mpi.OpHook
	if !replacement {
		opHook = rs.opPlan.Hook(p, rank)
	}

	// gridLost marks this rank's sub-grid as dead: set transiently when a
	// group member dies mid-solve (cleared once recovery restores the data),
	// and persistently when a non-spawn mode abandons the grid — the rank
	// then stops stepping and checkpointing but keeps taking part in
	// detection and the final combination (with coefficient zero).
	gridLost := mc != nil && mc.abandoned[mine.ID]
	var detectOverhead float64
	var stateBuf []float64 // persistent checkpoint-encode scratch, reused across writes
	for _, dp := range rs.detectionPoints() {
		if dp <= cur {
			continue
		}
		if opHook != nil {
			p.SetOpHook(opHook)
		}
		tSolve := p.Now()
		solveSpan := cfg.Trace.BeginSpan(tSolve, rank, "solve", "steps %d..%d", cur+1, dp)
		for s := cur + 1; s <= dp; s++ {
			if !replacement && rs.plan != nil {
				if journal != nil {
					if at, ok := rs.plan.DeathStep(rank); ok && at == s {
						journal.Emit(p.Now(), rank, epoch, "fault-inject", slog.Int("step", s))
					}
				}
				rs.plan.Poll(p, rank, s)
			}
			if !gridLost {
				if err := solver.Step(); err != nil {
					// A group member died mid-solve: revoke the group
					// communicators (both the split result and the solver's
					// working communicator — the 2D solver runs on a
					// Cartesian duplicate) so blocked peers stop too,
					// abandon the grid, and wait for global detection.
					gridLost = true
					_ = solver.GroupComm().Revoke()
					_ = gcomm.Revoke()
				}
			}
		}
		solveSpan.End(p.Now())
		advanceVec.At(rank).Add(p.Now() - tSolve)
		cur = dp

		tRepair := p.Now()
		st := recovery.Stats{Trace: cfg.Trace, Metrics: rs.reg, ModeLabel: myStats.ModeLabel}
		mr, err := recovery.ReconstructMode(p, world, nil, &st, rs.place, cfg.RecoveryMode, mc.positions())
		if opHook != nil {
			p.SetOpHook(nil)
		}
		if err != nil {
			return err
		}
		newWorld, newRank := mr.Comm, mr.Rank
		repairVec.At(rank).Add(p.Now() - tRepair)
		var recoverIDs []int
		if st.ReconstructTime > 0 {
			// A failure was repaired: re-derive everything that hung off
			// the old communicator — after checking the protocol's core
			// promises. Spawn (paper Fig. 3) promises same size, same rank
			// order; the other modes promise that every survivor keeps its
			// original identity while the size shrinks (shrink/no-repair,
			// or a substitute round that fell back) or is restored from
			// spares (substitute).
			if mc == nil {
				if newRank != rank {
					return fmt.Errorf("core: repaired communicator moved rank %d to %d", rank, newRank)
				}
				if newWorld.Size() != world.Size() {
					return fmt.Errorf("core: repaired communicator size %d, want %d", newWorld.Size(), world.Size())
				}
				world, rank = newWorld, newRank
				_, failedList, err = syncRecoveryInfo(world, dp, st.FailedRanks)
				if err != nil {
					return err
				}
				// Invariant: every survivor derived the failed-rank list locally
				// (Fig. 6 group algebra); it must agree with rank 0's broadcast.
				if !equalInts(failedList, st.FailedRanks) {
					return fmt.Errorf("core: rank %d derived failed ranks %v but rank 0 announced %v", rank, st.FailedRanks, failedList)
				}
			} else {
				if newWorld.Size() != len(mr.OrigOf) {
					return fmt.Errorf("core: repaired communicator size %d but position map covers %d", newWorld.Size(), len(mr.OrigOf))
				}
				if mr.OrigOf[newRank] != rank {
					return fmt.Errorf("core: repaired communicator position %d holds original rank %d, want %d", newRank, mr.OrigOf[newRank], rank)
				}
				if cfg.RecoveryMode == recovery.ModeSubstitute && mr.Fallbacks == 0 {
					if newWorld.Size() != world.Size() {
						return fmt.Errorf("core: substitute repair changed communicator size %d -> %d", world.Size(), newWorld.Size())
					}
				} else if newWorld.Size() >= world.Size() {
					return fmt.Errorf("core: %v repair did not shrink the communicator (%d -> %d)", cfg.RecoveryMode, world.Size(), newWorld.Size())
				}
				world = newWorld // rank keeps its original identity
				mc.fallbacks += mr.Fallbacks
				recoverIDs = rs.applyEvent(mc, mr.OrigOf, st.FailedRanks)
				var aband, origOf []int
				_, failedList, aband, origOf, err = syncRecoveryInfoMode(world, dp, st.FailedRanks, mc.abandonedList(), mc.origOf)
				if err != nil {
					return err
				}
				// Invariants: the locally derived failed list, position map and
				// abandoned set must all agree with rank 0's broadcast — every
				// survivor folded the same event into the same prior state.
				if !equalInts(failedList, st.FailedRanks) {
					return fmt.Errorf("core: rank %d derived failed ranks %v but rank 0 announced %v", rank, st.FailedRanks, failedList)
				}
				if !equalInts(origOf, mc.origOf) {
					return fmt.Errorf("core: rank %d derived position map %v but rank 0 announced %v", rank, mc.origOf, origOf)
				}
				if !equalInts(aband, mc.abandonedList()) {
					return fmt.Errorf("core: rank %d derived abandoned grids %v but rank 0 announced %v", rank, mc.abandonedList(), aband)
				}
			}
			if rank == 0 {
				cfg.Trace.Emit(p.Now(), rank, "repair",
					"failed ranks %v repaired at step %d (shrink %.2fs, spawn %.2fs, merge %.3fs, agree %.2fs, split %.3fs)",
					failedList, dp, st.ShrinkTime, st.SpawnTime, st.MergeTime, st.AgreeTime, st.SplitTime)
				if journal != nil {
					journal.Emit(p.Now(), rank, epoch, "failure-detected",
						slog.Int("step", dp), slog.String("failed", fmt.Sprint(failedList)))
					for _, ph := range []struct {
						name    string
						seconds float64
					}{
						{"detect", st.ListTime}, {"shrink", st.ShrinkTime},
						{"spawn", st.SpawnTime}, {"merge", st.MergeTime},
						{"agree", st.AgreeTime}, {"split", st.SplitTime},
					} {
						journal.Emit(p.Now(), rank, epoch, "repair-phase",
							slog.String("phase", ph.name), slog.Float64("seconds", ph.seconds),
							slog.Int("step", dp))
					}
				}
			}
			epoch++
			oldState, oldStep := solver.State(), solver.Steps()
			solver.Release()
			gcomm, solver, err = build(world)
			if err != nil {
				return err
			}
			// Carry the pre-repair state into the rebuilt solver. Spawn uses
			// the local mid-solve signal (gridLost); the other modes decide
			// from the broadcast-agreed damage so all members of a grid act
			// identically: a damaged grid's state is rebuilt by recoverData
			// (or the grid is abandoned), and restoring would either be
			// redundant or shape-mismatched after a shrink.
			restorable := !gridLost
			if mc != nil {
				restorable = !containsInt(rs.lostGridIDs(failedList), mine.ID) && !mc.abandoned[mine.ID]
			}
			if restorable {
				if err := solver.Restore(oldStep, oldState); err != nil {
					return err
				}
			}
			rs.flushCheckpoints(p, rank, dp)
			if err := rs.recoverData(p, world, gcomm, solver, mine, failedList, dp, epoch, mc, recoverIDs); err != nil {
				return err
			}
			rs.mergeStats(&st, failedList)
			gridLost = mc != nil && mc.abandoned[mine.ID]
		} else {
			detectOverhead += st.ListTime
			if cfg.Technique == CheckpointRestart && dp < cfg.Steps && !gridLost {
				stateBuf = pde.AppendState(solver, stateBuf[:0])
				ckSpan := cfg.Trace.BeginSpan(p.Now(), rank, "checkpoint", "write step %d", dp)
				err := rs.store.Write(p, mine.ID, gcomm.Rank(), dp, stateBuf)
				ckSpan.End(p.Now())
				if err != nil {
					return err
				}
				if rank == 0 {
					rs.mu.Lock()
					rs.res.CheckpointWrites++
					rs.mu.Unlock()
					cfg.Trace.Emit(p.Now(), rank, "checkpoint", "checkpoint written at step %d", dp)
					journal.Emit(p.Now(), rank, epoch, "checkpoint-commit", slog.Int("step", dp))
				}
			}
		}
	}

	// Simulated failures (the paper's Figs. 9/10 mode): whole grids are
	// assumed lost at the end, without killing processes. Spawn-only
	// (Config.Validate), so mc is always nil here.
	if !cfg.RealFailures && len(rs.simLost) > 0 {
		if err := rs.recoverData(p, world, gcomm, solver, mine, nil, cfg.Steps, epoch, nil, nil); err != nil {
			return err
		}
	}

	rs.mu.Lock()
	if detectOverhead > rs.res.DetectOverhead {
		rs.res.DetectOverhead = detectOverhead
	}
	rs.mu.Unlock()

	// Non-spawn modes report their final communicator shape: the current
	// root records the size, the surviving original ranks in communicator
	// order, the fallback count, the abandoned grids, and the failure
	// history — unioned across every event, unlike the spawn path's
	// first-event report from mergeStats.
	if mc != nil && world.Rank() == 0 {
		rs.mu.Lock()
		rs.res.FinalProcs = world.Size()
		rs.res.Survivors = append([]int(nil), mc.origOf...)
		rs.res.RepairFallbacks = mc.fallbacks
		rs.res.AbandonedGrids = mc.abandonedList()
		if fr := mc.failedRanks(); len(fr) > 0 {
			rs.res.FailedRanks = fr
			rs.res.LostGrids = rs.lostGridIDs(fr)
		}
		rs.mu.Unlock()
	}

	return rs.combinePhase(p, world, gcomm, solver, mine, rs.lostGridIDs(failedList), mc)
}

// syncRecoveryInfo broadcasts rank 0's failure information — the detection
// step and the failed-rank list — over the reconstructed communicator, so
// replacements learn where to rejoin and every survivor shares the global
// view. (Replacements cannot derive the step themselves once multiple
// failure events are allowed.)
func syncRecoveryInfo(world *mpi.Comm, step int, mine []int) (int, []int, error) {
	out, err := mpi.Bcast(world, 0, recoveryInfoBuf(world, step, mine))
	return parseRecoveryInfo(out, err)
}

// recoveryInfoBuf builds rank 0's payload for syncRecoveryInfo (nil
// elsewhere); parseRecoveryInfo decodes the broadcast result. Shared with the
// event path's fiber twin so both wire formats are one piece of code.
func recoveryInfoBuf(world *mpi.Comm, step int, mine []int) []int {
	if world.Rank() != 0 {
		return nil
	}
	return append([]int{step}, mine...)
}

// The decoded list is copied out and the broadcast buffer released: it is the
// transport's everywhere (at rank 0, recoveryInfoBuf's own fresh slice), and
// the list outlives it by the rest of the run.
func parseRecoveryInfo(out []int, err error) (int, []int, error) {
	if err != nil || len(out) < 1 {
		return 0, nil, fmt.Errorf("core: broadcast recovery info: %w", err)
	}
	step, failed := out[0], append([]int(nil), out[1:]...)
	mpi.ReleaseBuf(out)
	return step, failed, nil
}

// lostGridIDs maps failed ranks (real mode) or the simulated loss list onto
// sub-grid IDs, ascending.
func (rs *runState) lostGridIDs(failedRanks []int) []int {
	if !rs.cfg.RealFailures {
		return rs.simLost
	}
	seen := map[int]bool{}
	var out []int
	for _, r := range failedRanks {
		g, err := gridOfRank(rs.grids, r)
		if err != nil {
			continue
		}
		if !seen[g.ID] {
			seen[g.ID] = true
			out = append(out, g.ID)
		}
	}
	sort.Ints(out)
	return out
}

// flushCheckpoints drains the store's write-behind queue at a
// failure-detection point, under a trace span, so every checkpoint written
// before the failure is durable before recovery reads it back. The barrier
// costs no virtual time — the write latency was charged at Write-call time
// — so sync and async runs stay byte-identical; the span is emitted in both
// modes for the same reason.
func (rs *runState) flushCheckpoints(p *mpi.Proc, rank, atStep int) {
	if rs.store == nil {
		return
	}
	sp := rs.cfg.Trace.BeginSpan(p.Now(), rank, "ckpt-flush", "drain write-behind queue at step %d", atStep)
	rs.store.Flush()
	sp.End(p.Now())
}

// agreeRestoreStep picks the newest checkpoint step that every member of
// the group offers as a candidate, or 0 when no common step exists (restart
// from the initial condition). Candidate lists are exchanged padded to the
// store's generation count so the collective's shape is independent of how
// much per-rank damage the header peeks found.
func agreeRestoreStep(gcomm *mpi.Comm, cand []int, width int) (int, error) {
	all, err := mpi.Allgather(gcomm, restoreStepBuf(cand, width))
	if err != nil {
		return 0, err
	}
	return pickRestoreStep(cand, all), nil
}

// restoreStepBuf pads the candidate list to the exchange width;
// pickRestoreStep selects the newest step every rank offered. Both are shared
// with the event path's fiber twin.
func restoreStepBuf(cand []int, width int) []int64 {
	if width < len(cand) {
		width = len(cand)
	}
	buf := make([]int64, width)
	for i, s := range cand {
		buf[i] = int64(s)
	}
	return buf
}

func pickRestoreStep(cand []int, all [][]int64) int {
	best := 0
	for _, s := range cand {
		if s <= best {
			continue
		}
		common := true
		for _, theirs := range all {
			found := false
			for _, v := range theirs {
				if int(v) == s {
					found = true
					break
				}
			}
			if !found {
				common = false
				break
			}
		}
		if common {
			best = s
		}
	}
	return best
}

// removeStep returns cand without step, preserving order.
func removeStep(cand []int, step int) []int {
	out := cand[:0]
	for _, s := range cand {
		if s != step {
			out = append(out, s)
		}
	}
	return out
}

// recoverData restores the data of lost sub-grids at the given step using
// the configured technique. Every process of the communicator calls it with
// the same arguments; only members of the lost grids and their recovery
// partners communicate. Under a non-spawn mode (mc != nil) the caller passes
// the broadcast-agreed active set (damaged minus abandoned) as recoverIDs
// and the sub-grid addressing is translated through the position map.
func (rs *runState) recoverData(p *mpi.Proc, world, gcomm *mpi.Comm, solver pde.Solver, mine SubGrid, failedRanks []int, atStep, epoch int, mc *modeCtx, recoverIDs []int) error {
	lost := rs.lostGridIDs(failedRanks)
	if mc != nil {
		lost = recoverIDs
	}
	if len(lost) == 0 {
		return nil
	}
	if world.Rank() == 0 {
		rs.cfg.Trace.Emit(p.Now(), 0, "recover-data", "%v recovery of sub-grids %v at step %d",
			rs.cfg.Technique, lost, atStep)
	}
	t0 := p.Now()
	sp := rs.cfg.Trace.BeginSpan(t0, traceRank(world, mc), "recover-data", "%v, sub-grids %v", rs.cfg.Technique, lost)
	defer func() {
		sp.End(p.Now())
		rs.mu.Lock()
		if d := p.Now() - t0; d > rs.res.DataRecoveryTime {
			rs.res.DataRecoveryTime = d
		}
		if len(rs.res.LostGrids) == 0 {
			rs.res.LostGrids = append([]int(nil), lost...)
		}
		rs.mu.Unlock()
	}()

	switch rs.cfg.Technique {
	case CheckpointRestart:
		if !containsInt(lost, mine.ID) {
			return nil
		}
		if mc != nil && mc.holed(mine) {
			// A shrunken group: the surviving checkpoints were written under
			// the pre-shrink group ranks and decomposition, so they cannot be
			// read back into the smaller solver. Recompute from the initial
			// condition — the full prefix is the measured price of losing a
			// rank without replacement.
			if gcomm.Rank() == 0 {
				rs.cfg.Journal.Emit(p.Now(), world.Rank(), epoch, "checkpoint-restore",
					slog.Int("grid", mine.ID), slog.Int("step", 0))
			}
			ic := grid.NewPooled(mine.Lv)
			ic.Fill(rs.prob.U0)
			rerr := solver.SetFromGrid(ic, 0)
			ic.Free()
			if rerr != nil {
				return rerr
			}
			if err := solver.Run(atStep - solver.Steps()); err != nil {
				return fmt.Errorf("core: CR recompute: %w", err)
			}
			return nil
		}
		// Restart from the newest checkpoint step the whole process group
		// can read. The recompute below runs the parallel solver, whose
		// halo exchanges require every member of the grid to execute the
		// same number of steps — a rank that independently fell back to an
		// older generation (its newer one corrupt or torn) would recompute
		// more steps than its neighbours and deadlock the group. So the
		// members negotiate: exchange candidate steps, pick the newest one
		// everybody offers, and verify the full CRC-checked read everywhere
		// before committing. A step whose payload turns out damaged on any
		// rank is discarded group-wide and the next older common step is
		// tried; when nothing usable survives on every rank, all restart
		// from the initial condition and recompute the full prefix.
		// Recovery never hard-fails on storage damage; that failure mode is
		// exactly what CR exists to absorb.
		cand := rs.store.CandidateSteps(mine.ID, gcomm.Rank())
		for {
			step, err := agreeRestoreStep(gcomm, cand, rs.store.Generations())
			if err != nil {
				return fmt.Errorf("core: CR restore: %w", err)
			}
			if step == 0 {
				if gcomm.Rank() == 0 {
					rs.cfg.Journal.Emit(p.Now(), world.Rank(), epoch, "checkpoint-restore",
						slog.Int("grid", mine.ID), slog.Int("step", 0))
				}
				ic := grid.NewPooled(mine.Lv)
				ic.Fill(rs.prob.U0)
				rerr := solver.SetFromGrid(ic, 0)
				ic.Free()
				if rerr != nil {
					return rerr
				}
				break
			}
			data, rerr := rs.store.ReadAt(p, mine.ID, gcomm.Rank(), step)
			ok := int64(1)
			if rerr != nil {
				if !errors.Is(rerr, checkpoint.ErrNoCheckpoint) {
					return fmt.Errorf("core: CR restore: %w", rerr)
				}
				ok = 0
			}
			if rerr == nil && mc != nil && len(data) != len(solver.State()) {
				// A checkpoint written under a different group shape (possible
				// once communicators shrink and regrow): treat it like damage
				// and let the group fall back to an older common step.
				ok = 0
			}
			allOK, aerr := mpi.Allreduce(gcomm, []int64{ok}, mpi.MinOp)
			if aerr != nil {
				return fmt.Errorf("core: CR restore: %w", aerr)
			}
			if allOK[0] == 1 {
				if gcomm.Rank() == 0 {
					rs.cfg.Journal.Emit(p.Now(), world.Rank(), epoch, "checkpoint-restore",
						slog.Int("grid", mine.ID), slog.Int("step", step))
				}
				if err := solver.Restore(step, data); err != nil {
					return err
				}
				break
			}
			// The full read exposed damage the header peek missed on at
			// least one rank: drop the step everywhere and renegotiate.
			if gcomm.Rank() == 0 {
				rs.cfg.Journal.Emit(p.Now(), world.Rank(), epoch, "checkpoint-fallback",
					slog.Int("grid", mine.ID), slog.Int("step", step))
			}
			cand = removeStep(cand, step)
		}
		if err := solver.Run(atStep - solver.Steps()); err != nil {
			return fmt.Errorf("core: CR recompute: %w", err)
		}
		return nil

	case ResamplingCopying:
		for _, lg := range lost {
			lostGrid := rs.grids[lg]
			src, resample, err := recoveryPartner(rs.grids, lostGrid)
			if err != nil {
				return err
			}
			if containsInt(lost, src.ID) {
				return fmt.Errorf("core: RC cannot recover grid %d: partner %d also lost", lg, src.ID)
			}
			// World addresses of the two group roots. With the original
			// numbering intact these are the grids' first ranks; under a
			// non-spawn mode a group's root is its lowest SURVIVING original
			// rank (Split orders by original rank), translated to its current
			// communicator position.
			srcRoot, dstRoot := src.FirstRank, lostGrid.FirstRank
			if mc != nil {
				if mc.abandoned[src.ID] || mc.holed(src) {
					return fmt.Errorf("core: RC cannot recover grid %d: partner %d unusable after shrink", lg, src.ID)
				}
				srcRoot = mc.commRankOf(mc.liveRootOf(src))
				dstRoot = mc.commRankOf(mc.liveRootOf(lostGrid))
				if srcRoot < 0 || dstRoot < 0 {
					return fmt.Errorf("core: RC recovery of grid %d: no surviving group root", lg)
				}
			}
			if mine.ID == src.ID {
				g, err := solver.Gather(0)
				if err != nil {
					return err
				}
				if gcomm.Rank() == 0 {
					send := g
					if resample {
						// mpi.Send copies eagerly, so the pooled
						// restriction can be freed right after.
						send = grid.NewPooled(lostGrid.Lv)
						if err := grid.RestrictInto(g, send); err != nil {
							send.Free()
							return err
						}
					}
					err := mpi.Send(world, dstRoot, tagRecoverBase+lg, send.V)
					if resample {
						send.Free()
					}
					if err != nil {
						return err
					}
				}
				g.Free() // the gathered grid is pooled; nil below the group root
			}
			if mine.ID == lg {
				var vals []float64
				if gcomm.Rank() == 0 {
					var err error
					vals, _, err = mpi.Recv[float64](world, srcRoot, tagRecoverBase+lg)
					if err != nil {
						return err
					}
				}
				vals, err := mpi.Bcast(gcomm, 0, vals)
				if err != nil {
					return err
				}
				g, err := grid.FromValues(lostGrid.Lv, vals)
				if err != nil {
					return fmt.Errorf("core: RC transfer: %w", err)
				}
				err = solver.SetFromGrid(g, atStep)
				mpi.ReleaseBuf(vals) // transport-owned (Recv at the group root, Bcast below it)
				if err != nil {
					return err
				}
			}
		}
		return nil

	case AlternateCombination:
		// No data movement: the combination-phase coefficients are
		// recomputed over the survivors (timed there as the recovery
		// cost); lost grids simply do not contribute.
		return nil
	}
	return fmt.Errorf("core: unknown technique %v", rs.cfg.Technique)
}

// computeScheme returns the combination scheme for the run: the classic
// +1/-1 coefficients, or — under Alternate Combination with losses — the
// recovered GCP coefficients over the surviving grids. Every rank computes
// it deterministically; timeIt (rank 0) records the coefficient
// recomputation as the AC data-recovery cost. Non-spawn modes (mc != nil)
// combine over whatever survived abandonment, whichever the technique: the
// hole-tolerant survivor scheme replaces the classic coefficients.
func (rs *runState) computeScheme(p *mpi.Proc, lost []int, timeIt bool, mc *modeCtx) (combine.Scheme, error) {
	if mc != nil {
		if len(mc.abandoned) == 0 {
			return rs.cfg.Layout.Classic(), nil
		}
		tRec := p.Now()
		scheme, err := rs.survivorScheme(mc)
		if err != nil {
			return nil, err
		}
		if timeIt && rs.cfg.Technique == AlternateCombination && mc.mode != recovery.ModeNoRepair {
			// AC charges the coefficient recomputation as its data-recovery
			// cost, as in spawn mode; no-repair by definition recovers
			// nothing, so its data-recovery time stays zero.
			p.Compute(float64(len(rs.grids)*64) * 1e-7)
			rs.mu.Lock()
			if d := p.Now() - tRec; d > rs.res.DataRecoveryTime {
				rs.res.DataRecoveryTime = d
			}
			rs.mu.Unlock()
		}
		return scheme, nil
	}
	if rs.cfg.Technique != AlternateCombination || len(lost) == 0 {
		return rs.cfg.Layout.Classic(), nil
	}
	lostSet := map[int]bool{}
	for _, id := range lost {
		lostSet[id] = true
	}
	tRec := p.Now()
	held := make([]grid.Level, 0, len(rs.grids))
	lostLvs := ftcomb.NewSet()
	for _, sg := range rs.grids {
		held = append(held, sg.Lv)
		if lostSet[sg.ID] {
			lostLvs[sg.Lv] = true
		}
	}
	scheme, err := ftcomb.RecoverScheme(held, lostLvs)
	if err != nil {
		return nil, fmt.Errorf("core: alternate combination: %w", err)
	}
	if timeIt {
		p.Compute(float64(len(rs.grids)*64) * 1e-7) // coefficient computation cost
		rs.mu.Lock()
		if d := p.Now() - tRec; d > rs.res.DataRecoveryTime {
			rs.res.DataRecoveryTime = d
		}
		rs.mu.Unlock()
	}
	return scheme, nil
}

// combinePhase combines the sub-grid solutions onto the common grid and
// measures the l1 error at rank 0. The default is the paper's parallel
// gather-scatter: each group root accumulates its own coefficient-weighted
// contribution on the target grid and a single elementwise Reduce assembles
// the combined solution. Config.SerialCombine selects the naive
// ship-everything-to-rank-0 variant for the ablation benchmark.
func (rs *runState) combinePhase(p *mpi.Proc, world, gcomm *mpi.Comm, solver pde.Solver, mine SubGrid, lost []int, mc *modeCtx) error {
	sp := rs.cfg.Trace.BeginSpan(p.Now(), traceRank(world, mc), "combine", "")
	defer func() { sp.End(p.Now()) }()
	scheme, err := rs.computeScheme(p, lost, world.Rank() == 0, mc)
	if err != nil {
		return err
	}
	if rs.cfg.SerialCombine {
		return rs.combineSerial(p, world, gcomm, solver, mine, lost, scheme)
	}
	return rs.combineParallel(p, world, gcomm, solver, mine, scheme)
}

// combineParallel is the gather-scatter combination of Section II-A.
func (rs *runState) combineParallel(p *mpi.Proc, world, gcomm *mpi.Comm, solver pde.Solver, mine SubGrid, scheme combine.Scheme) error {
	g, err := solver.Gather(0)
	if err != nil {
		return fmt.Errorf("core: combine gather: %w", err)
	}
	defer g.Free() // pooled; nil below the group root
	coeff := scheme.Coeff(mine.Lv)
	contribute := gcomm.Rank() == 0 && mine.Role != RoleDuplicate && coeff != 0
	color := mpi.Undefined
	if contribute || world.Rank() == 0 {
		color = 0
	}
	roots, err := world.Split(color, mine.ID)
	if err != nil {
		return fmt.Errorf("core: combine split: %w", err)
	}
	if roots == nil {
		return nil
	}

	t0 := p.Now()
	target := grid.Level{I: rs.cfg.Layout.N, J: rs.cfg.Layout.N}
	oneShot := rs.cfg.ComputeScale * float64(rs.cfg.Steps) / nominalSteps
	partial := grid.NewPooled(target)
	if contribute {
		partial.AccumulateSampled(g, coeff)
		p.ComputeCells(target.Points(), oneShot)
	}
	total, err := mpi.ReduceSum(roots, 0, partial.V)
	partial.Free()
	if err != nil {
		return fmt.Errorf("core: combine reduce: %w", err)
	}
	if roots.Rank() != 0 {
		return nil
	}
	comb, err := grid.FromValues(target, total)
	if err != nil {
		return err
	}
	rs.recordCombined(p, comb, t0)
	mpi.ReleaseBuf(total) // Reduce's root result is a pooled transport buffer
	return nil
}

// combineSerial ships every sub-grid to rank 0, which combines alone.
func (rs *runState) combineSerial(p *mpi.Proc, world, gcomm *mpi.Comm, solver pde.Solver, mine SubGrid, lost []int, scheme combine.Scheme) error {
	g, err := solver.Gather(0)
	if err != nil {
		return fmt.Errorf("core: combine gather: %w", err)
	}
	if gcomm.Rank() == 0 && mine.ID != 0 {
		// The gathered grid is dead after this send: transfer the buffer to
		// the transport instead of having it copied.
		if err := mpi.SendOwned(world, 0, tagCombineBase+mine.ID, g.V); err != nil {
			return fmt.Errorf("core: combine send: %w", err)
		}
		g = nil
	}
	if world.Rank() != 0 {
		return nil
	}

	t0 := p.Now()
	lostSet := map[int]bool{}
	for _, id := range lost {
		lostSet[id] = true
	}
	solutions := make(map[grid.Level]*grid.Grid)
	for _, sg := range rs.grids {
		var vals []float64
		owned := false // vals came from the transport and must be released
		if sg.ID == 0 {
			vals = g.V
		} else {
			var err error
			vals, _, err = mpi.Recv[float64](world, sg.FirstRank, tagCombineBase+sg.ID)
			if err != nil {
				return fmt.Errorf("core: combine recv grid %d: %w", sg.ID, err)
			}
			owned = true
		}
		skip := sg.Role == RoleDuplicate ||
			// Duplicates exist purely as a backup of the diagonal grids; the
			// combination uses the (possibly recovered) primaries. Under AC
			// the lost grids hold no usable data; the recovered scheme avoids
			// their levels.
			(rs.cfg.Technique == AlternateCombination && lostSet[sg.ID])
		if !skip {
			gg := grid.NewPooled(sg.Lv)
			copy(gg.V, vals)
			solutions[sg.Lv] = gg
		}
		if owned {
			mpi.ReleaseBuf(vals)
		}
	}
	g.Free() // rank 0's own gathered grid, pooled

	target := grid.Level{I: rs.cfg.Layout.N, J: rs.cfg.Layout.N}
	comb := grid.NewPooled(target)
	err = combine.EvaluateInto(comb, scheme, solutions)
	for _, gg := range solutions {
		gg.Free()
	}
	if err != nil {
		comb.Free()
		return fmt.Errorf("core: combine: %w", err)
	}
	oneShot := rs.cfg.ComputeScale * float64(rs.cfg.Steps) / nominalSteps
	p.ComputeCells(target.Points()*len(scheme), oneShot)
	rs.recordCombined(p, comb, t0)
	comb.Free()
	return nil
}

// recordCombined measures the combined solution's error and stores the
// combine-phase metrics (rank 0 only).
func (rs *runState) recordCombined(p *mpi.Proc, comb *grid.Grid, t0 float64) {
	finalT := float64(rs.cfg.Steps) * rs.dt
	l1 := rs.prob.L1Error(comb, finalT)
	rs.mu.Lock()
	rs.res.L1Error = l1
	rs.res.CombineTime = p.Now() - t0
	rs.mu.Unlock()
	rs.cfg.Trace.Emit(p.Now(), 0, "combine", "combined solution assembled, l1 error %.4e", l1)
}

// mergeStats folds one rank's recovery statistics into the shared result
// (component times keep the maximum over ranks).
func (rs *runState) mergeStats(st *recovery.Stats, failedList []int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	res := &rs.res
	maxf := func(dst *float64, v float64) {
		if v > *dst {
			*dst = v
		}
	}
	// ListTime is merged with the MINIMUM over ranks: ranks that reach the
	// detection agree early spend virtual time waiting for stragglers (an
	// arrival skew, not an operation cost); the last arriver's window is
	// the pure failure-information time of Fig. 8a.
	if st.ListTime > 0 && (res.ListTime == 0 || st.ListTime < res.ListTime) {
		res.ListTime = st.ListTime
	}
	maxf(&res.ReconstructTime, st.ReconstructTime)
	maxf(&res.ShrinkTime, st.ShrinkTime)
	maxf(&res.SpawnTime, st.SpawnTime)
	maxf(&res.MergeTime, st.MergeTime)
	maxf(&res.AgreeTime, st.AgreeTime)
	maxf(&res.SplitTime, st.SplitTime)
	if len(res.FailedRanks) == 0 && len(failedList) > 0 {
		res.FailedRanks = append([]int(nil), failedList...)
	}
	if len(res.LostGrids) == 0 {
		res.LostGrids = rs.lostGridIDs(failedList)
	}
}

// decompDims picks a balanced 2D process grid for a sub-grid, giving the
// larger factor to the longer grid dimension (and clamping so no dimension
// gets more processes than cells).
func decompDims(nprocs int, lv grid.Level) (px, py int) {
	dims := mpi.DimsCreate(nprocs, 2) // largest first
	nx, ny := 1<<lv.I, 1<<lv.J
	if ny >= nx {
		py, px = dims[0], dims[1]
	} else {
		px, py = dims[0], dims[1]
	}
	// Fall back to a 1D-like split if a dimension is oversubscribed.
	if px > nx || py > ny {
		if ny >= nprocs {
			return 1, nprocs
		}
		return nprocs, 1
	}
	return px, py
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
