package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ftsg/internal/checkpoint"
	"ftsg/internal/combine"
	"ftsg/internal/faultgen"
	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/pde"
	"ftsg/internal/recovery"
	"ftsg/internal/topo"
	"ftsg/internal/trace"
)

const (
	// nominalSteps is the paper's timestep count (2^13); together with
	// computeScale it maps one-shot operations (the combination) onto the
	// nominal problem size.
	nominalSteps = 8192
	// computeScale multiplies the virtual per-cell compute charge, mapping
	// a laptop-sized run onto the paper's nominal problem (n = 13, 2^13
	// steps): it makes N=8/256-step runs charge like the nominal problem.
	computeScale = 32768
	// cfl is the Courant number used to size the shared timestep.
	cfl = 0.8
)

// tagRecoverBase + lost grid ID tags a replication/resampling transfer on
// the world communicator.
const tagRecoverBase = 2000

// runState is the state shared (in-process) by all simulated ranks of one
// run. Result fields are guarded by mu.
type runState struct {
	cfg     Config
	grids   []SubGrid
	prob    *pde.Problem
	dt      float64
	ckPlan  checkpoint.Plan
	store   *checkpoint.Store
	faults  *faultgen.Plan
	cluster *topo.Cluster
	place   recovery.Placement
	reg     *metrics.Registry

	// classic is the layout's classic scheme, shared read-only by the ranks.
	classic combine.Scheme

	// dps are the run's detection points, shared read-only by the ranks.
	dps []int

	// initial is the launched world's recovery-mode state, shared read-only
	// by the ranks: no repair yet, and the grids a simulated-loss run loses
	// at the end (lost, with their recover-data detail), if any.
	initial modeState

	// ranks holds the launched ranks' program states, by world rank: one
	// block per run instead of one allocation per process (newRank).
	ranks []rankState

	mu  sync.Mutex
	res Result
}

// flightSeq numbers automatic flight-recorder dump files within a process.
var flightSeq atomic.Int64

// dumpFlight writes the flight recorder Run attached to an aborted run to a
// post-mortem file in the OS temp directory. Failures to write are reported
// but never mask the abort's cause.
func (rs *runState) dumpFlight() {
	path := filepath.Join(os.TempDir(), fmt.Sprintf("ftsg-flight-%d-%d.trace.json",
		os.Getpid(), flightSeq.Add(1)))
	if err := rs.cfg.Trace.DumpChromeTrace(path); err != nil {
		fmt.Fprintf(os.Stderr, "core: run aborted: flight recorder dump failed: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "core: run aborted: flight recorder dumped to %s\n", path)
}

// Run executes the fault-tolerant application and returns its metrics.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Every run carries a trace recorder: an explicit one from the caller,
	// who writes it out, also when the run fails; or the bounded always-on
	// flight recorder, which Run dumps itself when the run aborts (a rank's
	// error or a watchdog stall), so there is a Perfetto-loadable
	// post-mortem without -trace-out.
	flight := cfg.Trace == nil
	if flight {
		cfg.Trace = trace.NewFlight(0)
	}
	rs := &runState{cfg: cfg, grids: cfg.Grids(), classic: cfg.Layout.Classic()}
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
	rs.dps = rs.detectionPoints()

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
		switch cfg.CheckpointBackend {
		case "", "dir":
			dir, err := os.MkdirTemp("", "ftsg-ckpt-*")
			if err != nil {
				return nil, err
			}
			b, err := checkpoint.OpenDir(dir)
			if err != nil {
				return nil, err
			}
			backend = b
		case "mem":
			backend = checkpoint.NewMem()
		}
		store, err := checkpoint.Open(checkpoint.Options{
			Backend:     cfg.CheckpointFaults.Wrap(backend),
			Generations: cfg.CheckpointGenerations,
			Metrics:     reg,
		})
		if err != nil {
			return nil, err
		}
		rs.store = store
		defer func() { _ = store.Remove() }()
	}

	var err error
	var conflicts [][2]int
	if cfg.Technique == ResamplingCopying {
		conflicts = rcConflicts(rs.grids)
	}
	nprocs := cfg.NumProcs()
	rs.ranks = make([]rankState, nprocs)
	if flight {
		cfg.Trace.Reserve(nprocs)
	}

	// Cluster layout, optionally with an explicit shape (hosts/slots/racks)
	// and spare nodes; placement policy for replacements (same host by
	// default, spare node when available).
	slots, baseHosts, racks := cfg.clusterShape(nprocs)
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
	events := cfg.Faults
	if cfg.RealFailures && cfg.NumFailures > 0 {
		// The paper's shorthand: NumFailures ranks die together halfway.
		events = []faultgen.Event{{Step: max(1, cfg.Steps/2), Failures: cfg.NumFailures}}
	}
	if len(events) > 0 {
		rs.faults, err = faultgen.NewPlan(faultgen.Config{
			Seed:      cfg.Seed,
			NumRanks:  nprocs,
			GridOf:    gridOfID,
			Conflicts: conflicts,
			HostOf: func(rank int) int {
				h, herr := rs.cluster.HostIndexOfRank(rank)
				if herr != nil {
					return -1
				}
				return h
			},
		}, events)
		if err != nil {
			return nil, err
		}
	} else if cfg.NumFailures > 0 {
		// Simulated losses hit the combined solution grids and, for RC,
		// the duplicates (the paper's "loss of 5 out of 10 grids" counts
		// them — and without them the pairwise recovery constraints cap
		// the losses at 3). Grid 0 holds the controlling rank 0 and is
		// protected.
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
		lost, err := faultgen.PickGrids(cfg.Seed, cfg.NumFailures, candidates, conflicts)
		if err != nil {
			return nil, err
		}
		sort.Ints(lost)
		rs.initial.lost = lost
		if len(lost) > 0 {
			rs.initial.detail = rs.recoverDetail(lost)
		}
	}

	rs.res = Result{
		Technique:      cfg.Technique,
		Machine:        cfg.Machine.Name,
		Procs:          nprocs,
		GridCount:      len(rs.grids),
		Steps:          cfg.Steps,
		CheckpointPlan: rs.ckPlan,
		LostGrids:      append([]int(nil), rs.initial.lost...),
		TIOWrite:       cfg.Machine.TIOWrite,
		Mode:           cfg.RecoveryMode.String(),
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
		Watchdog:   cfg.Watchdog,
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
		if flight {
			rs.dumpFlight()
		}
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

func (rs *runState) entry(p *mpi.Proc) { rs.exit(p, rs.rank(p)) }

// exit ends one simulated process's program. Any error but an orphan's
// aborts the job with that error as the cause, which Run returns.
func (rs *runState) exit(p *mpi.Proc, err error) {
	if err == nil || errors.Is(err, recovery.ErrOrphaned) {
		// An orphan is a replacement whose repair round was hit by a further
		// failure and abandoned; the survivors retried with fresh
		// replacements. Exiting cleanly is the whole of its job.
		return
	}
	p.Abort(fmt.Errorf("core: world rank %d: %w", p.WorldRank(), err))
}

// rank is the program every simulated process runs — launched ranks,
// re-spawned replacements and claimed spares alike: the paper's Fig. 3 loop.
// Every step that does not block is a method on rankState (steps.go), shared
// with the event path; what is written here is the control flow around the
// calls that do.
func (rs *runState) rank(p *mpi.Proc) error {
	r, err := rs.newRank(p)
	if err != nil {
		return err
	}
	defer r.release()
	mode := rs.cfg.RecoveryMode

	if r.replacement {
		// Join the survivors at the repair that created this process: attach,
		// hear from rank 0 where they stand, then rebuild and recover
		// alongside them.
		tAttach := r.beginDetect()
		mr := &r.mr
		if err := recovery.ReconstructModeInto(mr, p, nil, p.Parent(), &r.st, rs.place, mode, nil); err != nil {
			return err
		}
		tMerged := p.Now()
		buf, err := mpi.Bcast[int](mr.Comm, 0, nil)
		if err := r.admit(mr, buf, err, tAttach, tMerged); err != nil {
			return err
		}
		if err := r.rejoin(carried{}); err != nil {
			return err
		}
	} else if err := r.build(); err != nil {
		return err
	}

	for _, dp := range rs.dps {
		if dp <= r.cur {
			continue
		}
		// Solve to the detection point.
		iv := r.beginSolve(dp)
		for s := r.cur + 1; s <= dp; s++ {
			r.pollFaults(s)
			if !r.gridLost {
				r.stepped(r.solver.Step())
			}
		}
		r.endSolve(iv, dp)

		// Detect; reconstruct the communicator if a process was lost.
		tRepair := r.beginDetect()
		err := recovery.ReconstructModeInto(&r.mr, p, r.world, nil, &r.st, rs.place, mode, r.mc.st.origOf)
		if err := r.detected(err, tRepair); err != nil {
			return err
		}
		if r.st.ReconstructTime == 0 {
			if err := r.commit(); err != nil {
				return err
			}
			continue
		}
		announce, err := r.repaired(&r.mr)
		if err != nil {
			return err
		}
		buf, err := mpi.Bcast(r.world, 0, announce)
		if err := r.agreed(buf, err); err != nil {
			return err
		}

		// Re-derive what hung off the old communicator and recover the lost
		// sub-grids.
		if err := r.rejoin(r.retire()); err != nil {
			return err
		}
	}

	// Simulated failures (the paper's Figs. 9/10 mode): whole grids are
	// assumed lost at the end, without killing processes.
	if err := r.recoverData(rs.initial.lost, rs.initial.detail); err != nil {
		return err
	}
	r.report()
	return r.combine()
}

// build splits the world by sub-grid and constructs the solver.
func (r *rankState) build() error {
	return r.newSolver(r.world.Split(r.mine.ID, r.rank))
}

// rejoin is the tail of a repair, the same for a survivor and for the
// replacement that joins it: rebuild the group communicator and solver on
// the repaired world, carry over what state is still good, recover the rest.
func (r *rankState) rejoin(old carried) error {
	if err := r.build(); err != nil {
		return err
	}
	if err := r.carryOver(old); err != nil {
		return err
	}
	if err := r.recoverData(r.mc.st.recover, r.mc.st.detail); err != nil {
		return err
	}
	r.recovered()
	return nil
}

// lostGridIDs maps failed ranks onto sub-grid IDs, ascending.
func (rs *runState) lostGridIDs(failedRanks []int) []int {
	var out []int
	for _, r := range failedRanks {
		g, err := gridOfRank(rs.grids, r)
		if err == nil && !slices.Contains(out, g.ID) {
			out = append(out, g.ID)
		}
	}
	slices.Sort(out)
	return out
}

// recoverData restores the data of the lost sub-grids at the current step
// using the configured technique; detail is the lost list's recover-data
// span detail.
func (r *rankState) recoverData(lost []int, detail string) error {
	if len(lost) == 0 {
		return nil
	}
	w := r.beginRecover(detail)
	defer r.endRecover(w)
	switch r.cfg.Technique {
	case CheckpointRestart:
		if !slices.Contains(lost, r.mine.ID) {
			return nil
		}
		return r.recoverCR()
	case ResamplingCopying:
		for _, lg := range lost {
			if err := r.recoverRC(lost, lg); err != nil {
				return err
			}
		}
	}
	// Alternate Combination moves no data: the combination-phase
	// coefficients are recomputed over the survivors (timed there as the
	// recovery cost); lost grids simply do not contribute.
	return nil
}

// recoverCR restores this rank's grid from the newest checkpoint its group
// can agree on (see crBegin) and recomputes up to the current step.
func (r *rankState) recoverCR() error {
	defer r.crEnd()
	restored := false
	for negotiating := r.crBegin(); negotiating && !restored; {
		offer := r.crOffer()
		all, err := mpi.Allgather(r.gcomm, offer)
		mpi.ReleaseBuf(offer)
		step, err := r.crPick(all, err)
		if err != nil {
			return err
		}
		if step == 0 {
			break
		}
		data, vote, err := r.crRead(step)
		if err != nil {
			return err
		}
		allOK, err := mpi.Allreduce(r.gcomm, vote, mpi.MinOp)
		if restored, err = r.crSettle(step, data, allOK, err); err != nil {
			return err
		}
	}
	if !restored {
		if err := r.crRestart(); err != nil {
			return err
		}
	}
	return crRecomputed(r.solver.Run(r.cur - r.solver.StepCount))
}

// recoverRC recovers lost grid lg from its partner: the partner's root
// gathers and ships its solution to the lost grid's root, which broadcasts
// it to its group.
func (r *rankState) recoverRC(lost []int, lg int) error {
	rt, err := r.rcRouteOf(lost, lg)
	if err != nil {
		return err
	}
	if r.mine.ID == rt.src.ID {
		g, err := r.solver.Gather(0)
		if err := r.rcSend(rt, g, err); err != nil {
			return err
		}
	}
	if r.mine.ID != lg {
		return nil
	}
	var vals []float64
	if r.gcomm.Rank() == 0 {
		if vals, _, err = mpi.Recv[float64](r.world, rt.srcRoot, rt.tag()); err != nil {
			return err
		}
	}
	vals, err = mpi.Bcast(r.gcomm, 0, vals)
	return r.rcInstall(rt, vals, err)
}

// combine combines the sub-grid solutions onto the common grid and measures
// the l1 error at rank 0 (see contribution).
func (r *rankState) combine() error {
	sp := r.beginCombine()
	defer func() { sp.End(r.p.Now()) }()
	scheme, err := r.scheme()
	if err != nil {
		return err
	}
	g, err := r.solver.Gather(0)
	c, err := r.contributionOf(scheme, g, err)
	if err != nil {
		return err
	}
	roots, err := r.world.Split(c.color, r.mine.ID)
	summand, err := r.accumulate(&c, roots, err)
	if summand == nil {
		return err
	}
	total, err := mpi.Reduce(roots, 0, summand, mpi.Sum[float64])
	return r.combined(&c, total, err)
}

// mergeStats folds one rank's recovery statistics into the shared result
// (component times keep the maximum over ranks).
func (rs *runState) mergeStats(st *recovery.Stats) {
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
}
