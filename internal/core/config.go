// Package core implements the paper's application: a 2D advection solver
// parallelised with the sparse grid combination technique that survives
// real process failures via the ULFM recovery protocol, with three
// selectable data-recovery techniques — Checkpoint/Restart, Resampling and
// Copying, and Alternate Combination.
package core

import (
	"fmt"
	"math"
	"strings"

	"ftsg/internal/checkpoint"
	"ftsg/internal/combine"
	"ftsg/internal/faultgen"
	"ftsg/internal/grid"
	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/pde"
	"ftsg/internal/recovery"
	"ftsg/internal/trace"
	"ftsg/internal/vtime"
)

// Technique selects the data-recovery method for lost sub-grid data.
type Technique int

const (
	// CheckpointRestart (CR) writes periodic disk checkpoints and, after a
	// failure, restarts the lost grid from the last checkpoint and
	// recomputes.
	CheckpointRestart Technique = iota
	// ResamplingCopying (RC) duplicates every diagonal sub-grid; a lost
	// diagonal grid (or duplicate) is copied from its twin and a lost
	// lower-diagonal grid is resampled from the finer diagonal grid above
	// it.
	ResamplingCopying
	// AlternateCombination (AC) holds two extra layers of coarser
	// sub-grids and, on loss, derives new combination coefficients over
	// the survivors.
	AlternateCombination
)

func (t Technique) String() string {
	switch t {
	case CheckpointRestart:
		return "CR"
	case ResamplingCopying:
		return "RC"
	case AlternateCombination:
		return "AC"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// ParseTechnique parses a technique name as String spells it, ignoring case
// and surrounding space.
func ParseTechnique(s string) (Technique, error) {
	for t := CheckpointRestart; t <= AlternateCombination; t++ {
		if strings.EqualFold(strings.TrimSpace(s), t.String()) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("core: unknown technique %q (want CR, RC or AC)", s)
}

// GridRole classifies a sub-grid within the layout of the paper's Fig. 1.
type GridRole int

const (
	RoleDiagonal GridRole = iota
	RoleLowerDiagonal
	RoleDuplicate
	RoleExtraLayer1
	RoleExtraLayer2
)

func (r GridRole) String() string {
	switch r {
	case RoleDiagonal:
		return "diagonal"
	case RoleLowerDiagonal:
		return "lower-diagonal"
	case RoleDuplicate:
		return "duplicate"
	case RoleExtraLayer1:
		return "extra-layer-1"
	case RoleExtraLayer2:
		return "extra-layer-2"
	default:
		return fmt.Sprintf("GridRole(%d)", int(r))
	}
}

// SubGrid is one sub-grid of the application with its process group.
type SubGrid struct {
	ID        int
	Lv        grid.Level
	Role      GridRole
	Procs     int
	FirstRank int
}

// has reports whether the (original) rank belongs to the grid's group.
func (g SubGrid) has(rank int) bool { return rank >= g.FirstRank && rank < g.FirstRank+g.Procs }

// Config describes one run of the fault-tolerant application.
type Config struct {
	// Layout fixes the combination geometry (full grid exponent N, level L).
	Layout combine.Layout
	// Technique selects the data-recovery method.
	Technique Technique
	// Machine selects the cost-model profile (nil = OPL).
	Machine *vtime.Machine
	// DiagProcs is the process count of each diagonal (and duplicate)
	// sub-grid; lower-diagonal grids get half, extra layers a quarter and
	// an eighth (floored at 1). The paper's Fig. 8/11 core counts
	// {19, 38, 76, 152, 304} correspond to DiagProcs {2, 4, 8, 16, 32}
	// with the RC grid set.
	DiagProcs int
	// Steps is the number of solver timesteps.
	Steps int
	// Velocity is the advection velocity (ax, ay).
	Velocity [2]float64
	// NumFailures processes are aborted together at FailStep
	// (RealFailures), or NumFailures whole grids are marked lost at the
	// end (simulated failures, the mode of the paper's Figs. 9 and 10).
	NumFailures int
	FailStep    int
	// RealFailures selects real process kills plus communicator
	// reconstruction; false selects the simulated-loss mode.
	RealFailures bool
	// RecoveryMode selects how a broken communicator is repaired: spawn
	// (the paper's protocol — re-spawn to full size; the default), shrink
	// (continue with fewer ranks, redistributing the dead sub-grids through
	// the hole-tolerant combination coefficients), substitute (restore full
	// size from SpareRanks pre-allocated spare processes), or norepair
	// (shrink the communicator but recover no data — the degraded
	// baseline). Non-spawn modes require RealFailures when failures are
	// configured; the simulated-loss mode of Figs. 9/10 is spawn-only.
	RecoveryMode recovery.Mode
	// SpareRanks is the size of the pre-allocated spare-process pool of the
	// substitute mode (0 under substitute defaults to 8; ignored by the
	// other modes). The spares are parked on the spare hosts at startup and
	// consumed by repairs; when exhausted, repairs fall back to shrink.
	SpareRanks int
	// Seed drives victim selection.
	Seed int64
	// FailSchedule injects several failure events at increasing steps,
	// generalising the single NumFailures/FailStep event. Requires
	// RealFailures; each event draws fresh victims under the same
	// constraints (rank 0 protected, RC pairs not hit simultaneously).
	FailSchedule []faultgen.Event
	// NodeFailure, with RealFailures, kills every process of one randomly
	// chosen host at FailStep instead of NumFailures individual processes
	// — the node-failure scenario of the paper's future work. Requires
	// SpareNodes >= 1 so the replacements have somewhere to go.
	NodeFailure bool
	// OpFailures kills additional victims at MPI-operation granularity:
	// victim i dies at the entry of its AfterOps-th operation (inside a
	// barrier, halo exchange, gather, ...), or — with DuringRecovery — at
	// the AfterOps-th operation counted from its shrink call, landing the
	// death inside an in-progress repair. Victims are drawn from Seed
	// (decorrelated from the step-schedule victims, which are excluded) and
	// honour the same constraints (rank 0 protected, RC conflict pairs
	// avoided jointly with the step plan's victims). Requires RealFailures.
	OpFailures []faultgen.OpEvent
	// Watchdog, when enabled (Timeout > 0), monitors transport progress
	// during the run and aborts a stalled one instead of hanging: Run
	// returns an *mpi.StallError carrying every rank's blocked-operation
	// state, after dumping the flight recorder (see mpi.Watchdog).
	Watchdog mpi.Watchdog
	// SpareNodes appends empty hosts to the cluster; when present,
	// replacements are spawned onto the first spare instead of the failed
	// processes' original hosts.
	SpareNodes int
	// Hosts fixes the number of base cluster hosts (spares come on top).
	// 0 derives the smallest host count that fits the process count at
	// SlotsPerHost slots each. Together with SlotsPerHost and Racks this
	// pins the cluster shape the topology-aware collectives see.
	Hosts int
	// SlotsPerHost overrides the machine profile's slots-per-host (0 =
	// use the profile's value).
	SlotsPerHost int
	// Racks spreads the hosts (including spares) over this many racks in
	// contiguous balanced blocks; 0 or 1 keeps the single-rack layout.
	// Cross-rack links charge the machine's TierXRack cost.
	Racks int
	// ExtraLayers is the number of extra coarse layers the Alternate
	// Combination technique holds (0 = the paper's default of 2; -1 = no
	// extra layers; more layers tolerate deeper loss cascades at the cost
	// of extra processes).
	ExtraLayers int
	// Trace, when non-nil, records a virtual-time event timeline of the
	// run (detection, repair, recovery, checkpoints, combination), with
	// spans for every protocol phase exportable as a Chrome/Perfetto trace,
	// and the failure-handling journal (fault injections, detections,
	// repair phases, checkpoint commit/fallback/restore) as notes that
	// render as JSONL. The caller owns it and writes it out, also when Run
	// fails. When Trace is nil, Run attaches a bounded flight recorder and,
	// if the run aborts (a rank's error or a watchdog stall), dumps it to an
	// ftsg-flight-*.trace.json file in the OS temp directory.
	Trace *trace.Recorder
	// Metrics, when non-nil, instruments the run: MPI message/byte
	// counters, per-op latency histograms, and modelled cost attribution
	// (see internal/mpi and internal/metrics). Several runs may share one
	// registry to aggregate. nil disables instrumentation at zero cost.
	Metrics *metrics.Registry
	// Telemetry, when true and Metrics is nil, attaches a private per-run
	// registry so the Result's telemetry fields (MPI messages/bytes,
	// checkpoint I/O bytes) are populated — the harness uses this to add
	// deterministic per-cell telemetry columns.
	Telemetry bool
	// Introspect, when non-nil, registers the run's MPI world for the
	// duration of the job so the telemetry server's /debug/ranks endpoint
	// can take on-demand per-rank blocked-op snapshots.
	Introspect *mpi.Introspection
	// CheckpointBackend selects the storage backend for CR checkpoints:
	// "dir" (the default — real files under a fresh temporary directory,
	// removed after the run) or "mem" (in-process, no real disk I/O; the simulated
	// T_I/O accounting is identical, so results are byte-identical — the
	// harness uses it for its thousands of short runs).
	CheckpointBackend string
	// CheckpointGenerations is how many checkpoint generations the store
	// keeps per (grid, rank); recovery falls back generation-by-generation
	// past corrupt or torn checkpoints (0 = checkpoint.DefaultGenerations).
	CheckpointGenerations int
	// CheckpointFaults, when non-nil, wraps the checkpoint backend with
	// seeded fault injection (corrupt reads, torn writes, I/O errors) —
	// the chaos campaign's checkpoint-corruption mode.
	CheckpointFaults *checkpoint.FaultPlan
	// MTBF overrides the mean time between failures used to size the
	// checkpoint interval (0 = half the estimated run time, the paper's
	// setup).
	MTBF float64
	// Event runs the simulated ranks on the event-driven transport path
	// (mpi.Options.EventEntry): each rank is a parked continuation driven by
	// a bounded worker pool instead of a dedicated goroutine, so wall-clock
	// memory stays O(workers) at any rank count. Results — virtual times,
	// traces, journals, metrics, the full Result — are byte-identical to the
	// goroutine path.
	Event bool
	// EventWorkers bounds the event path's executor pool (0 = NumCPU).
	// Ignored unless Event is set.
	EventWorkers int
}

// WithDefaults returns the configuration with zero fields filled in; Run
// applies it automatically.
func (c Config) WithDefaults() Config {
	if c.Layout.N == 0 {
		c.Layout = combine.Layout{N: 8, L: 4}
	}
	if c.Machine == nil {
		c.Machine = vtime.OPL()
	}
	if c.DiagProcs == 0 {
		c.DiagProcs = 8
	}
	if c.Steps == 0 {
		c.Steps = 256
	}
	if c.Velocity == [2]float64{} {
		c.Velocity = [2]float64{1, 0.5}
	}
	if c.FailStep == 0 {
		c.FailStep = c.Steps / 2
	}
	switch {
	case c.ExtraLayers == 0:
		c.ExtraLayers = 2
	case c.ExtraLayers < 0:
		c.ExtraLayers = -1 // normalised "none"
	}
	if c.RecoveryMode == recovery.ModeSubstitute {
		if c.SpareRanks == 0 {
			c.SpareRanks = 8
		}
		if c.SpareNodes == 0 {
			c.SpareNodes = 1
		}
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	if c.Technique < CheckpointRestart || c.Technique > AlternateCombination {
		return fmt.Errorf("core: unknown technique %v", c.Technique)
	}
	if c.DiagProcs < 1 {
		return fmt.Errorf("core: DiagProcs must be >= 1")
	}
	if c.DiagProcs > 1<<(c.Layout.N-c.Layout.L+1) {
		return fmt.Errorf("core: DiagProcs %d exceeds the rows of the coarsest grid", c.DiagProcs)
	}
	if c.Steps < 1 {
		return fmt.Errorf("core: Steps must be >= 1")
	}
	if c.FailStep < 0 || c.FailStep > c.Steps {
		return fmt.Errorf("core: FailStep %d outside [0, %d]", c.FailStep, c.Steps)
	}
	if c.NodeFailure {
		if !c.RealFailures {
			return fmt.Errorf("core: NodeFailure requires RealFailures")
		}
		if c.SpareNodes < 1 {
			return fmt.Errorf("core: NodeFailure requires at least one spare node")
		}
		if c.Technique == ResamplingCopying {
			return fmt.Errorf("core: NodeFailure can violate RC's pairwise recovery constraint; use CR or AC")
		}
	}
	if c.SpareNodes < 0 {
		return fmt.Errorf("core: SpareNodes must be >= 0")
	}
	if c.Hosts < 0 || c.SlotsPerHost < 0 || c.Racks < 0 {
		return fmt.Errorf("core: Hosts, SlotsPerHost and Racks must be >= 0")
	}
	if c.Hosts > 0 || c.Racks > 1 { // the derived single-rack shape always fits
		nprocs := c.NumProcs()
		slots, hosts, racks := c.clusterShape(nprocs)
		if slots > 0 && hosts*slots < nprocs {
			return fmt.Errorf("core: %d hosts x %d slots cannot hold %d processes", hosts, slots, nprocs)
		}
		if hosts > 0 && racks > hosts+c.SpareNodes {
			return fmt.Errorf("core: Racks %d exceeds %d hosts", racks, hosts+c.SpareNodes)
		}
	}
	if c.ExtraLayers < -1 || c.ExtraLayers > c.Layout.L-2 {
		return fmt.Errorf("core: ExtraLayers %d outside [-1, %d]", c.ExtraLayers, c.Layout.L-2)
	}
	if len(c.OpFailures) > 0 {
		if !c.RealFailures {
			return fmt.Errorf("core: OpFailures requires RealFailures")
		}
		for i, e := range c.OpFailures {
			if e.AfterOps < 1 {
				return fmt.Errorf("core: OpFailures event %d: AfterOps must be >= 1", i)
			}
		}
	}
	switch c.CheckpointBackend {
	case "", "dir", "mem":
	default:
		return fmt.Errorf("core: unknown checkpoint backend %q (want dir or mem)", c.CheckpointBackend)
	}
	if c.CheckpointGenerations < 0 {
		return fmt.Errorf("core: CheckpointGenerations must be >= 0")
	}
	if fp := c.CheckpointFaults; fp != nil {
		for _, pr := range []struct {
			name string
			v    float64
		}{
			{"ReadCorrupt", fp.ReadCorrupt}, {"ReadErr", fp.ReadErr},
			{"WriteShort", fp.WriteShort}, {"WriteErr", fp.WriteErr},
		} {
			if pr.v < 0 || pr.v > 1 {
				return fmt.Errorf("core: CheckpointFaults.%s = %g outside [0, 1]", pr.name, pr.v)
			}
		}
	}
	if c.RecoveryMode != recovery.ModeSpawn {
		if c.NumFailures > 0 && !c.RealFailures {
			return fmt.Errorf("core: recovery mode %v requires RealFailures (simulated losses are spawn-only)", c.RecoveryMode)
		}
	}
	if c.SpareRanks < 0 {
		return fmt.Errorf("core: SpareRanks must be >= 0")
	}
	if c.SpareRanks > 0 && c.RecoveryMode != recovery.ModeSubstitute {
		return fmt.Errorf("core: SpareRanks requires the substitute recovery mode")
	}
	if c.Event {
		if c.EventWorkers < 0 {
			return fmt.Errorf("core: EventWorkers must be >= 0")
		}
	}
	if len(c.FailSchedule) > 0 {
		if !c.RealFailures {
			return fmt.Errorf("core: FailSchedule requires RealFailures")
		}
		if c.NodeFailure {
			return fmt.Errorf("core: FailSchedule and NodeFailure are mutually exclusive")
		}
		for i, e := range c.FailSchedule {
			if e.Step < 1 || e.Step > c.Steps {
				return fmt.Errorf("core: FailSchedule event %d at step %d outside [1, %d]", i, e.Step, c.Steps)
			}
			if e.Failures < 1 {
				return fmt.Errorf("core: FailSchedule event %d has %d failures", i, e.Failures)
			}
		}
	}
	return nil
}

// Grids returns the sub-grid set of the configured technique with process
// counts and the contiguous rank assignment. CR holds the 7 main grids
// (l = 4), RC adds the duplicates (11 grids) and AC the two extra layers
// (10 grids); see Fig. 1.
func (c Config) Grids() []SubGrid {
	ly := c.Layout
	procsOf := func(role GridRole) int {
		switch role {
		case RoleDiagonal, RoleDuplicate:
			return c.DiagProcs
		case RoleLowerDiagonal:
			return max(1, c.DiagProcs/2)
		case RoleExtraLayer1:
			return max(1, c.DiagProcs/4)
		default:
			return max(1, c.DiagProcs/8)
		}
	}
	var grids []SubGrid
	add := func(lv grid.Level, role GridRole) {
		grids = append(grids, SubGrid{ID: len(grids), Lv: lv, Role: role, Procs: procsOf(role)})
	}
	for _, lv := range ly.Diagonal() {
		add(lv, RoleDiagonal)
	}
	for _, lv := range ly.LowerDiagonal() {
		add(lv, RoleLowerDiagonal)
	}
	switch c.Technique {
	case ResamplingCopying:
		for _, lv := range ly.Diagonal() {
			add(lv, RoleDuplicate)
		}
	case AlternateCombination:
		layers := c.ExtraLayers
		if layers == 0 {
			layers = 2
		}
		if layers < 0 {
			layers = 0
		}
		for d := 2; d < 2+layers; d++ {
			role := RoleExtraLayer1
			if d > 2 {
				role = RoleExtraLayer2
			}
			for _, lv := range ly.Row(d) {
				add(lv, role)
			}
		}
	}
	rank := 0
	for i := range grids {
		grids[i].FirstRank = rank
		rank += grids[i].Procs
	}
	return grids
}

// NumProcs returns the total process count of the configuration.
func (c Config) NumProcs() int {
	n := 0
	for _, g := range c.Grids() {
		n += g.Procs
	}
	return n
}

// clusterShape derives the cluster layout nprocs ranks are placed on: slots
// per host (the machine profile's unless overridden), base hosts (the
// smallest count that fits the ranks unless fixed; spare nodes come on top)
// and racks (at least one). Without a machine profile or an override there
// are no slots to count, and hosts is just Config.Hosts.
func (c Config) clusterShape(nprocs int) (slots, hosts, racks int) {
	slots = c.SlotsPerHost
	if slots == 0 && c.Machine != nil {
		slots = c.Machine.SlotsPerHost
	}
	hosts = c.Hosts
	if hosts == 0 && slots > 0 {
		hosts = (nprocs + slots - 1) / slots
	}
	return slots, hosts, max(c.Racks, 1)
}

// gridOfRank returns the sub-grid owning the given rank.
func gridOfRank(grids []SubGrid, rank int) (SubGrid, error) {
	for _, g := range grids {
		if g.has(rank) {
			return g, nil
		}
	}
	return SubGrid{}, fmt.Errorf("core: rank %d outside all process groups", rank)
}

// recoveryPartner returns, for a lost grid, the grid it recovers from under
// Resampling and Copying, and whether restriction (resampling) is needed.
// Diagonal grid d pairs with duplicate d and vice versa (exact copy); lower
// grid m recovers by resampling the diagonal grid m+1 above it.
func recoveryPartner(grids []SubGrid, lost SubGrid) (SubGrid, bool, error) {
	l := 0
	for _, g := range grids {
		if g.Role == RoleDiagonal {
			l++
		}
	}
	switch lost.Role {
	case RoleDiagonal:
		return grids[2*l-1+lost.ID], false, nil
	case RoleDuplicate:
		return grids[lost.ID-(2*l-1)], false, nil
	case RoleLowerDiagonal:
		m := lost.ID - l
		return grids[m+1], true, nil
	default:
		return SubGrid{}, false, fmt.Errorf("core: no recovery partner for %v grid %d", lost.Role, lost.ID)
	}
}

// rcConflicts lists the grid pairs that must not fail simultaneously under
// Resampling and Copying (the constraint of Section III).
func rcConflicts(grids []SubGrid) [][2]int {
	var out [][2]int
	for _, g := range grids {
		if g.Role == RoleDiagonal || g.Role == RoleLowerDiagonal {
			p, _, err := recoveryPartner(grids, g)
			if err == nil {
				out = append(out, [2]int{g.ID, p.ID})
			}
		}
	}
	return out
}

// Problem returns the advection problem and shared timestep of the config.
func (c Config) Problem() (*pde.Problem, float64) {
	prob := &pde.Problem{Ax: c.Velocity[0], Ay: c.Velocity[1], U0: pde.SinProduct, U0X: pde.Sin2Pi, U0Y: pde.Sin2Pi}
	h := math.Pow(2, -float64(c.Layout.N))
	return prob, pde.StableDt(h, h, prob.Ax, prob.Ay, cfl)
}

// EstimateStepTime returns the virtual time of one solver step for one
// process (every grid has the same cells-per-process by construction).
func (c Config) EstimateStepTime() float64 {
	diagCells := float64(int64(1) << uint(2*c.Layout.N-c.Layout.L+1))
	return diagCells / float64(c.DiagProcs) * c.Machine.CellCost * computeScale
}
