package chaos

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"ftsg/internal/core"
	"ftsg/internal/ftcomb"
	"ftsg/internal/harness"
	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
	"ftsg/internal/trace"
)

// DefaultStallTimeout is how long a run may make zero transport progress
// before the deadlock watchdog fires. It must be generous: a heavily
// oversubscribed campaign legitimately starves individual runs.
const DefaultStallTimeout = 60 * time.Second

// Techniques is the full set a campaign exercises per seed.
var Techniques = []core.Technique{
	core.CheckpointRestart,
	core.ResamplingCopying,
	core.AlternateCombination,
}

// Fingerprint captures everything a replay must reproduce byte-for-byte:
// the virtual clock, the solution error (both as exact bit patterns), the
// metrics summary and the Chrome-trace export.
type Fingerprint struct {
	TotalTime uint64 // math.Float64bits of the virtual end-to-end time
	L1        uint64 // math.Float64bits of the combined-solution L1 error
	Metrics   string // metrics registry summary
	Trace     string // Chrome trace_event export
}

// Outcome is the result of checking one (seed, technique) cell.
type Outcome struct {
	Seed      int64
	Technique core.Technique
	Recovery  recovery.Mode
	Scenario  Scenario
	// Spawned/L1/TotalTime describe the chaos run; ControlL1 the
	// failure-free twin.
	Spawned    int
	L1         float64
	ControlL1  float64
	TotalTime  float64
	Violations []string
	// TraceJSON is the chaos run's Chrome trace_event export — or, when a
	// run failed, the failed run's — kept only when the cell violated an
	// invariant under Sweep's KeepTrace option: every failed cell leaves a
	// Perfetto-loadable post-mortem.
	TraceJSON string
}

// ReproCommand returns the one-liner that replays exactly one cell: seed,
// technique, forced scenario mode (0 draws from the seed) and forced recovery
// mode.
func ReproCommand(seed int64, tech core.Technique, mode byte, rmode recovery.Mode) string {
	cmd := fmt.Sprintf("go test ./internal/chaos -run TestChaos -chaos.seed=%d -chaos.technique=%s", seed, tech)
	if mode != 0 {
		cmd += fmt.Sprintf(" -chaos.mode=%c", mode)
	}
	if rmode != recovery.ModeSpawn {
		cmd += fmt.Sprintf(" -chaos.recovery=%s", rmode)
	}
	return cmd
}

// ParseMode maps a flag value to a scenario mode: "" means "draw from the
// seed" (0), otherwise a single letter A..F.
func ParseMode(s string) (byte, error) {
	s = strings.ToUpper(strings.TrimSpace(s))
	if s == "" {
		return 0, nil
	}
	if len(s) == 1 {
		switch m := s[0]; m {
		case ModeMultiEvent, ModeNodeFailure, ModeOpKill,
			ModeKillDuringRecovery, ModeControl, ModeCkptCorrupt:
			return m, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown scenario mode %q (want A..F)", s)
}

// ParseTechniques maps a flag value ("all", or a comma list of CR, RC, AC)
// to techniques.
func ParseTechniques(s string) ([]core.Technique, error) {
	if strings.EqualFold(strings.TrimSpace(s), "all") || strings.TrimSpace(s) == "" {
		return Techniques, nil
	}
	var out []core.Technique
	for _, part := range strings.Split(s, ",") {
		t, err := core.ParseTechnique(part)
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		out = append(out, t)
	}
	return out, nil
}

type runOut struct {
	res *core.Result
	fp  Fingerprint
	reg *metrics.Registry
}

// runOnce executes one configuration with full instrumentation attached and
// returns its result plus replay fingerprint. A deadlock trips the watchdog,
// which aborts the run: the error carries every rank's blocked operation, so
// a stalled run fails its cell instead of hanging the campaign. A failed
// run still returns its trace, the cell's post-mortem.
func runOnce(cfg core.Config, stallTimeout time.Duration) (runOut, error) {
	if stallTimeout <= 0 {
		stallTimeout = DefaultStallTimeout
	}
	reg := metrics.New()
	rec := trace.New()
	cfg.Metrics = reg
	cfg.Trace = rec
	cfg.Watchdog = mpi.Watchdog{Timeout: stallTimeout}
	res, err := core.Run(cfg)
	var tb bytes.Buffer
	if xerr := rec.ExportChromeTrace(&tb); xerr != nil && err == nil {
		err = fmt.Errorf("trace export: %w", xerr)
	}
	if err != nil {
		return runOut{fp: Fingerprint{Trace: tb.String()}}, err
	}
	var mb bytes.Buffer
	reg.WriteSummary(&mb)
	return runOut{
		res: res,
		reg: reg,
		fp: Fingerprint{
			TotalTime: math.Float64bits(res.TotalTime),
			L1:        math.Float64bits(res.L1Error),
			Metrics:   mb.String(),
			Trace:     tb.String(),
		},
	}, nil
}

// FingerprintOf runs the chaos configuration of one (seed, technique) cell
// once and returns its replay fingerprint.
func FingerprintOf(seed int64, tech core.Technique, stallTimeout time.Duration) (Fingerprint, error) {
	sc := NewScenario(seed)
	out, err := runOnce(sc.ConfigFor(tech), stallTimeout)
	if err != nil {
		return Fingerprint{}, err
	}
	return out.fp, nil
}

// cellOut is one cell's outcome plus its merged instrumentation: the
// control, chaos and replay registries folded into one in that fixed order,
// so a campaign aggregate is independent of worker scheduling.
type cellOut struct {
	o   Outcome
	reg *metrics.Registry
}

func checkMode(seed int64, tech core.Technique, mode byte, rmode recovery.Mode, scale func(core.Config) core.Config, stallTimeout time.Duration, keepTrace bool) cellOut {
	sc := NewScenarioMode(seed, mode)
	o := Outcome{Seed: seed, Technique: tech, Recovery: rmode, Scenario: sc}
	violate := func(format string, args ...any) {
		o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
	}
	if scale == nil {
		scale = func(cfg core.Config) core.Config { return cfg }
	}

	cell := metrics.New()
	fold := func(r runOut) { cell.Merge(r.reg) }
	// finish keeps r's trace as the post-mortem of a violated cell: the
	// chaos run's, or the run that failed.
	finish := func(r runOut) cellOut {
		if keepTrace && len(o.Violations) > 0 {
			o.TraceJSON = r.fp.Trace
		}
		return cellOut{o: o, reg: cell}
	}

	ctl, err := runOnce(scale(sc.Control(tech)), stallTimeout)
	if err != nil {
		violate("control run failed: %v", err)
		return finish(ctl)
	}
	fold(ctl)
	o.ControlL1 = ctl.res.L1Error

	run1, err := runOnce(scale(sc.ConfigForRecovery(tech, rmode)), stallTimeout)
	if err != nil {
		violate("chaos run failed: %v", err)
		return finish(run1)
	}
	fold(run1)
	run2, err := runOnce(scale(sc.ConfigForRecovery(tech, rmode)), stallTimeout)
	if err != nil {
		violate("replay run failed: %v", err)
		return finish(run2)
	}
	fold(run2)

	res := run1.res
	o.Spawned = res.Spawned
	o.L1 = res.L1Error
	o.TotalTime = res.TotalTime

	// Invariant: same seed, byte-identical run. The virtual clock, the
	// solution, the metrics counters and the trace timeline must all match.
	if run1.fp.TotalTime != run2.fp.TotalTime {
		violate("replay diverged: virtual time %v vs %v",
			math.Float64frombits(run1.fp.TotalTime), math.Float64frombits(run2.fp.TotalTime))
	}
	if run1.fp.L1 != run2.fp.L1 {
		violate("replay diverged: l1 error %v vs %v",
			math.Float64frombits(run1.fp.L1), math.Float64frombits(run2.fp.L1))
	}
	if run1.fp.Metrics != run2.fp.Metrics {
		violate("replay diverged: metrics summaries differ")
	}
	if run1.fp.Trace != run2.fp.Trace {
		violate("replay diverged: trace exports differ")
	}

	// Invariant: the failure report is sane. Rank 0 is never a victim (the
	// generators protect it), every replacement corresponds to a reported
	// failure, and every scheduled death is accounted for in the mode's own
	// currency — a spawned replacement under spawn, a failed original rank
	// under shrink/no-repair (no replacement, so a rank dies at most once
	// and the union matches the schedule), at least one reported failure
	// under substitute (a substituted position can be re-killed, collapsing
	// the union).
	for _, r := range res.FailedRanks {
		if r == 0 {
			violate("rank 0 reported as failed: %v", res.FailedRanks)
		}
		if r < 0 || r >= res.Procs {
			violate("failed rank %d out of range [0,%d)", r, res.Procs)
		}
	}
	if res.Spawned > 0 && len(res.FailedRanks) == 0 {
		violate("spawned %d replacements but reported no failed ranks", res.Spawned)
	}
	min := sc.MinSpawned(tech, rmode)
	switch rmode {
	case recovery.ModeSpawn:
		if res.Spawned < min {
			violate("spawned %d replacements, scenario schedules at least %d deaths", res.Spawned, min)
		}
	case recovery.ModeSubstitute:
		if res.Spawned != 0 {
			violate("spawned %d replacements under substitute", res.Spawned)
		}
		if min > 0 && len(res.FailedRanks) == 0 {
			violate("scenario schedules at least %d deaths, none reported", min)
		}
		if res.RepairFallbacks != 0 {
			violate("substitute fell back to shrink %d times with a %d-spare pool",
				res.RepairFallbacks, SubstituteSpares)
		}
		if res.FinalProcs != res.Procs {
			violate("substitute final size %d, want restored %d", res.FinalProcs, res.Procs)
		}
		if res.SparesUsed < len(res.FailedRanks) {
			violate("substitute consumed %d spares for %d failures", res.SparesUsed, len(res.FailedRanks))
		}
	default: // shrink, no-repair
		if res.Spawned != 0 || res.SparesUsed != 0 {
			violate("%s run replaced processes: spawned %d, spares %d", rmode, res.Spawned, res.SparesUsed)
		}
		if len(res.FailedRanks) < min {
			violate("reported %d failed ranks, scenario schedules at least %d deaths", len(res.FailedRanks), min)
		}
		if res.FinalProcs != res.Procs-len(res.FailedRanks) {
			violate("%s final size %d, want %d minus %d failed", rmode, res.FinalProcs, res.Procs, len(res.FailedRanks))
		}
		// Nothing is replaced, so every death must have been detected and
		// shrunk out: an unreported one is a dead member of the final
		// communicator.
		if res.Deaths != len(res.FailedRanks) {
			violate("%s: %d processes died but %d failed ranks reported", rmode, res.Deaths, len(res.FailedRanks))
		}
		if len(res.Survivors) != res.FinalProcs {
			violate("%s reports %d survivors for a size-%d communicator", rmode, len(res.Survivors), res.FinalProcs)
		}
	}
	if rmode == recovery.ModeNoRepair {
		if res.DataRecoveryTime != 0 {
			violate("no-repair run recovered data (%.3fs)", res.DataRecoveryTime)
		}
		if res.CheckpointBytesIn != 0 {
			violate("no-repair run read %d checkpoint bytes", res.CheckpointBytesIn)
		}
	}
	if res.Procs != ctl.res.Procs {
		violate("communicator size %d after recovery, control has %d", res.Procs, ctl.res.Procs)
	}

	// Invariant: solution quality against the failure-free control. A run
	// where nobody died must be bit-identical to the control, whatever the
	// recovery mode. CR recovers the exact pre-failure state — from
	// checkpoints when the group survives intact (spawn, substitute), by
	// recomputing from the initial condition when it shrank — so it must
	// match the control bitwise unless a sub-grid was abandoned outright.
	// One carve-out: a substitute repair that consumed spares moves the
	// replacement rank onto the spare node (spares are parked there), so
	// the host-aware hierarchical reduction re-associates the combine sum
	// and the recovered value can drift by a few ulps — exactly as real
	// MPI reductions do when the process map changes hosts. Those runs are
	// held to a 1e-12 relative band instead of bit equality (the observed
	// drift is ~2e-15 relative; the recovered STATE is still exact, only
	// the reduction order differs). RC and AC recover approximately; their
	// error must stay finite, non-degenerate and within a technique bound
	// of the control, loosened to the documented hole-tolerant bound once
	// grids are abandoned and their coefficients redistributed.
	exactOrReassoc := func(what string) {
		if run1.fp.L1 == ctl.fp.L1 {
			return
		}
		if rmode == recovery.ModeSubstitute && res.SparesUsed > 0 {
			if rel := math.Abs(res.L1Error-ctl.res.L1Error) / math.Abs(ctl.res.L1Error); rel <= 1e-12 {
				return
			}
		}
		violate("%s: l1 %v vs control %v", what, res.L1Error, ctl.res.L1Error)
	}
	switch {
	case res.Spawned == 0 && len(res.FailedRanks) == 0:
		if run1.fp.L1 != ctl.fp.L1 {
			violate("no process died but solution differs from control: l1 %v vs %v",
				res.L1Error, ctl.res.L1Error)
		}
	case tech == core.CheckpointRestart && len(res.AbandonedGrids) == 0:
		exactOrReassoc("CR recovered an inexact solution")
	default:
		bound := 100.0
		if tech == core.AlternateCombination {
			bound = 1000.0
		}
		if len(res.AbandonedGrids) > 0 {
			bound = ftcomb.DegradedErrorFactor
		}
		if math.IsNaN(res.L1Error) || math.IsInf(res.L1Error, 0) || res.L1Error <= 0 {
			violate("%s recovered a degenerate solution: l1 %v", tech, res.L1Error)
		} else if res.L1Error > bound*ctl.res.L1Error {
			violate("%s error %v exceeds %gx the control's %v",
				tech, res.L1Error, bound, ctl.res.L1Error)
		}
	}
	return finish(run1)
}

// CampaignOpts configures an instrumented campaign sweep.
type CampaignOpts struct {
	Seeds      []int64
	Techniques []core.Technique
	Mode       byte          // forced scenario mode; 0 draws per seed
	Recovery   recovery.Mode // forced recovery mode; zero value is spawn
	Workers    int           // <= 0 selects GOMAXPROCS
	Stall      time.Duration // per-run watchdog timeout; <= 0 selects DefaultStallTimeout

	// Metrics, when non-nil, receives every cell's merged registry
	// (control, chaos run, replay — in that order) folded in strictly in
	// cell submission order, regardless of which worker finishes first.
	// That makes the aggregate's summary a pure function of the seed list,
	// and because cells stream in as they complete, a live /metrics scrape
	// shows campaign progress without perturbing the result.
	Metrics *metrics.Registry
	// KeepTraces retains the chaos run's Chrome-trace export in
	// Outcome.TraceJSON for every violated cell — the post-mortem a
	// violation report points at.
	KeepTraces bool
}

// Sweep checks every (seed, technique) cell on a bounded worker pool and
// returns the outcomes in deterministic (seed-major) order, optionally
// streaming per-cell metrics into an aggregate registry.
func Sweep(opt CampaignOpts) []Outcome {
	n := len(opt.Seeds) * len(opt.Techniques)
	outs := make([]Outcome, n)
	var (
		mu    sync.Mutex
		cells = make([]*metrics.Registry, n)
		next  int
	)
	// checkMode never returns an error — violations land in the outcome —
	// so ParallelOrdered's error is always nil.
	_ = harness.ParallelOrdered(opt.Workers, n, func(i int) error {
		c := checkMode(opt.Seeds[i/len(opt.Techniques)], opt.Techniques[i%len(opt.Techniques)],
			opt.Mode, opt.Recovery, nil, opt.Stall, opt.KeepTraces)
		outs[i] = c.o
		if opt.Metrics == nil {
			return nil
		}
		// Advance the merge frontier only while the next cell in submission
		// order is done; out-of-order finishers park their registry and the
		// in-order one drains the backlog.
		mu.Lock()
		cells[i] = c.reg
		for next < n && cells[next] != nil {
			opt.Metrics.Merge(cells[next])
			cells[next] = nil
			next++
		}
		mu.Unlock()
		return nil
	})
	return outs
}
