// Package chaos drives seed-replayable randomized fault-injection campaigns
// against the full recovery protocol. Each seed deterministically generates
// one failure scenario — simultaneous multi-process failures, a whole-node
// failure, kills at randomized MPI operations (inside barriers, halo
// exchanges, gathers), or kills landing inside an in-progress repair — and
// the campaign runs it under every recovery technique next to a
// failure-free control, checking a fixed invariant suite: the repaired
// communicator keeps its size and rank order, all ranks agree on the failed
// list, the combined solution stays within a technique-specific bound of
// the control, the run replays byte-identically from the same seed, and
// nothing deadlocks (a watchdog dumps per-rank blocked-operation state
// otherwise). Every violation carries a one-line repro command.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"ftsg/internal/checkpoint"
	"ftsg/internal/combine"
	"ftsg/internal/core"
	"ftsg/internal/faultgen"
	"ftsg/internal/recovery"
	"ftsg/internal/vtime"
)

// Scenario modes. One is drawn per seed.
const (
	// ModeMultiEvent schedules 1-2 failure events at increasing solver
	// steps, each killing 1-2 processes together.
	ModeMultiEvent = 'A'
	// ModeNodeFailure kills every process of one host (CR only: node loss
	// can violate RC's pairwise-recovery constraint and exceed AC's loss
	// tolerance, so those techniques substitute a 2-process event).
	ModeNodeFailure = 'B'
	// ModeOpKill kills 1-2 processes at a randomized MPI operation —
	// inside a barrier, a halo exchange, a gather, wherever the count
	// lands in program order.
	ModeOpKill = 'C'
	// ModeKillDuringRecovery schedules a step failure AND a kill counted
	// from the victim's shrink call, so the second death lands inside the
	// in-progress repair (the paper's Table I pathology).
	ModeKillDuringRecovery = 'D'
	// ModeControl injects nothing: the chaos run must be byte-identical
	// to the control.
	ModeControl = 'E'
	// ModeCkptCorrupt schedules a failure late enough that interior
	// checkpoints exist, with seeded storage faults active on the
	// checkpoint backend the whole run: reads come back bit-flipped or
	// erroring and writes tear or fail, so CR recovery must fall back
	// through generations — possibly to different depths on different
	// ranks — and still restore a group-consistent step. Under RC and AC
	// (no checkpoint store) the storage faults are inert and the scenario
	// degenerates to a plain failure event.
	ModeCkptCorrupt = 'F'
)

// scenarioSteps is the solver-step budget of every chaos run: enough for
// several failure events and (under CR) interior checkpoint intervals,
// small enough that a full campaign stays cheap.
const scenarioSteps = 24

// Scenario is one seed's failure plan, identical on every replay.
type Scenario struct {
	Seed       int64
	Mode       byte
	Steps      int
	Faults     []faultgen.Event
	CkptFaults *checkpoint.FaultPlan // mode F
}

// NewScenario deterministically generates the scenario for a seed.
func NewScenario(seed int64) Scenario {
	return NewScenarioMode(seed, 0)
}

// NewScenarioMode generates the scenario for a seed with the mode forced
// (mode 0 draws it from the seed as usual). Forcing lets a campaign
// concentrate a whole seed sweep on one injection class — e.g. mode F to
// hammer checkpoint-storage damage under CR — while event parameters still
// vary per seed exactly as in a mixed sweep.
func NewScenarioMode(seed int64, mode byte) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{Seed: seed, Steps: scenarioSteps}
	switch d := rng.Intn(12); {
	case d < 3:
		sc.Mode = ModeMultiEvent
	case d < 5:
		sc.Mode = ModeNodeFailure
	case d < 7:
		sc.Mode = ModeOpKill
	case d < 9:
		sc.Mode = ModeKillDuringRecovery
	case d < 10:
		sc.Mode = ModeControl
	default:
		sc.Mode = ModeCkptCorrupt
	}
	if mode != 0 {
		sc.Mode = mode
	}
	switch sc.Mode {
	case ModeMultiEvent:
		nev := 1 + rng.Intn(2)
		step, total := 0, 0
		for i := 0; i < nev; i++ {
			step += 1 + rng.Intn(8)
			f := 1 + rng.Intn(2)
			if total+f > 3 {
				f = 1 // keep every scenario satisfiable under RC's conflict pairs
			}
			total += f
			sc.Faults = append(sc.Faults, faultgen.Event{Step: step, Failures: f})
		}
	case ModeNodeFailure:
		sc.Faults = []faultgen.Event{{Step: 1 + rng.Intn(16), Host: true}}
	case ModeOpKill:
		for i := 1 + rng.Intn(2); i > 0; i-- {
			sc.Faults = append(sc.Faults, faultgen.Event{AfterOps: 1 + rng.Intn(64), Failures: 1})
		}
	case ModeKillDuringRecovery:
		sc.Faults = []faultgen.Event{
			{Step: 1 + rng.Intn(8), Failures: 1 + rng.Intn(2)},
			{AfterOps: 1 + rng.Intn(6), DuringRecovery: true, Failures: 1},
		}
	case ModeCkptCorrupt:
		// Die in the second half of the run, after several checkpoint
		// intervals have written (and possibly torn) generations.
		sc.Faults = []faultgen.Event{{Step: 8 + rng.Intn(12), Failures: 1 + rng.Intn(2)}}
		sc.CkptFaults = faultgen.CkptFaults(rng)
	}
	return sc
}

// ModeName returns the human-readable scenario class.
func (sc Scenario) ModeName() string {
	switch sc.Mode {
	case ModeMultiEvent:
		return "multi-event"
	case ModeNodeFailure:
		return "node-failure"
	case ModeOpKill:
		return "op-kill"
	case ModeKillDuringRecovery:
		return "kill-during-recovery"
	case ModeControl:
		return "control"
	case ModeCkptCorrupt:
		return "ckpt-corrupt"
	}
	return fmt.Sprintf("mode-%c", sc.Mode)
}

func (sc Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d %s", sc.Seed, sc.ModeName())
	for _, e := range sc.Faults {
		fmt.Fprintf(&b, " %s", e)
	}
	if fp := sc.CkptFaults; fp != nil {
		fmt.Fprintf(&b, " ckpt-faults[corrupt=%.2f readerr=%.2f writeerr=%.2f torn=%.2f]",
			fp.ReadCorrupt, fp.ReadErr, fp.WriteErr, fp.WriteShort)
	}
	return b.String()
}

// chaosMachine is the OPL profile with small hosts, so the 11-19 rank
// chaos worlds span several nodes and whole-node failures are meaningful.
func chaosMachine() *vtime.Machine {
	m := vtime.OPL()
	m.SlotsPerHost = 4
	return m
}

// Control returns the failure-free twin of the scenario's configuration —
// the baseline for the solution-quality invariant. It matches the chaos
// configuration in everything but the injected failures (including the
// cluster shape, so virtual costs are comparable).
func (sc Scenario) Control(tech core.Technique) core.Config {
	cfg := core.Config{
		Layout:    combine.Layout{N: 6, L: 4},
		Technique: tech,
		Machine:   chaosMachine(),
		DiagProcs: 2,
		Steps:     sc.Steps,
		Seed:      sc.Seed,
	}
	if sc.Mode == ModeNodeFailure && tech == core.CheckpointRestart {
		cfg.SpareNodes = 1
	}
	if sc.Mode == ModeCkptCorrupt {
		// Force a ~6-step Young interval so several checkpoint
		// generations exist before the scheduled failure, and keep three
		// of them — the fallback chain the injected damage exercises. The
		// control shares the schedule (it only affects virtual I/O time,
		// not the solution), so CR's L1-bitwise-equal invariant still
		// compares like with like.
		stepTime := cfg.WithDefaults().EstimateStepTime()
		cfg.MTBF = math.Pow(6*stepTime, 2) / (2 * cfg.Machine.TIOWrite)
		cfg.CheckpointGenerations = 3
	}
	return cfg
}

// ConfigFor returns the chaos configuration of the scenario under one
// recovery technique.
func (sc Scenario) ConfigFor(tech core.Technique) core.Config {
	cfg := sc.Control(tech)
	cfg.Faults = slices.Clone(sc.Faults)
	for i, e := range cfg.Faults {
		if e.Host && tech != core.CheckpointRestart {
			// RC's pairwise constraint (and AC's loss tolerance) rule out a
			// whole node; these techniques get an equivalent two-process
			// event.
			cfg.Faults[i].Host, cfg.Faults[i].Failures = false, 2
		}
	}
	// Storage damage rides only on the chaos run, never the control; it is
	// inert outside CR (no checkpoint store exists).
	cfg.CheckpointFaults = sc.CkptFaults
	return cfg
}

// SubstituteSpares is the spare-rank pool a chaos substitute run carries:
// comfortably above the worst scheduled death count (a whole four-slot node
// plus retries that orphan claimed spares), so a clean campaign never
// exhausts it and RepairFallbacks stays zero.
const SubstituteSpares = 12

// ConfigForRecovery is ConfigFor with a forced recovery mode on the chaos
// run: shrink, substitute (with the SubstituteSpares pool) or no-repair
// instead of the default spawn protocol. The control stays a plain
// failure-free spawn run — the baseline is mode-independent.
func (sc Scenario) ConfigForRecovery(tech core.Technique, rmode recovery.Mode) core.Config {
	cfg := sc.ConfigFor(tech)
	cfg.RecoveryMode = rmode
	if rmode == recovery.ModeSubstitute {
		cfg.SpareRanks = SubstituteSpares
	}
	return cfg
}

// shortestShrinkDance is the fewest operations any rank performs from its
// shrink call to the end of a reconstruct whose repair only shrinks: the
// shrink, a fan-in send and a fan-out receive of the verification barrier
// (a non-leader of a multi-member node; leaders and flat barriers take
// more), and the closing agree.
const shortestShrinkDance = 4

// MinSpawned returns the number of deaths the scenario is guaranteed to
// cause under the technique and recovery mode: step-scheduled victims always
// die, a node failure kills at least one process (two under ConfigFor's
// stand-in for RC and AC), and a kill-during-recovery victim dies once its
// operation count fits inside the reconstruct loop it starts counting in.
// Under spawn and substitute the loop is at least seven operations long
// (shrink, acquire, merge, agree, split, then verification), which covers
// every AfterOps the generator draws. Under shrink and no-repair it can be
// as short as shortestShrinkDance; a victim with a larger count leaves the
// loop alive, and core re-arms its hook only at the next detection interval
// — which a kill-during-recovery scenario does not have — so it guarantees
// nothing. Operation-granularity victims of mode C may outlive their count,
// so they guarantee nothing either.
func (sc Scenario) MinSpawned(tech core.Technique, rmode recovery.Mode) int {
	shrinks := rmode == recovery.ModeShrink || rmode == recovery.ModeNoRepair
	total := 0
	for _, e := range sc.Faults {
		switch {
		case e.Host && tech == core.CheckpointRestart:
			total++
		case e.Host:
			total += 2
		case e.Step > 0:
			total += e.Failures
		case e.DuringRecovery && (!shrinks || e.AfterOps <= shortestShrinkDance):
			total += e.Failures
		}
	}
	return total
}
