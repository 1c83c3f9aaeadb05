package core

import (
	"math"
	"slices"
	"testing"

	"ftsg/internal/combine"
	"ftsg/internal/faultgen"
	"ftsg/internal/ftcomb"
	"ftsg/internal/grid"
	"ftsg/internal/pde"
	"ftsg/internal/trace"
	"ftsg/internal/vtime"
)

// TestCRRealFailureIsExact is the strongest end-to-end correctness check:
// after a REAL process failure, full communicator reconstruction, restore
// from the on-disk checkpoint and recomputation, the combined solution must
// be bitwise identical to the failure-free run — Checkpoint/Restart is an
// exact recovery technique (the paper's Fig. 10 shows its error independent
// of failures).
func TestCRRealFailureIsExact(t *testing.T) {
	base := fastCfg(CheckpointRestart)
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, failures := range []int{1, 2} {
		cfg := base
		cfg.NumFailures = failures
		cfg.RealFailures = true
		cfg.Seed = 17
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("failures=%d: %v", failures, err)
		}
		if res.Spawned != failures {
			t.Fatalf("failures=%d: spawned %d", failures, res.Spawned)
		}
		if res.L1Error != clean.L1Error {
			t.Errorf("failures=%d: error %.17g != failure-free %.17g (CR must be exact)",
				failures, res.L1Error, clean.L1Error)
		}
	}
}

// TestRCRealFailureDiagonalCopyIsExact: a real failure confined to a
// diagonal grid (or its duplicate) recovers by copying the twin, which
// solved the identical problem — so the combined error is unchanged. Losing
// a lower-diagonal grid resamples from a finer grid and perturbs the error.
func TestRCRealFailureBounded(t *testing.T) {
	base := fastCfg(ResamplingCopying)
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.NumFailures = 2
	cfg.RealFailures = true
	cfg.Seed = 23
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.L1Error <= 0 || res.L1Error > 100*clean.L1Error {
		t.Errorf("RC error %g unreasonable vs clean %g", res.L1Error, clean.L1Error)
	}
}

// TestDeterminism: identical configurations (same seed) must produce
// identical numerics and failure sets; virtual times are reproducible to
// within the schedule-dependent error-handler charges (see below).
func TestDeterminism(t *testing.T) {
	cfg := fastCfg(AlternateCombination)
	cfg.NumFailures = 2
	cfg.RealFailures = true
	cfg.Seed = 31
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.L1Error != b.L1Error {
		t.Errorf("L1 error differs: %.17g vs %.17g", a.L1Error, b.L1Error)
	}
	// Times are deterministic up to which ranks happen to observe a
	// collective failure first (non-uniform reporting is genuinely
	// schedule-dependent, and each observer charges the error-handler ack
	// path); numerics and failure sets are exact, virtual times agree to
	// within microseconds.
	if d := math.Abs(a.TotalTime - b.TotalTime); d > 1e-3 {
		t.Errorf("total time differs by %g s: %.17g vs %.17g", d, a.TotalTime, b.TotalTime)
	}
	if d := math.Abs(a.ReconstructTime - b.ReconstructTime); d > 1e-3 {
		t.Errorf("reconstruct time differs by %g s", d)
	}
	if len(a.FailedRanks) != len(b.FailedRanks) {
		t.Fatalf("failed ranks differ: %v vs %v", a.FailedRanks, b.FailedRanks)
	}
	for i := range a.FailedRanks {
		if a.FailedRanks[i] != b.FailedRanks[i] {
			t.Fatalf("failed ranks differ: %v vs %v", a.FailedRanks, b.FailedRanks)
		}
	}
}

// TestRaijinFasterCheckpoints: the same CR configuration on Raijin must
// write more, cheaper checkpoints than on OPL and end up with lower total
// time (the machine-profile contrast of Section III-B).
func TestRaijinFasterCheckpoints(t *testing.T) {
	opl := fastCfg(CheckpointRestart)
	raijin := fastCfg(CheckpointRestart)
	raijin.Machine = vtime.Raijin()
	ro, err := Run(opl)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(raijin)
	if err != nil {
		t.Fatal(err)
	}
	if rr.CheckpointPlan.Count <= ro.CheckpointPlan.Count {
		t.Errorf("Raijin plans %d checkpoints, OPL %d; want more on the faster disk",
			rr.CheckpointPlan.Count, ro.CheckpointPlan.Count)
	}
	oplCkpt := float64(ro.CheckpointWrites) * 3.52
	raijinCkpt := float64(rr.CheckpointWrites) * 0.03
	if raijinCkpt >= oplCkpt {
		t.Errorf("Raijin checkpoint time %g not below OPL %g", raijinCkpt, oplCkpt)
	}
}

// TestFailureCostOrdering: the two-failure run pays the expensive
// beta-ULFM repair path and must cost clearly more than the failure-free
// run; the single-failure run stays close to baseline (its repair is cheap,
// and under AC the abandoned grid even stops computing — an emergent effect
// also visible in the paper's Fig. 11a, where the one-failure curves hug
// the zero-failure ones).
func TestFailureCostOrdering(t *testing.T) {
	times := make([]float64, 3)
	for f := 0; f <= 2; f++ {
		cfg := fastCfg(AlternateCombination)
		cfg.NumFailures = f
		cfg.RealFailures = f > 0
		cfg.Seed = 37
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		times[f] = res.TotalTime
	}
	if times[2] <= times[0]*1.02 {
		t.Errorf("two-failure run (%g) not clearly above failure-free (%g)", times[2], times[0])
	}
	if d := math.Abs(times[1]-times[0]) / times[0]; d > 0.10 {
		t.Errorf("single-failure run %g strays %.0f%% from baseline %g", times[1], d*100, times[0])
	}
}

// TestResultHelpers exercises the Result accessors.
func TestResultHelpers(t *testing.T) {
	cfg := fastCfg(CheckpointRestart)
	cfg.NumFailures = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AppTime() <= 0 || res.AppTime() > res.TotalTime {
		t.Errorf("AppTime %g outside (0, %g]", res.AppTime(), res.TotalTime)
	}
	if res.RecoveryOverhead() <= 0 {
		t.Error("CR recovery overhead not positive")
	}
	if s := res.String(); s == "" {
		t.Error("empty String()")
	}
	if math.IsNaN(res.ProcessTimeOverhead(44)) {
		t.Error("NaN process-time overhead")
	}
}

// TestMTBFOverride: a shorter MTBF forces more frequent checkpoints.
func TestMTBFOverride(t *testing.T) {
	long := fastCfg(CheckpointRestart)
	short := fastCfg(CheckpointRestart)
	short.MTBF = long.WithDefaults().EstimateStepTime() * 4 // absurdly failure-prone
	lr, err := Run(long)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Run(short)
	if err != nil {
		t.Fatal(err)
	}
	if sr.CheckpointPlan.IntervalSteps >= lr.CheckpointPlan.IntervalSteps {
		t.Errorf("short MTBF interval %d not below default %d",
			sr.CheckpointPlan.IntervalSteps, lr.CheckpointPlan.IntervalSteps)
	}
}

// TestTechniqueStrings covers the Stringer implementations.
func TestTechniqueStrings(t *testing.T) {
	if CheckpointRestart.String() != "CR" || ResamplingCopying.String() != "RC" ||
		AlternateCombination.String() != "AC" {
		t.Error("technique names wrong")
	}
	if Technique(99).String() == "" {
		t.Error("unknown technique has empty name")
	}
	for _, r := range []GridRole{RoleDiagonal, RoleLowerDiagonal, RoleDuplicate, RoleExtraLayer1, RoleExtraLayer2, GridRole(99)} {
		if r.String() == "" {
			t.Errorf("role %d has empty name", int(r))
		}
	}
}

// serialCombineL1 is the reference the parallel gather-scatter combination
// must reproduce, built without rankState.combine: every sub-grid solved
// alone with pde.Solve, the lost grids' data recovered the way the technique
// does it (RC copies the twin or resamples the finer neighbour, AC
// recombines over the grids still held), then one combine.Evaluate onto the
// full grid and the run's l1 error measure.
func serialCombineL1(t *testing.T, cfg Config, lost []int) float64 {
	t.Helper()
	cfg = cfg.WithDefaults()
	prob, dt := cfg.Problem()
	grids := cfg.Grids()
	sols := make([]*grid.Grid, len(grids))
	for _, sg := range grids {
		sols[sg.ID] = pde.Solve(sg.Lv, prob, dt, cfg.Steps)
	}
	scheme := cfg.Layout.Classic()
	switch {
	case len(lost) == 0:
	case cfg.Technique == ResamplingCopying:
		for _, id := range lost {
			src, resample, err := recoveryPartner(grids, grids[id])
			if err != nil {
				t.Fatal(err)
			}
			if !resample {
				sols[id] = sols[src.ID].Clone()
				continue
			}
			sols[id] = grid.New(grids[id].Lv)
			if err := grid.RestrictInto(sols[src.ID], sols[id]); err != nil {
				t.Fatal(err)
			}
		}
	case cfg.Technique == AlternateCombination:
		held := make([]grid.Level, len(grids))
		lostLvs := ftcomb.NewSet()
		for _, sg := range grids {
			held[sg.ID] = sg.Lv
			if slices.Contains(lost, sg.ID) {
				lostLvs[sg.Lv] = true
			}
		}
		var err error
		if scheme, err = ftcomb.RecoverScheme(held, lostLvs); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("%v has no serial reference for lost grids", cfg.Technique)
	}
	byLevel := make(map[grid.Level]*grid.Grid, len(grids))
	for _, sg := range grids {
		if sg.Role != RoleDuplicate {
			byLevel[sg.Lv] = sols[sg.ID]
		}
	}
	comb, err := combine.Evaluate(scheme, byLevel, grid.Level{I: cfg.Layout.N, J: cfg.Layout.N})
	if err != nil {
		t.Fatal(err)
	}
	return prob.L1Error(comb, float64(cfg.Steps)*dt)
}

// TestParallelCombineMatchesSerial: the parallel gather-scatter combination
// and the serial reference produce the same combined solution (up to
// summation-order rounding in the Reduce).
func TestParallelCombineMatchesSerial(t *testing.T) {
	for _, tech := range []Technique{CheckpointRestart, ResamplingCopying, AlternateCombination} {
		cfg := fastCfg(tech)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ser := serialCombineL1(t, cfg, nil); math.Abs(res.L1Error-ser) > 1e-12 {
			t.Errorf("%v: parallel combine error %.17g vs serial %.17g (diff %g)",
				tech, res.L1Error, ser, res.L1Error-ser)
		}
	}
}

// TestParallelCombineWithLossesMatchesSerial repeats the comparison under
// simulated losses, covering RC's recovered data and AC's recovered
// coefficients. Under RC seed 41 loses two duplicates and seed 42 a lower
// grid, which RC resamples from the diagonal grid above it.
func TestParallelCombineWithLossesMatchesSerial(t *testing.T) {
	for _, tech := range []Technique{ResamplingCopying, AlternateCombination} {
		for _, seed := range []int64{41, 42} {
			cfg := fastCfg(tech)
			cfg.NumFailures = 2
			cfg.Seed = seed
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.LostGrids) != 2 {
				t.Fatalf("%v seed %d: lost grids %v, want 2", tech, seed, res.LostGrids)
			}
			if ser := serialCombineL1(t, cfg, res.LostGrids); math.Abs(res.L1Error-ser) > 1e-12 {
				t.Errorf("%v seed %d with losses %v: parallel %.17g vs serial %.17g",
					tech, seed, res.LostGrids, res.L1Error, ser)
			}
		}
	}
}

// noteCount returns how many journal notes of the given kind rec holds.
func noteCount(rec *trace.Recorder, kind string) int {
	n := 0
	for _, note := range rec.Notes() {
		if note.Kind == kind {
			n++
		}
	}
	return n
}

// TestTraceTimeline: a real-failure run records the protocol in causal
// order — failure detection before data recovery before combination — and
// one respawn note per replacement.
func TestTraceTimeline(t *testing.T) {
	rec := trace.New()
	cfg := fastCfg(AlternateCombination)
	cfg.NumFailures = 2
	cfg.RealFailures = true
	cfg.Trace = rec
	cfg.Seed = 43
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	detected := -1.0
	for _, n := range rec.Notes() {
		if n.Kind == "failure-detected" {
			detected = n.VT
			break
		}
	}
	if detected < 0 {
		t.Fatal("no failure-detected note on the timeline")
	}
	// Rank 0 logs the repair, then recovers and combines like every rank.
	var recoverSpan, combineSpan *trace.Span
	for _, s := range rec.Spans() {
		if s.Rank != 0 {
			continue
		}
		switch s.Phase {
		case "recover-data":
			recoverSpan = &s
		case "combine":
			combineSpan = &s
		}
	}
	if recoverSpan == nil || combineSpan == nil {
		t.Fatalf("rank 0 lacks a recover-data or combine span: %v, %v", recoverSpan, combineSpan)
	}
	if !(detected <= recoverSpan.Start && recoverSpan.End <= combineSpan.Start) {
		t.Errorf("phase order wrong: failure-detected at %g, then %v, then %v", detected, recoverSpan, combineSpan)
	}
	if got := noteCount(rec, "respawn"); got != 2 {
		t.Errorf("respawn notes = %d, want 2", got)
	}
}

// TestTraceCheckpointEvents: a CR run records one checkpoint-commit note per
// checkpoint.
func TestTraceCheckpointEvents(t *testing.T) {
	rec := trace.New()
	cfg := fastCfg(CheckpointRestart)
	cfg.Trace = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := noteCount(rec, "checkpoint-commit"); got != res.CheckpointWrites {
		t.Errorf("checkpoint-commit notes %d != writes %d", got, res.CheckpointWrites)
	}
}

// TestMultiEventFailures: two separate failure events at different steps,
// each followed by its own detection and reconstruction, must both be
// survived — and under CR the final solution stays bitwise exact.
func TestMultiEventFailures(t *testing.T) {
	base := fastCfg(CheckpointRestart)
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	cfg := base
	cfg.Faults = []faultgen.Event{{Step: 10, Failures: 1}, {Step: 40, Failures: 2}}
	cfg.Trace = rec
	cfg.Seed = 47
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spawned != 3 {
		t.Fatalf("spawned %d, want 3 across two events", res.Spawned)
	}
	if res.L1Error != clean.L1Error {
		t.Errorf("multi-event CR error %.17g != clean %.17g", res.L1Error, clean.L1Error)
	}
	if got := noteCount(rec, "failure-detected"); got != 2 {
		t.Errorf("failure-detected notes = %d, want 2 (one per failure event)", got)
	}
}

// TestMultiEventFailuresAC: the same schedule under Alternate Combination
// (single detection at the end sees both events' victims).
func TestMultiEventFailuresAC(t *testing.T) {
	cfg := fastCfg(AlternateCombination)
	cfg.Faults = []faultgen.Event{{Step: 10, Failures: 1}, {Step: 40, Failures: 1}}
	cfg.Seed = 53
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spawned != 2 {
		t.Fatalf("spawned %d, want 2", res.Spawned)
	}
	if res.L1Error <= 0 || res.L1Error > 0.1 {
		t.Errorf("error %g after multi-event AC run", res.L1Error)
	}
}

// TestFailScheduleValidation: Validate refuses every failure plan NewPlan
// would, and the plans that do not fit the run.
func TestFailScheduleValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"Faults with the NumFailures shorthand", func(c *Config) {
			c.Faults = []faultgen.Event{{Step: 1, Failures: 1}}
			c.NumFailures = 1
		}},
		{"step 0", func(c *Config) { c.Faults = []faultgen.Event{{Step: 0, Failures: 1}} }},
		{"step beyond Steps", func(c *Config) { c.Faults = []faultgen.Event{{Step: c.Steps + 1, Failures: 1}} }},
		{"decreasing schedule", func(c *Config) {
			c.Faults = []faultgen.Event{{Step: 40, Failures: 1}, {Step: 10, Failures: 1}}
		}},
		{"repeated step", func(c *Config) {
			c.Faults = []faultgen.Event{{Step: 10, Failures: 1}, {Step: 10, Failures: 1}}
		}},
		{"no failures", func(c *Config) { c.Faults = []faultgen.Event{{Step: 10}} }},
		{"op count 0", func(c *Config) { c.Faults = []faultgen.Event{{DuringRecovery: true, Failures: 1}} }},
		{"negative NumFailures", func(c *Config) { c.NumFailures = -1 }},
	} {
		cfg := fastCfg(CheckpointRestart)
		c.edit(&cfg)
		if err := cfg.WithDefaults().Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted", c.name)
		}
	}
}

// TestEveryDeathIsJournalled: each death a step trigger causes has exactly
// one fault-inject note, also in runs too short for the shorthand's step to
// be Steps/2 — for the ranks of the shorthand's event and for a host.
func TestEveryDeathIsJournalled(t *testing.T) {
	for steps := 1; steps <= 3; steps++ {
		rank := Config{Technique: CheckpointRestart, DiagProcs: 2, Steps: steps,
			NumFailures: 1, RealFailures: true, Seed: 3}
		host := Config{Technique: CheckpointRestart, DiagProcs: 2, Steps: steps, SlotsPerHost: 4,
			Faults: []faultgen.Event{{Step: max(1, steps/2), Host: true}}, SpareNodes: 1, Seed: 3}
		for _, cfg := range []Config{rank, host} {
			rec := trace.New()
			cfg.Trace = rec
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("steps %d: %v", steps, err)
			}
			notes := map[int]int{}
			for _, n := range rec.Notes() {
				if n.Kind == "fault-inject" {
					notes[n.Rank]++
				}
			}
			if res.Deaths == 0 || len(notes) != res.Deaths {
				t.Errorf("steps %d, faults %v: %d deaths (failed %v), fault-inject notes per rank %v",
					steps, cfg.Faults, res.Deaths, res.FailedRanks, notes)
			}
			for r, k := range notes {
				if k != 1 {
					t.Errorf("steps %d: rank %d has %d fault-inject notes", steps, r, k)
				}
			}
		}
	}
}

// TestMultiEventFailuresRC: under RC, both events' victims surface together
// at the end-of-run detection; the cross-event conflict constraint keeps
// every lost grid's recovery partner alive.
func TestMultiEventFailuresRC(t *testing.T) {
	cfg := fastCfg(ResamplingCopying)
	cfg.Faults = []faultgen.Event{{Step: 10, Failures: 1}, {Step: 30, Failures: 1}}
	cfg.Seed = 61
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spawned != 2 {
		t.Fatalf("spawned %d", res.Spawned)
	}
	if res.L1Error <= 0 || res.L1Error > 0.1 {
		t.Errorf("error %g after RC multi-event run", res.L1Error)
	}
}
