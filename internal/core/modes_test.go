package core

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"ftsg/internal/faultgen"
	"ftsg/internal/ftcomb"
	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
)

// modeCfg returns a quick real-failure configuration under the given
// recovery mode.
func modeCfg(t Technique, mode recovery.Mode) Config {
	cfg := fastCfg(t)
	cfg.RecoveryMode = mode
	cfg.NumFailures = 1
	cfg.RealFailures = true
	cfg.Seed = 5
	cfg.Watchdog = mpi.Watchdog{Timeout: 60 * time.Second}
	return cfg
}

// TestRecoveryModeSmoke runs every non-spawn mode against every technique
// with a single failure and checks the mode's structural promises on the
// Result: shrink and no-repair lose exactly the failed ranks and never
// replace anything; substitute restores the size from the spare pool.
func TestRecoveryModeSmoke(t *testing.T) {
	for _, tech := range []Technique{CheckpointRestart, ResamplingCopying, AlternateCombination} {
		for _, mode := range []recovery.Mode{recovery.ModeShrink, recovery.ModeSubstitute, recovery.ModeNoRepair} {
			res, err := Run(modeCfg(tech, mode))
			if err != nil {
				t.Fatalf("%v/%v: %v", tech, mode, err)
			}
			if res.Mode != mode.String() {
				t.Errorf("%v/%v: result mode %q", tech, mode, res.Mode)
			}
			if res.Spawned != 0 {
				t.Errorf("%v/%v: spawned %d replacements", tech, mode, res.Spawned)
			}
			if len(res.FailedRanks) != 1 {
				t.Fatalf("%v/%v: failed ranks %v, want one", tech, mode, res.FailedRanks)
			}
			if res.ReconstructTime <= 0 {
				t.Errorf("%v/%v: no reconstruction time recorded", tech, mode)
			}
			switch mode {
			case recovery.ModeSubstitute:
				if res.FinalProcs != res.Procs {
					t.Errorf("%v/%v: final size %d, want restored %d", tech, mode, res.FinalProcs, res.Procs)
				}
				if res.SparesUsed < 1 {
					t.Errorf("%v/%v: consumed %d spares", tech, mode, res.SparesUsed)
				}
				if res.RepairFallbacks != 0 {
					t.Errorf("%v/%v: %d fallbacks with spares available", tech, mode, res.RepairFallbacks)
				}
				if len(res.Survivors) != res.Procs {
					t.Errorf("%v/%v: %d survivors, want %d", tech, mode, len(res.Survivors), res.Procs)
				}
			default:
				if res.FinalProcs != res.Procs-len(res.FailedRanks) {
					t.Errorf("%v/%v: final size %d, want %d-%d", tech, mode, res.FinalProcs, res.Procs, len(res.FailedRanks))
				}
				if res.SparesUsed != 0 {
					t.Errorf("%v/%v: consumed %d spares", tech, mode, res.SparesUsed)
				}
				if len(res.Survivors) != res.FinalProcs {
					t.Errorf("%v/%v: %d survivors, want %d", tech, mode, len(res.Survivors), res.FinalProcs)
				}
				// Survivors are the original ranks minus the failed ones, in
				// order (the shrink contract), and never include a failed rank.
				for i := 1; i < len(res.Survivors); i++ {
					if res.Survivors[i] <= res.Survivors[i-1] {
						t.Errorf("%v/%v: survivors %v not strictly increasing", tech, mode, res.Survivors)
						break
					}
				}
				for _, f := range res.FailedRanks {
					if slices.Contains(res.Survivors, f) {
						t.Errorf("%v/%v: failed rank %d among survivors", tech, mode, f)
					}
				}
			}
			if mode == recovery.ModeNoRepair && res.DataRecoveryTime != 0 {
				t.Errorf("%v/%v: recovered data (%.3fs) under no-repair", tech, mode, res.DataRecoveryTime)
			}
			if res.L1Error <= 0 || math.IsNaN(res.L1Error) {
				t.Errorf("%v/%v: L1 error %g", tech, mode, res.L1Error)
			}
		}
	}
}

// TestRecoveryModeDifferential runs the same seed and failure plan under
// spawn, shrink and substitute: the three modes must agree on which ranks
// failed and on the surviving-rank order, and each mode's virtual time must
// be byte-identical between GOMAXPROCS=1 and the full machine (run this
// under -race for the full satellite check).
func TestRecoveryModeDifferential(t *testing.T) {
	type outcome struct {
		total     uint64
		l1        uint64
		failed    []int
		survivors []int
	}
	run := func(tech Technique, mode recovery.Mode) outcome {
		t.Helper()
		cfg := fastCfg(tech)
		cfg.RecoveryMode = mode
		cfg.Seed = 17
		cfg.Faults = []faultgen.Event{{Step: 24, Failures: 1}, {Step: 48, Failures: 1}}
		cfg.Watchdog = mpi.Watchdog{Timeout: 120 * time.Second}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v/%v: %v", tech, mode, err)
		}
		return outcome{
			total:     math.Float64bits(res.TotalTime),
			l1:        math.Float64bits(res.L1Error),
			failed:    res.FailedRanks,
			survivors: res.Survivors,
		}
	}
	modes := []recovery.Mode{recovery.ModeSpawn, recovery.ModeShrink, recovery.ModeSubstitute}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, tech := range []Technique{CheckpointRestart, AlternateCombination} {
		got := make(map[recovery.Mode]outcome)
		for _, mode := range modes {
			runtime.GOMAXPROCS(prev)
			wide := run(tech, mode)
			runtime.GOMAXPROCS(1)
			narrow := run(tech, mode)
			runtime.GOMAXPROCS(prev)
			if wide.total != narrow.total || wide.l1 != narrow.l1 {
				t.Errorf("%v/%v: virtual time or L1 differ across GOMAXPROCS (%x vs %x, %x vs %x)",
					tech, mode, wide.total, narrow.total, wide.l1, narrow.l1)
			}
			got[mode] = wide
		}
		// The failure plan is mode-independent, and every mode reports the
		// union over both events.
		base := got[recovery.ModeSpawn].failed
		if len(base) != 2 {
			t.Errorf("%v: spawn reports failed ranks %v, want both events' victims", tech, base)
		}
		for _, mode := range modes[1:] {
			if !slices.Equal(got[mode].failed, base) {
				t.Errorf("%v: failed ranks differ: spawn %v vs %v %v",
					tech, base, mode, got[mode].failed)
			}
		}
		// Substitute restores everything, so its survivor list is the
		// identity; shrink's is the identity minus the failed ranks, in order.
		sub := got[recovery.ModeSubstitute].survivors
		for i, o := range sub {
			if o != i {
				t.Errorf("%v: substitute survivors %v not the identity", tech, sub)
				break
			}
		}
		shr := got[recovery.ModeShrink].survivors
		want := 0
		for _, o := range shr {
			for slices.Contains(got[recovery.ModeShrink].failed, want) {
				want++
			}
			if o != want {
				t.Errorf("%v: shrink survivors %v do not match identity minus failed %v",
					tech, shr, got[recovery.ModeShrink].failed)
				break
			}
			want++
		}
	}
}

// TestSubstituteSparesExhaustedFallsBack is the regression test for
// back-to-back failures with an undersized spare pool: the first event
// consumes the only spare, the second must deterministically fall back to
// shrink — not deadlock (watchdog-guarded) and not error out.
func TestSubstituteSparesExhaustedFallsBack(t *testing.T) {
	cfg := fastCfg(CheckpointRestart)
	cfg.RecoveryMode = recovery.ModeSubstitute
	cfg.SpareRanks = 1
	cfg.Seed = 23
	cfg.Faults = []faultgen.Event{{Step: 16, Failures: 1}, {Step: 40, Failures: 1}}
	cfg.Watchdog = mpi.Watchdog{Timeout: 120 * time.Second}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SparesUsed != 1 {
		t.Errorf("spares used %d, want exactly 1", res.SparesUsed)
	}
	if res.RepairFallbacks != 1 {
		t.Errorf("fallbacks %d, want 1 (second event must degrade to shrink)", res.RepairFallbacks)
	}
	if res.Spawned != 0 {
		t.Errorf("spawned %d replacements under substitute", res.Spawned)
	}
	if res.FinalProcs != res.Procs-1 {
		t.Errorf("final size %d, want %d (one unreplaced failure)", res.FinalProcs, res.Procs-1)
	}
	if len(res.Survivors) != res.FinalProcs {
		t.Errorf("%d survivors, want %d", len(res.Survivors), res.FinalProcs)
	}
}

// TestNoRepairBaseline pins the measured-baseline semantics of the
// no-repair mode: the communicator shrinks, no data recovery happens (no
// checkpoint reads, zero data-recovery time), the abandoned grids are
// reported, and the run still produces a (degraded but bounded) solution.
func TestNoRepairBaseline(t *testing.T) {
	base, err := Run(fastCfg(CheckpointRestart))
	if err != nil {
		t.Fatal(err)
	}
	cfg := modeCfg(CheckpointRestart, recovery.ModeNoRepair)
	cfg.Telemetry = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DataRecoveryTime != 0 {
		t.Errorf("no-repair recovered data: %.3fs", res.DataRecoveryTime)
	}
	if res.CheckpointBytesIn != 0 {
		t.Errorf("no-repair read %d checkpoint bytes", res.CheckpointBytesIn)
	}
	if len(res.AbandonedGrids) == 0 {
		t.Error("no abandoned grids recorded after a failure under no-repair")
	}
	if res.L1Error <= 0 || res.L1Error > ftcomb.DegradedErrorFactor*base.L1Error {
		t.Errorf("no-repair L1 %g outside (0, %gx baseline %g]", res.L1Error, ftcomb.DegradedErrorFactor, base.L1Error)
	}
}
