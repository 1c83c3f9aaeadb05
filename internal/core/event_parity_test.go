package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"ftsg/internal/faultgen"
	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
)

// runBoth executes the same configuration on the goroutine path and on the
// event-driven path and requires the two Results to be deeply equal. Every
// Result field is virtual-time or structural — nothing wall-clock — so
// byte-identical is the contract, not a tolerance.
func runBoth(t *testing.T, label string, cfg Config) *Result {
	t.Helper()
	base, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s (goroutine): %v", label, err)
	}
	ev := cfg
	ev.Event = true
	evRes, err := Run(ev)
	if err != nil {
		t.Fatalf("%s (event): %v", label, err)
	}
	if !reflect.DeepEqual(base, evRes) {
		t.Errorf("%s: event Result diverges from goroutine Result:\n  goroutine: %+v\n  event:     %+v",
			label, base, evRes)
	}
	return base
}

// TestEventResultParity is the tentpole acceptance check at the core level:
// every technique x recovery-mode cell of the matrix — including the full
// kill → detect → revoke → shrink → respawn/claim → merge → split dance and
// the solver's recovery protocols — produces a byte-identical Result on the
// event-driven path.
func TestEventResultParity(t *testing.T) {
	for _, tech := range []Technique{CheckpointRestart, ResamplingCopying, AlternateCombination} {
		for _, mode := range []recovery.Mode{
			recovery.ModeSpawn, recovery.ModeShrink, recovery.ModeSubstitute, recovery.ModeNoRepair,
		} {
			runBoth(t, fmt.Sprintf("%v/%v", tech, mode), modeCfg(tech, mode))
		}
	}

	// Failure-free and simulated-loss paths (no repair dance, but the
	// combine phase and RC/AC recovery protocols still run).
	for _, tech := range []Technique{CheckpointRestart, ResamplingCopying, AlternateCombination} {
		runBoth(t, fmt.Sprintf("%v/plain", tech), fastCfg(tech))
		sim := fastCfg(tech)
		sim.NumFailures = 2
		sim.Seed = 9
		runBoth(t, fmt.Sprintf("%v/simulated", tech), sim)
	}

	// Two failure events under spawn: both paths report the union of the
	// victims, not the first event's.
	two := fastCfg(CheckpointRestart)
	two.Seed = 17
	two.Faults = []faultgen.Event{{Step: 24, Failures: 1}, {Step: 48, Failures: 1}}
	two.Watchdog = mpi.Watchdog{Timeout: 120 * time.Second}
	res := runBoth(t, "CR/spawn/two events", two)
	if len(res.FailedRanks) != 2 || res.Spawned != 2 || res.Deaths != 2 {
		t.Errorf("two-event spawn run: failed ranks %v, %d spawned, %d deaths; want both events' victims",
			res.FailedRanks, res.Spawned, res.Deaths)
	}
	for _, f := range res.FailedRanks {
		g, err := gridOfRank(two.WithDefaults().Grids(), f)
		if err != nil || !slices.Contains(res.LostGrids, g.ID) {
			t.Errorf("two-event spawn run: failed rank %d's grid missing from lost grids %v", f, res.LostGrids)
		}
	}
}

// TestEventChaosCampaign sweeps seeds over the real-failure matrix — the
// failure step and victim ranks differ per seed — and checks that each
// seed's Result is byte-identical across three executions: the goroutine
// path, the event path at the full machine width, and the event path at
// GOMAXPROCS=1. CI runs this under -race, which is what makes the
// GOMAXPROCS sweep meaningful: any scheduling-order dependence in the event
// executor shows up as either a race report or a fingerprint mismatch.
func TestEventChaosCampaign(t *testing.T) {
	seeds := 64
	if testing.Short() {
		seeds = 8
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for seed := 1; seed <= seeds; seed++ {
		tech := CheckpointRestart
		if seed%2 == 1 {
			tech = ResamplingCopying
		}
		for _, mode := range []recovery.Mode{recovery.ModeSpawn, recovery.ModeSubstitute} {
			cfg := fastCfg(tech)
			cfg.RecoveryMode = mode
			cfg.NumFailures = 1
			cfg.RealFailures = true
			cfg.Seed = int64(seed)
			cfg.Watchdog = mpi.Watchdog{Timeout: 120 * time.Second}
			label := fmt.Sprintf("seed %d %v/%v", seed, tech, mode)

			runtime.GOMAXPROCS(prev)
			base := runBoth(t, label, cfg)

			runtime.GOMAXPROCS(1)
			ev := cfg
			ev.Event = true
			narrow, err := Run(ev)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s (event, GOMAXPROCS=1): %v", label, err)
			}
			if !reflect.DeepEqual(base, narrow) {
				t.Errorf("%s: event Result diverges at GOMAXPROCS=1:\n  wide:   %+v\n  narrow: %+v",
					label, base, narrow)
			}
			if t.Failed() {
				return // one divergent seed is enough to diagnose
			}
		}
	}
}

// TestEventWorkersBounds pins the EventWorkers plumbing: an explicit pool
// width of 1 (fully serial executor) still reproduces the goroutine
// Result, including through a repair.
func TestEventWorkersBounds(t *testing.T) {
	cfg := modeCfg(CheckpointRestart, recovery.ModeSpawn)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := cfg
	ev.Event = true
	ev.EventWorkers = 1
	got, err := Run(ev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Errorf("EventWorkers=1 Result diverges:\n  goroutine: %+v\n  event:     %+v", base, got)
	}
}
