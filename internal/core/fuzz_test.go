package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"ftsg/internal/faultgen"
	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
)

// FuzzRunTinyConfigs fuzzes Validate ∘ WithDefaults ∘ Run on tiny worlds,
// looking for a configuration that validates and then crashes mid-run. Each
// input maps onto a technique, a recovery mode, one or two processes per
// diagonal grid, 1–16 steps, 0–6 failures (simulated grid losses, or real
// kills at step max(1, Steps/2)), with or without extra layers, 0–3
// operation-granularity kills of real runs (AfterOps 1–40, in or out of
// recovery), 0–3 checkpoint generations and a seed. A config
// Validate rejects is skipped. Run may return an error — a rank that gives
// up aborts the job — but must not crash or deadlock; a run that succeeds
// must also keep the invariants that need no control run.
//
//	go test -run '^$' -fuzz '^FuzzRunTinyConfigs$' -fuzztime 60s ./internal/core/
func FuzzRunTinyConfigs(f *testing.F) {
	// tech, mode, diag, steps, fails, real, flat, nops, afterOps, during, gens, seed
	f.Add(uint8(0), uint8(0), uint8(0), uint8(15), uint8(0), false, false, uint8(0), uint32(0), uint8(0), uint8(0), int64(1))
	f.Add(uint8(1), uint8(0), uint8(1), uint8(15), uint8(2), false, false, uint8(0), uint32(0), uint8(0), uint8(0), int64(2))
	f.Add(uint8(2), uint8(0), uint8(0), uint8(7), uint8(3), false, true, uint8(0), uint32(0), uint8(0), uint8(0), int64(3))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(15), uint8(1), true, false, uint8(0), uint32(0), uint8(0), uint8(2), int64(4))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(11), uint8(2), true, false, uint8(0), uint32(0), uint8(0), uint8(0), int64(5))
	f.Add(uint8(2), uint8(0), uint8(1), uint8(15), uint8(2), true, true, uint8(0), uint32(0), uint8(0), uint8(0), int64(6))
	f.Add(uint8(0), uint8(1), uint8(0), uint8(15), uint8(1), true, false, uint8(0), uint32(0), uint8(0), uint8(1), int64(7))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(9), uint8(2), true, false, uint8(1), uint32(4), uint8(1), uint8(0), int64(8))
	f.Add(uint8(2), uint8(1), uint8(0), uint8(15), uint8(0), true, false, uint8(2), uint32(0x0a03), uint8(3), uint8(0), int64(9))
	f.Add(uint8(0), uint8(2), uint8(1), uint8(15), uint8(2), true, false, uint8(0), uint32(0), uint8(0), uint8(3), int64(10))
	f.Add(uint8(1), uint8(2), uint8(0), uint8(13), uint8(1), true, true, uint8(1), uint32(2), uint8(1), uint8(0), int64(11))
	f.Add(uint8(2), uint8(2), uint8(1), uint8(15), uint8(1), true, false, uint8(0), uint32(0), uint8(0), uint8(0), int64(12))
	f.Add(uint8(0), uint8(3), uint8(0), uint8(15), uint8(2), true, false, uint8(0), uint32(0), uint8(0), uint8(2), int64(13))
	f.Add(uint8(1), uint8(3), uint8(1), uint8(15), uint8(1), true, false, uint8(1), uint32(6), uint8(1), uint8(0), int64(14))
	f.Add(uint8(2), uint8(3), uint8(0), uint8(3), uint8(0), true, true, uint8(3), uint32(0x1e0f05), uint8(5), uint8(0), int64(15))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(6), true, false, uint8(0), uint32(0), uint8(0), uint8(1), int64(16))
	f.Add(uint8(1), uint8(0), uint8(1), uint8(15), uint8(6), false, false, uint8(0), uint32(0), uint8(0), uint8(0), int64(17))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(15), uint8(0), true, false, uint8(3), uint32(0x271300), uint8(7), uint8(3), int64(18))
	f.Add(uint8(2), uint8(0), uint8(0), uint8(15), uint8(1), true, false, uint8(2), uint32(0x2701), uint8(0), uint8(0), int64(19))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(15), uint8(0), false, false, uint8(1), uint32(3), uint8(0), uint8(0), int64(20)) // rejected: op kills need real failures
	// A run that aborts dumps its flight recorder to the temp directory.
	f.Setenv("TMPDIR", f.TempDir())
	f.Fuzz(func(t *testing.T, tech, mode, diag, steps, fails uint8, real, flat bool,
		nops uint8, afterOps uint32, during, gens uint8, seed int64) {
		cfg := Config{
			Technique:             Technique(tech % 3),
			RecoveryMode:          recovery.Modes[mode%uint8(len(recovery.Modes))],
			DiagProcs:             1 + int(diag%2),
			Steps:                 1 + int(steps%16),
			CheckpointGenerations: int(gens % 4),
			CheckpointBackend:     "mem",
			Seed:                  seed,
			Watchdog:              mpi.Watchdog{Timeout: 30 * time.Second},
		}
		if flat {
			cfg.ExtraLayers = -1
		}
		// Real failures are the shorthand's event plus the op kills; without
		// real, the failures are simulated grid losses and op kills have no
		// place.
		switch {
		case !real && nops%4 > 0:
			t.Skip("op kills need real failures")
		case !real:
			cfg.NumFailures = int(fails % 7)
		case fails%7 > 0:
			cfg.Faults = []faultgen.Event{{Step: max(1, cfg.Steps/2), Failures: int(fails % 7)}}
		}
		for i := 0; i < int(nops%4); i++ {
			cfg.Faults = append(cfg.Faults, faultgen.Event{
				AfterOps:       1 + int(afterOps>>(8*i)%40),
				DuringRecovery: during>>i&1 == 1,
				Failures:       1,
			})
		}
		if cfg.WithDefaults().Validate() != nil {
			t.Skip("rejected by Validate")
		}
		res, err := Run(cfg)
		var stall *mpi.StallError
		if errors.As(err, &stall) {
			t.Fatalf("%+v deadlocked:\n%v", cfg, err)
		}
		if err != nil {
			return // the job aborted with a cause: an outcome, not a crash
		}
		if slices.Contains(res.FailedRanks, 0) {
			t.Errorf("rank 0 reported as failed: %v", res.FailedRanks)
		}
		if cfg.RecoveryMode == recovery.ModeShrink || cfg.RecoveryMode == recovery.ModeNoRepair {
			if res.Deaths != len(res.FailedRanks) {
				t.Errorf("%v: %d deaths but %d failed ranks reported", cfg.RecoveryMode, res.Deaths, len(res.FailedRanks))
			}
			if res.FinalProcs != res.Procs-len(res.FailedRanks) {
				t.Errorf("%v: final size %d, want %d minus %d failed", cfg.RecoveryMode, res.FinalProcs, res.Procs, len(res.FailedRanks))
			}
		}
	})
}
