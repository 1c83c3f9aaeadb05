package core

import (
	"testing"

	"ftsg/internal/faultgen"
	"ftsg/internal/recovery"
)

// BenchmarkRepairMode measures one full CR run with a mid-run two-process
// failure under each recovery mode, so the per-mode cost of the repair
// protocol (spawn round-trips vs shrink-only vs spare claiming vs the
// no-repair baseline) shows up side by side in the snapshot.
func BenchmarkRepairMode(b *testing.B) {
	for _, mode := range recovery.Modes {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := fastCfg(CheckpointRestart)
			cfg.Faults = []faultgen.Event{{Step: 24, Failures: 2}}
			cfg.RecoveryMode = mode
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.FailedRanks) != 2 {
					b.Fatalf("%s: failed ranks %v, want 2", mode, res.FailedRanks)
				}
			}
		})
	}
}
