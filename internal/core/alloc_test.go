package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"ftsg/internal/combine"
	"ftsg/internal/recovery"
	"ftsg/internal/vtime"
)

// TestRunAllocsPerRank bounds what a fault-injected Run allocates per
// launched rank: two real failures, checkpoints on the mem backend, the
// always-on flight recorder. A launched rank's state, its solver and its
// repair result live in the run's block, the recovery-mode state and the
// combination scheme are the communicator's, a generation is a number, and
// a checkpoint blob and CR's restore negotiation lists are recycled pool
// buffers, so what is left per rank is its goroutine, the Go runtime's
// parks and the transport's first pool misses. The collector is off from
// the warm-up on (a collection empties the pools and the sudog cache). The
// medians of 10 runs:
//
//   - CR spawn, 176 ranks: 4.8 objects (5.2 while each restoring rank grew
//     its own candidate list and offer; 6.2 while the store named each
//     generation with a string; 15.4 when each rank allocated its own
//     state, solver, repair result and failure sets);
//   - CR shrink, 176 ranks: 3.4 objects, every rank starting on the
//     identity map and sharing each shrunk communicator's map (7.5 objects
//     and ≈ 2.8 KiB more per rank when each built its own identity map and
//     shrunk copies);
//   - AC shrink, 196 ranks: 3.2 objects, and RC shrink, 304 ranks: 3.05
//     (7.1 and 8.0 while each rank derived its own abandoned set, its lists
//     and the grids left to recover).
//
// Under -race, whose pools drop a quarter of what they are given, the
// medians are 24.6, 23.6, 20.1 and 20.0. The bounds are each median + 35 %.
func TestRunAllocsPerRank(t *testing.T) {
	for _, tc := range []struct {
		name          string
		tech          Technique
		mode          recovery.Mode
		spawned       int     // replacements the repair must have spawned
		objects, race float64 // per launched rank: plain and -race bounds
	}{
		{"spawn", CheckpointRestart, recovery.ModeSpawn, 2, 6.5, 33.3},
		{"shrink", CheckpointRestart, recovery.ModeShrink, 0, 4.6, 31.9},
		{"AC_shrink", AlternateCombination, recovery.ModeShrink, 0, 4.3, 27.1},
		{"RC_shrink", ResamplingCopying, recovery.ModeShrink, 0, 4.1, 27.0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bound := tc.objects
			if raceEnabled {
				bound = tc.race
			}
			cfg := Config{
				Technique:         tc.tech,
				RecoveryMode:      tc.mode,
				DiagProcs:         32,
				Steps:             32,
				Machine:           vtime.OPL(),
				NumFailures:       2,
				RealFailures:      true,
				CheckpointBackend: "mem",
				Seed:              1,
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			run := func() {
				t.Helper()
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.FailedRanks) != 2 || res.Spawned != tc.spawned {
					t.Fatalf("failed ranks %v, %d spawned; want two failed and %d spawned", res.FailedRanks, res.Spawned, tc.spawned)
				}
			}
			run() // warm the runtime's and the transport's pools
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			procs := cfg.WithDefaults().NumProcs()
			perRank := float64(after.Mallocs-before.Mallocs) / float64(procs)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(procs)
			t.Logf("%.2f objects, %.0f bytes per launched rank (%d ranks)", perRank, bytes, procs)
			if perRank > bound {
				t.Errorf("%.2f objects allocated per launched rank, want <= %v", perRank, bound)
			}
		})
	}
}

// TestNumProcsCountsWithoutGrids checks that NumProcs, which Validate, Run
// and the harness call per configuration, is the sum over Grids for every
// layout the goldens run (the default n = 8, l = 4, the level sweep's
// n = 9, l = 4..6, app_1k's n = 10) and past them, for every technique,
// extra-layer count and group size — and that it builds no grid list.
func TestNumProcsCountsWithoutGrids(t *testing.T) {
	for _, ly := range []combine.Layout{{N: 8, L: 4}, {N: 9, L: 4}, {N: 9, L: 5}, {N: 9, L: 6}, {N: 10, L: 4}, {N: 12, L: 7}} {
		for _, tech := range []Technique{CheckpointRestart, ResamplingCopying, AlternateCombination} {
			for _, layers := range []int{-1, 0, 1, 2, 3} {
				for _, diag := range []int{1, 2, 8, 32, 128} {
					cfg := Config{Layout: ly, Technique: tech, ExtraLayers: layers, DiagProcs: diag}
					want := 0
					for _, g := range cfg.Grids() {
						want += g.Procs
					}
					if got := cfg.NumProcs(); got != want {
						t.Errorf("%+v %v layers %d diag %d: NumProcs = %d, grids hold %d", ly, tech, layers, diag, got, want)
					}
				}
			}
		}
	}
	cfg := Config{Layout: combine.Layout{N: 10, L: 4}, Technique: AlternateCombination, DiagProcs: 128}
	if n := testing.AllocsPerRun(100, func() { cfg.NumProcs() }); n != 0 {
		t.Errorf("NumProcs allocates %.1f objects, want 0", n)
	}
}

// TestRunBytesPerRank bounds the bytes a fault-injected Run allocates per
// launched rank at a size where a per-member copy of a broadcast's result
// shows: n = 11, l = 4, 256 ranks per diagonal grid, 16 steps, two real
// failures, checkpoints on the mem backend. Each configuration's first run
// in the process is measured, with the collector off: a second run finds
// the first one's buffers in the transport's pool. The rows run in one
// order, RC first, so what each finds in the pools does not depend on
// which tests were selected. Medians of eleven runs (RC) and fourteen (CR):
//
//   - RC, 2 434 ranks: 224.9 KiB (223.9–225.6). Its data recovery
//     broadcasts each restored grid over the lost grid's 256-member group;
//     while every member received a private copy, a run read 272–326 KiB.
//   - CR, 1 410 ranks: 302 KiB, spread 223–480. The group
//     that restarts from the initial condition builds the whole grid on
//     each member (crRestart), and how many of those are alive at once
//     depends on scheduling.
//
// The bounds are RC's median + 7 % and CR's largest run + 25 %.
func TestRunBytesPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build's sync.Pool drops items at random")
	}
	for _, tc := range []struct {
		name  string
		tech  Technique
		procs int
		kib   float64 // bound per launched rank
	}{
		{"RC", ResamplingCopying, 2434, 240},
		{"CR", CheckpointRestart, 1410, 600},
	} {
		cfg := Config{
			Layout:            combine.Layout{N: 11, L: 4},
			Technique:         tc.tech,
			DiagProcs:         256,
			Steps:             16,
			Machine:           vtime.OPL(),
			NumFailures:       2,
			RealFailures:      true,
			CheckpointBackend: "mem",
			Seed:              1,
		}
		runtime.GC()
		old := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg)
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(old)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if launched := cfg.WithDefaults().NumProcs() + res.Spawned; len(res.FailedRanks) != 2 || launched != tc.procs {
			t.Fatalf("%s: failed ranks %v, %d launched; want two failed and %d launched", tc.name, res.FailedRanks, launched, tc.procs)
		}
		kib := float64(after.TotalAlloc-before.TotalAlloc) / float64(tc.procs) / 1024
		t.Logf("%s: %.1f KiB per launched rank (%d ranks, %.0f MiB)", tc.name, kib, tc.procs, kib*float64(tc.procs)/1024)
		if kib > tc.kib {
			t.Errorf("%s: %.1f KiB allocated per launched rank, want <= %v", tc.name, kib, tc.kib)
		}
	}
}
