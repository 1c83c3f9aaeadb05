package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"ftsg/internal/vtime"
)

// TestRunAllocsPerRank bounds what a fault-injected Run allocates per
// launched rank: two real failures repaired by spawn, checkpoints on the
// mem backend, the always-on flight recorder. A launched rank's state, its
// solver and its repair result live in the run's block, and the failure
// lists and the decoded announcement are the run's, so what is left per
// rank is its goroutine, the Go runtime's parks, the transport's first pool
// misses and the checkpoint store's names. The collector is off from the
// warm-up on (a collection empties the pools and the sudog cache). 6.2
// objects in the median of 20 runs, 26.0 under -race, whose pools drop a
// quarter of what they are given; the bounds are each median + 35 %. It was
// 15.4 (35.4 under -race) when each rank allocated its own state, solver,
// charge closure, repair result, failure sets and announcement copy.
func TestRunAllocsPerRank(t *testing.T) {
	bound := 8.4
	if raceEnabled {
		bound = 35.0
	}
	cfg := Config{
		Technique:         CheckpointRestart,
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
		if len(res.FailedRanks) != 2 || res.Spawned != 2 {
			t.Fatalf("failed ranks %v, %d spawned; want two of each", res.FailedRanks, res.Spawned)
		}
	}
	run() // warm the runtime's and the transport's pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	procs := cfg.WithDefaults().NumProcs()
	perRank := float64(after.Mallocs-before.Mallocs) / float64(procs)
	t.Logf("%.2f objects per launched rank (%d ranks)", perRank, procs)
	if perRank > bound {
		t.Errorf("%.2f objects allocated per launched rank, want <= %v", perRank, bound)
	}
}
