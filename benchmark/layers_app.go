package main

import (
	"fmt"
	"time"

	"ftsg/internal/core"
	"ftsg/internal/harness"
	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
	"ftsg/internal/vtime"
)

// --- recovery ---------------------------------------------------------------

// reconstructOnce repairs a two-victim world of n ranks under the given
// mode and returns rank 0's host seconds inside the reconstruct call; the
// world is built, and the victims are dead, before the clock starts.
func reconstructOnce(n int, mode recovery.Mode, event bool) (float64, error) {
	victims := drawVictims(1, n)
	isVictim := func(r int) bool { return r == victims[0] || r == victims[1] }
	wantSize := n
	if mode == recovery.ModeShrink {
		wantSize = n - 2
	}
	var sink errSink
	var seconds float64
	finish := func(rank0 bool, start time.Time, res *recovery.ModeResult, err error) {
		if err != nil || res.Comm.Size() != wantSize {
			sink.add("reconstruct (%v): %v", mode, err)
			return
		}
		if rank0 {
			seconds = time.Since(start).Seconds()
		}
	}
	o := mpi.Options{NProcs: n, Machine: vtime.OPL(), EventWorkers: workers()}
	if mode == recovery.ModeSubstitute {
		o.SpareRanks = 8
	}
	if event {
		o.EventEntry = func(p *mpi.Proc, f *mpi.Fiber) {
			st := new(recovery.Stats)
			if parent := p.Parent(); parent != nil {
				recovery.FiberReconstructMode(p, f, nil, parent, st, recovery.SameHostPlacement, mode, nil, func(res *recovery.ModeResult, err error) {
					finish(false, time.Time{}, res, err)
				})
				return
			}
			c := p.World()
			if isVictim(c.Rank()) {
				p.Kill()
			}
			start := time.Now()
			recovery.FiberReconstructMode(p, f, c, nil, st, recovery.SameHostPlacement, mode, identity(n), func(res *recovery.ModeResult, err error) {
				finish(c.Rank() == 0, start, res, err)
			})
		}
	} else {
		o.Entry = func(p *mpi.Proc) {
			var st recovery.Stats
			if parent := p.Parent(); parent != nil {
				res, err := recovery.ReconstructMode(p, nil, parent, &st, recovery.SameHostPlacement, mode, nil)
				finish(false, time.Time{}, res, err)
				return
			}
			c := p.World()
			if isVictim(c.Rank()) {
				p.Kill()
			}
			start := time.Now()
			res, err := recovery.ReconstructMode(p, c, nil, &st, recovery.SameHostPlacement, mode, identity(n))
			finish(c.Rank() == 0, start, res, err)
		}
	}
	if _, err := mpi.Run(o); err != nil {
		return 0, err
	}
	return seconds, sink.err()
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func layerRecovery(sz sizes, out *layerOut) error {
	n := sz.midRanks
	for _, c := range []struct {
		name  string
		mode  recovery.Mode
		event bool
	}{
		{"spawn", recovery.ModeSpawn, false},
		{"spawn.event", recovery.ModeSpawn, true},
		{"shrink", recovery.ModeShrink, false},
		{"substitute", recovery.ModeSubstitute, false},
	} {
		var samples []float64
		for i := 0; i < sz.repeats; i++ {
			s, err := reconstructOnce(n, c.mode, c.event)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		}
		s := summarize(samples)
		out.set("recovery.reconstruct_ms.1024."+c.name, s.Median*1e3,
			fmt.Sprintf("n=%d repairs of %d ranks, two victims, rank 0 inside ReconstructMode, min=%.4g max=%.4g ms", s.N, n, s.Min*1e3, s.Max*1e3))
	}
	return nil
}

// --- core -------------------------------------------------------------------

func layerCore(sz sizes, out *layerOut) error {
	// What attaching the telemetry registry costs a 76-rank run with two
	// real failures: medians of alternating runs, on over off.
	run := func(telemetry bool) (float64, error) {
		start := time.Now()
		_, err := core.Run(core.Config{
			Technique:         core.ResamplingCopying,
			DiagProcs:         8,
			Steps:             64,
			NumFailures:       2,
			RealFailures:      true,
			CheckpointBackend: "mem",
			Seed:              1,
			Telemetry:         telemetry,
		})
		return time.Since(start).Seconds(), err
	}
	var off, on []float64
	for i := 0; i < max(sz.samples/100, 2); i++ {
		a, err := run(false)
		if err != nil {
			return err
		}
		b, err := run(true)
		if err != nil {
			return err
		}
		off, on = append(off, a), append(on, b)
	}
	out.set("core.telemetry_overhead_share", median(on)/median(off)-1,
		fmt.Sprintf("n=%d pairs of 76-rank RC runs, median on %.4g s over median off %.4g s, minus 1", len(on), median(on), median(off)))
	return nil
}

// --- harness ----------------------------------------------------------------

func layerHarness(sz sizes, out *layerOut) error {
	const tasks = 10000
	sched := distOf(timeOps(max(sz.samples/50, 3), func() {
		_ = harness.ParallelOrdered(workers(), tasks, func(int) error { return nil })
	}))
	out.setDist("harness.sched_us_per_task", sched, 1e6/tasks, fmt.Sprintf("per no-op task, ParallelOrdered over %d tasks on %d workers", tasks, workers()))

	// The scheduler's speed-up on real work: a quick Fig. 9 serial over the
	// same sweep on one worker per processor.
	fig9 := func(w int) (float64, error) {
		o := harness.Options{Quick: true, Trials: 1, Steps: 32, Workers: w, CkptBackend: "mem"}
		start := time.Now()
		_, err := harness.Fig9(o)
		return time.Since(start).Seconds(), err
	}
	serial, err := fig9(1)
	if err != nil {
		return err
	}
	parallel, err := fig9(workers())
	if err != nil {
		return err
	}
	out.set("harness.parallel_speedup", serial/parallel,
		fmt.Sprintf("quick Fig. 9: %.4g s on 1 worker over %.4g s on %d", serial, parallel, workers()))

	// How many of the sweep's smallest worlds one core gets through.
	runs := max(sz.samples/50, 3)
	start := time.Now()
	for i := 0; i < runs; i++ {
		if _, err := core.Run(core.Config{Technique: core.ResamplingCopying, DiagProcs: 2, Steps: 32, CheckpointBackend: "mem", Seed: int64(i)}); err != nil {
			return err
		}
	}
	out.set("harness.small_world_runs_per_s", float64(runs)/time.Since(start).Seconds(),
		fmt.Sprintf("n=%d serial failure-free 19-rank core.Run of 32 steps", runs))
	return nil
}
