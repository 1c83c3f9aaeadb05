package ftsg

// Benchmarks regenerating the paper's evaluation, one per table/figure,
// plus ablations for the design decisions called out in DESIGN.md. Wall
// time per op reflects the simulation; the paper's quantities are the
// virtual-time custom metrics (suffix "vsec").
//
//	go test -bench=. -benchmem

import (
	"math"
	"runtime"
	"testing"

	"ftsg/internal/core"
	"ftsg/internal/grid"
	"ftsg/internal/harness"
	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
	"ftsg/internal/vtime"
)

// benchSteps keeps per-iteration runs small; recovery costs are
// step-count-independent.
const benchSteps = 32

func runBench(b *testing.B, cfg core.Config) *core.Result {
	b.Helper()
	res, err := core.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig8FailedList regenerates Fig. 8a: the time to create a
// globally consistent list of failed processes (detection agree + barrier +
// group algebra), at the paper's 76-core scale with two real failures.
func BenchmarkFig8FailedList(b *testing.B) {
	b.ReportAllocs()
	var list float64
	for i := 0; i < b.N; i++ {
		res := runBench(b, core.Config{
			Technique:    core.ResamplingCopying,
			DiagProcs:    8,
			Steps:        benchSteps,
			NumFailures:  2,
			RealFailures: true,
			Seed:         int64(41 + i),
		})
		list += res.ListTime
	}
	b.ReportMetric(list/float64(b.N), "list-vsec/op")
}

// BenchmarkFig8Reconstruct regenerates Fig. 8b: communicator
// reconstruction time at 76 cores, one vs two failures reported as
// separate metrics.
func BenchmarkFig8Reconstruct(b *testing.B) {
	b.ReportAllocs()
	var one, two float64
	for i := 0; i < b.N; i++ {
		for _, f := range []int{1, 2} {
			res := runBench(b, core.Config{
				Technique:    core.ResamplingCopying,
				DiagProcs:    8,
				Steps:        benchSteps,
				NumFailures:  f,
				RealFailures: true,
				Seed:         int64(43 + i),
			})
			if f == 1 {
				one += res.ReconstructTime
			} else {
				two += res.ReconstructTime
			}
		}
	}
	b.ReportMetric(one/float64(b.N), "reconstruct-1f-vsec/op")
	b.ReportMetric(two/float64(b.N), "reconstruct-2f-vsec/op")
}

// BenchmarkTable1Components regenerates Table I at 76 cores, two failures:
// the per-component times of the beta fault-tolerant Open MPI.
func BenchmarkTable1Components(b *testing.B) {
	b.ReportAllocs()
	var spawn, shrink, agree, merge float64
	for i := 0; i < b.N; i++ {
		res := runBench(b, core.Config{
			Technique:    core.ResamplingCopying,
			DiagProcs:    8,
			Steps:        benchSteps,
			NumFailures:  2,
			RealFailures: true,
			Seed:         int64(61 + i),
		})
		spawn += res.SpawnTime
		shrink += res.ShrinkTime
		agree += res.AgreeTime
		merge += res.MergeTime
	}
	n := float64(b.N)
	b.ReportMetric(spawn/n, "spawn-vsec/op")
	b.ReportMetric(shrink/n, "shrink-vsec/op")
	b.ReportMetric(agree/n, "agree-vsec/op")
	b.ReportMetric(merge/n, "merge-vsec/op")
}

// BenchmarkFig9Recovery regenerates Fig. 9a: data-recovery overhead for the
// three techniques with two simulated lost grids, on OPL.
func BenchmarkFig9Recovery(b *testing.B) {
	b.ReportAllocs()
	for _, tech := range []core.Technique{core.CheckpointRestart, core.ResamplingCopying, core.AlternateCombination} {
		b.Run(tech.String(), func(b *testing.B) {
			b.ReportAllocs()
			var overhead float64
			for i := 0; i < b.N; i++ {
				res := runBench(b, core.Config{
					Technique:   tech,
					DiagProcs:   8,
					Steps:       benchSteps,
					NumFailures: 2,
					Seed:        int64(71 + i),
				})
				overhead += res.RecoveryOverhead()
			}
			b.ReportMetric(overhead/float64(b.N), "recovery-vsec/op")
		})
	}
}

// BenchmarkFig9ProcessTime regenerates Fig. 9b's headline comparison: CR's
// normalized process-time overhead on OPL vs Raijin (the disk-latency
// crossover).
func BenchmarkFig9ProcessTime(b *testing.B) {
	b.ReportAllocs()
	pc := core.Config{Technique: core.CheckpointRestart, DiagProcs: 8}.WithDefaults().NumProcs()
	for _, m := range []*vtime.Machine{vtime.OPL(), vtime.Raijin()} {
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			var pt float64
			for i := 0; i < b.N; i++ {
				res := runBench(b, core.Config{
					Technique:   core.CheckpointRestart,
					Machine:     m,
					DiagProcs:   8,
					Steps:       benchSteps,
					NumFailures: 1,
					Seed:        int64(73 + i),
				})
				pt += res.ProcessTimeOverhead(pc)
			}
			b.ReportMetric(pt/float64(b.N), "process-time-vsec/op")
		})
	}
}

// BenchmarkFig10Error regenerates Fig. 10: the l1 approximation error with
// two lost grids per technique (error-free recovery for CR, approximate for
// RC and AC).
func BenchmarkFig10Error(b *testing.B) {
	b.ReportAllocs()
	for _, tech := range []core.Technique{core.CheckpointRestart, core.ResamplingCopying, core.AlternateCombination} {
		b.Run(tech.String(), func(b *testing.B) {
			b.ReportAllocs()
			var errSum float64
			for i := 0; i < b.N; i++ {
				res := runBench(b, core.Config{
					Technique:   tech,
					DiagProcs:   8,
					Steps:       64,
					NumFailures: 2,
					Seed:        int64(91 + i),
				})
				errSum += res.L1Error
			}
			b.ReportMetric(errSum/float64(b.N)*1e6, "l1-error-x1e6/op")
		})
	}
}

// BenchmarkFig11Overall regenerates Fig. 11a at the 76-core scale: overall
// execution time per technique with two real failures.
func BenchmarkFig11Overall(b *testing.B) {
	b.ReportAllocs()
	for _, tech := range []core.Technique{core.CheckpointRestart, core.ResamplingCopying, core.AlternateCombination} {
		b.Run(tech.String(), func(b *testing.B) {
			b.ReportAllocs()
			var total float64
			for i := 0; i < b.N; i++ {
				res := runBench(b, core.Config{
					Technique:    tech,
					DiagProcs:    8,
					Steps:        benchSteps,
					NumFailures:  2,
					RealFailures: true,
					Seed:         int64(111 + i),
				})
				total += res.TotalTime
			}
			b.ReportMetric(total/float64(b.N), "total-vsec/op")
		})
	}
}

// BenchmarkAblationDetection compares the paper's detection idiom
// (agree + barrier, uniform result) against a bare barrier (non-uniform):
// the virtual cost of the uniform path at 76 cores.
func BenchmarkAblationDetection(b *testing.B) {
	b.ReportAllocs()
	for _, uniform := range []bool{true, false} {
		name := "barrier-only"
		if uniform {
			name = "agree+barrier"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var cost float64
			for i := 0; i < b.N; i++ {
				var after float64
				_, err := mpi.Run(mpi.Options{NProcs: 76, Machine: vtime.OPL(), Entry: func(p *mpi.Proc) {
					c := p.World()
					if uniform {
						_, _ = c.Agree(1)
					}
					_ = c.Barrier()
					if c.Rank() == 0 {
						after = p.Now()
					}
				}})
				if err != nil {
					b.Fatal(err)
				}
				cost += after
			}
			b.ReportMetric(cost/float64(b.N), "detect-vsec/op")
		})
	}
}

// BenchmarkAblationRankReorder quantifies what the ordering Split of
// Fig. 7 — the step that restores the pre-failure rank layout so the
// application's communication pattern is undisturbed — costs relative to
// the whole reconstruction: it runs the paper's Fig. 2 scenario and reports
// both the split time and the total repair time.
func BenchmarkAblationRankReorder(b *testing.B) {
	b.ReportAllocs()
	var split, total float64
	for i := 0; i < b.N; i++ {
		var s, tot float64
		_, err := mpi.Run(mpi.Options{NProcs: 19, Machine: vtime.OPL(), Entry: func(p *mpi.Proc) {
			var st recovery.Stats
			if parent := p.Parent(); parent != nil {
				if _, _, err := recovery.Reconstruct(p, nil, parent, &st); err != nil {
					b.Error(err)
				}
				return
			}
			c := p.World()
			if c.Rank() == 3 || c.Rank() == 5 {
				p.Kill()
			}
			rec, rank, err := recovery.Reconstruct(p, c, nil, &st)
			if err != nil {
				b.Error(err)
				return
			}
			if rec.Size() != 19 || rank != c.Rank() {
				b.Errorf("reorder broken: size %d rank %d", rec.Size(), rank)
			}
			if rank == 0 {
				s = st.SplitTime
				tot = st.ReconstructTime
			}
		}})
		if err != nil {
			b.Fatal(err)
		}
		split += s
		total += tot
	}
	b.ReportMetric(split/float64(b.N), "split-vsec/op")
	b.ReportMetric(total/float64(b.N), "reconstruct-vsec/op")
}

// BenchmarkAccumulateSampled measures the combination hot kernel at the
// full-grid target size used by every combine: bilinear resampling of a
// sub-grid accumulated into the target. The row-separable kernel reuses
// pooled per-column tables, so steady state allocates nothing.
func BenchmarkAccumulateSampled(b *testing.B) {
	b.ReportAllocs()
	target := grid.New(grid.Level{I: 9, J: 9})
	src := grid.New(grid.Level{I: 9, J: 5})
	src.Fill(func(x, y float64) float64 { return x * y })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target.AccumulateSampled(src, 0.5)
	}
}

// BenchmarkHarnessParallel measures the experiment scheduler on a quick
// Fig. 8 sweep, serial vs one worker per CPU. On a multi-core host the
// parallel case approaches linear speedup; the rows are byte-identical
// either way. On a 1-CPU host workers=0 resolves to a single inline
// worker — identical to serial by construction — so the per-cpu case is
// skipped there rather than recording a meaningless "no speedup" pair in
// the snapshot (internal/harness's pool tests assert the speedup where
// one is possible).
func BenchmarkHarnessParallel(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "per-cpu"
		}
		b.Run(name, func(b *testing.B) {
			resolved := workers
			if resolved == 0 {
				resolved = runtime.GOMAXPROCS(0)
			}
			if workers == 0 && resolved < 2 {
				b.Skip("per-cpu equals serial by design on a single-CPU host")
			}
			b.ReportAllocs()
			b.ReportMetric(float64(resolved), "workers")
			for i := 0; i < b.N; i++ {
				opts := harness.Options{Quick: true, Trials: 1, Steps: benchSteps, Workers: workers}
				if _, err := harness.Fig8(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCheckpointBackend compares the checkpoint store's
// backends on a CR run with one real failure and a Young interval short
// enough that several generations are written and recovery reads one back.
// Virtual-time results are identical in both cells by construction — the
// accounting model charges the same TIO costs either way — so ns/op
// isolates the real storage cost: the mem backend removes filesystem
// traffic entirely.
func BenchmarkAblationCheckpointBackend(b *testing.B) {
	base := core.Config{
		Technique:    core.CheckpointRestart,
		DiagProcs:    4,
		Steps:        benchSteps,
		NumFailures:  1,
		RealFailures: true,
		Seed:         5,
	}
	base.Layout.N, base.Layout.L = 6, 4
	filled := base.WithDefaults()
	stepTime := filled.EstimateStepTime()
	base.MTBF = math.Pow(8*stepTime, 2) / (2 * filled.Machine.TIOWrite)
	for _, backend := range []string{"dir", "mem"} {
		b.Run(backend, func(b *testing.B) {
			b.ReportAllocs()
			var total float64
			for i := 0; i < b.N; i++ {
				cfg := base
				cfg.CheckpointBackend = backend
				res := runBench(b, cfg)
				total += res.TotalTime
			}
			b.ReportMetric(total/float64(b.N), "total-vsec/op")
		})
	}
}
