package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ftsg/internal/core"
	"ftsg/internal/faultgen"
	"ftsg/internal/metrics"
)

// The scheduler's contract: for the same Options (up to Workers) every
// experiment returns identical rows, bit for bit, no matter how many workers
// execute the runs or in what order they finish.

// Fig. 8 injects real process failures, and the simulated runtime's
// failure-visibility checks depend on goroutine interleaving: under the race
// detector's perturbed scheduling, virtual repair times jitter by ~1e-4
// relative even between two identical serial runs. That jitter belongs to
// core.Run, not the scheduler, so this test pins the structure exactly and
// the times to a tolerance far below any real regression.
func TestFig8DeterministicAcrossWorkers(t *testing.T) {
	opts := Options{Quick: true, Trials: 2, Steps: 32}
	opts.Workers = 1
	serial, err := Fig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	parallel, err := Fig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("row count differs: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Cores != p.Cores || s.Failures != p.Failures {
			t.Errorf("row %d coordinates differ: %+v vs %+v", i, s, p)
		}
		if !closeTimes(s.ListTime, p.ListTime) || !closeTimes(s.Reconstruct, p.Reconstruct) {
			t.Errorf("row %d times differ beyond simulator jitter:\nserial:   %+v\nparallel: %+v", i, s, p)
		}
	}
}

// closeTimes allows the simulator's scheduling jitter (see above) and
// nothing more.
func closeTimes(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d <= 1e-3*m+1e-12
}

func TestFig10DeterministicAcrossWorkers(t *testing.T) {
	opts := Options{Quick: true, ErrTrials: 4, Steps: 32}
	opts.Workers = 1
	serial, err := Fig10(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	parallel, err := Fig10(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("fig10 rows differ across worker counts:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestSchedErrorCancelsSweep checks mid-sweep failure semantics under
// concurrency (this test is part of the -race suite): the first error in
// submission order is reported through the job's wrap function, no fold
// runs, and the remaining jobs are abandoned rather than executed.
func TestSchedErrorCancelsSweep(t *testing.T) {
	good := core.Config{Technique: core.CheckpointRestart, DiagProcs: 2, Steps: 8, Seed: 1}
	bad := good
	bad.Faults = []faultgen.Event{{Step: 99, Failures: 1}} // outside [1, Steps]: core.Run fails validation

	s := newSched(Options{Workers: 4})
	var folds atomic.Int64
	fold := func(*core.Result) { folds.Add(1) }
	s.Add(good, fold, nil)
	s.Add(bad, fold, func(err error) error { return fmt.Errorf("cell-1: %w", err) })
	s.Add(bad, fold, func(err error) error { return fmt.Errorf("cell-2: %w", err) })
	for i := 0; i < 32; i++ {
		s.Add(good, fold, nil)
	}
	err := s.Run()
	if err == nil {
		t.Fatal("scheduler swallowed the failing run")
	}
	// Both failing jobs are early in the queue; whichever ran, the
	// reported error must be the first one in submission order.
	if got := err.Error(); len(got) < 7 || got[:7] != "cell-1:" {
		t.Errorf("error is not the first failure in submission order: %v", err)
	}
	if n := folds.Load(); n != 0 {
		t.Errorf("%d folds ran despite the sweep failing", n)
	}
	// The queue is cleared: a fresh Run is a no-op.
	if err := s.Run(); err != nil {
		t.Errorf("second Run on a drained scheduler: %v", err)
	}
}

// TestSchedSeedsMatchSerialSchedule pins the seed schedule: trial tr of a
// config runs with Seed + 101*tr, the schedule the serial harness used.
func TestSchedSeedsMatchSerialSchedule(t *testing.T) {
	s := newSched(Options{Workers: 1})
	base := core.Config{Technique: core.CheckpointRestart, DiagProcs: 2, Steps: 8, Seed: 7}
	s.AddTrials(base, 3, func(*core.Result) {}, nil)
	want := []int64{7, 108, 209}
	if len(s.jobs) != 3 {
		t.Fatalf("AddTrials queued %d jobs, want 3", len(s.jobs))
	}
	for i, j := range s.jobs {
		if j.cfg.Seed != want[i] {
			t.Errorf("trial %d seed = %d, want %d", i, j.cfg.Seed, want[i])
		}
	}
}

func TestMeanExactForIdenticalValues(t *testing.T) {
	x := 1.8290881861438863e-05
	for _, n := range []int{1, 2, 4, 8, 16} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = x
		}
		if got := mean(xs); got != x {
			t.Errorf("mean of %d identical values drifted: %.17g != %.17g", n, got, x)
		}
	}
}

// TestAggregateMetricsDeterministic: with an aggregate registry attached,
// (a) the summary is byte-identical across worker counts (per-run registries
// merge in submission order), and (b) tables stay identical to an
// uninstrumented sweep unless Telemetry is also set.
func TestAggregateMetricsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick experiment matrix")
	}
	sweep := func(workers int) (summary, table string) {
		reg := metrics.New()
		o := Options{Quick: true, Trials: 1, ErrTrials: 1, Steps: 16,
			Workers: workers, Metrics: reg}
		rows, err := Fig8(o)
		if err != nil {
			t.Fatal(err)
		}
		var tbl, sum bytes.Buffer
		fig8Report.write(&tbl, rows, false)
		reg.WriteSummary(&sum)
		return sum.String(), tbl.String()
	}
	s1, t1 := sweep(1)
	s8, t8 := sweep(8)
	if s1 != s8 {
		t.Errorf("aggregate summary differs across worker counts:\n%s\nvs\n%s", s1, s8)
	}
	if t1 != t8 {
		t.Errorf("table differs across worker counts:\n%s\nvs\n%s", t1, t8)
	}
	if !strings.Contains(s1, "mpi.sent.messages") {
		t.Errorf("aggregate summary missing mpi counters:\n%s", s1)
	}
	if strings.Contains(t1, "messages") {
		t.Errorf("metrics-only sweep leaked telemetry columns into the table:\n%s", t1)
	}
}
