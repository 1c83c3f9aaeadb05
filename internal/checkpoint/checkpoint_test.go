package checkpoint

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/vtime"
)

// NewStore opens a Store over a local directory with default settings
// (synchronous writes, DefaultGenerations kept). Orphaned temp files from
// earlier interrupted writes are swept.
func NewStore(dir string) (*Store, error) {
	b, err := OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return Open(Options{Backend: b})
}

// withProc runs f on a single simulated process.
func withProc(t *testing.T, m *vtime.Machine, f func(p *mpi.Proc)) {
	t.Helper()
	_, err := mpi.Run(mpi.Options{NProcs: 1, Machine: m, Entry: f})
	if err != nil {
		t.Fatal(err)
	}
}

// withProcMetrics is withProc with an attached metrics registry.
func withProcMetrics(t *testing.T, m *vtime.Machine, reg *metrics.Registry, f func(p *mpi.Proc)) {
	t.Helper()
	_, err := mpi.Run(mpi.Options{NProcs: 1, Machine: m, Metrics: reg, Entry: f})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGenNameMatchesSprintf checks genName byte for byte against the
// Sprintf form it replaces, at the pad widths, past them and below zero.
func TestGenNameMatchesSprintf(t *testing.T) {
	for _, c := range []struct {
		grid, rank int
		gen        uint64
	}{
		{0, 0, 0},
		{7, 42, 3},
		{99, 999, 99999},
		{999, 9999, 999999},
		{1000, 10000, 1000000},
		{123456, 7654321, 1 << 40},
		{-1, -12, 5},
		{-1000, -99999, 0},
		{math.MaxInt, math.MinInt, math.MaxUint64},
	} {
		want := fmt.Sprintf("grid%03d_rank%04d.gen%06d.ckpt", c.grid, c.rank, c.gen)
		if got := genName(c.grid, c.rank, c.gen); got != want {
			t.Errorf("genName(%d, %d, %d) = %q, want %q", c.grid, c.rank, c.gen, got, want)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []float64{1.5, -2.25, math.Pi, 0}
	withProc(t, vtime.OPL(), func(p *mpi.Proc) {
		if err := s.Write(p, 3, 7, 42, data); err != nil {
			t.Error(err)
			return
		}
		step, got, err := s.Read(p, 3, 7)
		if err != nil {
			t.Error(err)
			return
		}
		if step != 42 {
			t.Errorf("step = %d, want 42", step)
		}
		for i := range data {
			if got[i] != data[i] {
				t.Errorf("value %d = %g, want %g", i, got[i], data[i])
			}
		}
	})
}

func TestWriteChargesTIO(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	withProc(t, vtime.OPL(), func(p *mpi.Proc) {
		if err := s.Write(p, 0, 0, 1, []float64{1}); err != nil {
			t.Error(err)
			return
		}
		if got := p.Now(); math.Abs(got-3.52) > 1e-9 {
			t.Errorf("write charged %g s, want OPL T_I/O = 3.52", got)
		}
		if _, _, err := s.Read(p, 0, 0); err != nil {
			t.Error(err)
			return
		}
		if got := p.Now(); math.Abs(got-(3.52+1.10)) > 1e-9 {
			t.Errorf("after read, clock = %g", got)
		}
	})
}

func TestRaijinChargesLess(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	withProc(t, vtime.Raijin(), func(p *mpi.Proc) {
		if err := s.Write(p, 0, 0, 1, []float64{1}); err != nil {
			t.Error(err)
			return
		}
		if got := p.Now(); math.Abs(got-0.03) > 1e-9 {
			t.Errorf("Raijin write charged %g s, want 0.03", got)
		}
	})
}

func TestReadMissing(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	withProc(t, vtime.Generic(), func(p *mpi.Proc) {
		_, _, err := s.Read(p, 9, 9)
		if err == nil {
			t.Error("read of missing checkpoint succeeded")
		}
		if !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("missing checkpoint error = %v, want ErrNoCheckpoint", err)
		}
	})
	if got := s.CandidateSteps(9, 9); len(got) != 0 {
		t.Errorf("CandidateSteps on a missing checkpoint = %v", got)
	}
}

// TestCorruptFallsBackToPreviousGeneration is the headline regression for
// the old hard-fail behaviour: a single flipped byte in the latest
// checkpoint must not make recovery impossible — Read falls back to the
// previous generation and counts the fallback.
func TestCorruptFallsBackToPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	withProcMetrics(t, vtime.Generic(), reg, func(p *mpi.Proc) {
		if err := s.Write(p, 1, 2, 5, []float64{1, 2, 3}); err != nil {
			t.Error(err)
			return
		}
		if err := s.Write(p, 1, 2, 10, []float64{4, 5, 6}); err != nil {
			t.Error(err)
			return
		}
		// Flip a byte in the newest generation's file on disk.
		path := filepath.Join(dir, genName(1, 2, 1))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Error(err)
			return
		}
		raw[30] ^= 0xFF
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Error(err)
			return
		}
		step, data, err := s.Read(p, 1, 2)
		if err != nil {
			t.Errorf("recovery failed despite intact previous generation: %v", err)
			return
		}
		if step != 5 || data[0] != 1 {
			t.Errorf("got step %d value %g, want previous generation (5, 1)", step, data[0])
		}
	})
	if got := reg.Counter("checkpoint.generations.fallback").Value(); got != 1 {
		t.Errorf("fallback counter = %d, want 1", got)
	}
}

// TestAllGenerationsCorruptFallsBackToNoCheckpoint: when every kept
// generation is corrupt, Read reports ErrNoCheckpoint (initial-condition
// recompute) rather than a hard error.
func TestAllGenerationsCorruptFallsBackToNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewStore(dir)
	withProc(t, vtime.Generic(), func(p *mpi.Proc) {
		_ = s.Write(p, 1, 2, 5, []float64{1, 2, 3})
		path := filepath.Join(dir, genName(1, 2, 0))
		raw, _ := os.ReadFile(path)
		raw[len(raw)-1] ^= 0x01 // break the CRC
		_ = os.WriteFile(path, raw, 0o644)
		_, _, err := s.Read(p, 1, 2)
		if !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("err = %v, want ErrNoCheckpoint", err)
		}
	})
}

// TestGenerationRotation: only the configured number of generations is
// kept, and the oldest blobs are deleted from the backend.
func TestGenerationRotation(t *testing.T) {
	b := NewMem()
	s, err := Open(Options{Backend: b, Generations: 2})
	if err != nil {
		t.Fatal(err)
	}
	withProc(t, vtime.Generic(), func(p *mpi.Proc) {
		for step := 1; step <= 5; step++ {
			_ = s.Write(p, 0, 0, step*10, []float64{float64(step)})
		}
		step, data, err := s.Read(p, 0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if step != 50 || data[0] != 5 {
			t.Errorf("latest = (%d, %g), want (50, 5)", step, data[0])
		}
	})
	names := blobNames(t, b)
	if len(names) != 2 {
		t.Errorf("backend holds %d blobs, want 2 (gens 3 and 4): %v", len(names), names)
	}
}

func TestOverwriteKeepsLatest(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	withProc(t, vtime.Generic(), func(p *mpi.Proc) {
		_ = s.Write(p, 0, 0, 10, []float64{1})
		_ = s.Write(p, 0, 0, 20, []float64{2})
		step, data, err := s.Read(p, 0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if step != 20 || data[0] != 2 {
			t.Errorf("got step %d value %g, want latest (20, 2)", step, data[0])
		}
	})
}

// TestCandidateStepsRejectsTruncatedFile: CandidateSteps must peek the
// header and length, not just stat the file — a truncated blob is not a
// usable checkpoint.
func TestCandidateStepsRejectsTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewStore(dir)
	withProc(t, vtime.Generic(), func(p *mpi.Proc) {
		_ = s.Write(p, 0, 0, 10, []float64{1, 2, 3, 4})
	})
	if got := s.CandidateSteps(0, 0); !reflect.DeepEqual(got, []int{10}) {
		t.Fatalf("CandidateSteps on a valid checkpoint = %v, want [10]", got)
	}
	path := filepath.Join(dir, genName(0, 0, 0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Torn write: header intact but payload cut short.
	if err := os.WriteFile(path, raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.CandidateSteps(0, 0); len(got) != 0 {
		t.Errorf("CandidateSteps on a truncated checkpoint = %v", got)
	}
	// Garbage shorter than a header.
	if err := os.WriteFile(path, []byte("FT"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.CandidateSteps(0, 0); len(got) != 0 {
		t.Errorf("CandidateSteps on a 2-byte file = %v", got)
	}
	// Wrong magic, plausible length.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xFF
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.CandidateSteps(0, 0); len(got) != 0 {
		t.Errorf("CandidateSteps on a bad-magic file = %v", got)
	}
}

func TestPaperCount(t *testing.T) {
	if got := PaperCount(100, 3.52); got != 28 {
		t.Errorf("PaperCount(100, 3.52) = %d, want 28", got)
	}
	if got := PaperCount(0.1, 3.52); got != 1 {
		t.Errorf("PaperCount floors at 1, got %d", got)
	}
	if got := PaperCount(10, 0); got != 1 {
		t.Errorf("PaperCount with zero T_I/O = %d", got)
	}
}

func TestYoungInterval(t *testing.T) {
	if got, want := YoungInterval(150, 3.52), math.Sqrt(2*150*3.52); got != want {
		t.Errorf("YoungInterval = %g, want %g", got, want)
	}
	// The defining tradeoff: faster disk, shorter interval.
	if YoungInterval(150, 0.03) >= YoungInterval(150, 3.52) {
		t.Error("faster disk did not shorten the interval")
	}
	if !math.IsInf(YoungInterval(0, 1), 1) {
		t.Error("zero MTBF should disable checkpointing")
	}
}

// TestCheckpointTotalOverheadDropsWithTIO is the Fig. 9b crossover at the
// formula level: with Young's interval, total write overhead count*T_I/O
// shrinks as T_I/O shrinks (unlike the paper's Eq. 2 as printed).
func TestCheckpointTotalOverheadDropsWithTIO(t *testing.T) {
	const steps, stepTime = 8192, 0.04
	mtbf := steps * stepTime / 2
	opl := NewPlan(steps, stepTime, mtbf, 3.52)
	raijin := NewPlan(steps, stepTime, mtbf, 0.03)
	oplOverhead := float64(opl.Count) * 3.52
	raijinOverhead := float64(raijin.Count) * 0.03
	if raijinOverhead >= oplOverhead {
		t.Fatalf("Raijin total checkpoint overhead %g >= OPL %g", raijinOverhead, oplOverhead)
	}
	if raijin.Count <= opl.Count {
		t.Fatalf("Raijin should checkpoint more often: %d vs %d", raijin.Count, opl.Count)
	}
}

// TestPlanFinalStepSuppressed: a checkpoint landing on the run's final step
// is useless (the run is over, nothing can restore from it) and must not be
// counted.
func TestPlanFinalStepSuppressed(t *testing.T) {
	p := NewPlan(50, 1.0, 50, 1.0) // Young: sqrt(2*50*1) = 10 steps
	if p.IntervalSteps != 10 {
		t.Fatalf("interval = %d, want 10", p.IntervalSteps)
	}
	if p.Count != 4 {
		t.Errorf("Count = %d, want 4 (steps 10..40, final 50 suppressed)", p.Count)
	}
	// Interval == run length: the only multiple is the final step itself.
	p = NewPlan(100, 0.001, 1, 100)
	if p.Count != 0 {
		t.Errorf("Count = %d, want 0 when the only due step is the last", p.Count)
	}
}

func TestNewPlanBounds(t *testing.T) {
	// Interval clamped to [1, totalSteps].
	p := NewPlan(100, 1.0, 10000, 1e-9)
	if p.IntervalSteps < 1 {
		t.Fatalf("interval %d < 1", p.IntervalSteps)
	}
	if p.Count != 99 {
		t.Fatalf("count = %d, want 99 (every step but the last)", p.Count)
	}
	p = NewPlan(100, 0.001, 1, 100)
	if p.IntervalSteps > 100 {
		t.Fatalf("interval %d > total steps", p.IntervalSteps)
	}
	if p.TotalSteps != 100 {
		t.Fatalf("TotalSteps = %d, want 100", p.TotalSteps)
	}
}

// flipFileByte flips one byte of a file on disk.
func flipFileByte(t *testing.T, path string, off int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[off] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCandidateStepsAndReadAt covers the restart-negotiation API:
// CandidateSteps lists header-valid generations newest first (free of
// virtual-time charges), and ReadAt fully validates a specific step.
func TestCandidateStepsAndReadAt(t *testing.T) {
	dir := t.TempDir()
	back, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	s, err := Open(Options{Backend: back, Generations: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	withProcMetrics(t, vtime.Generic(), reg, func(p *mpi.Proc) {
		for _, step := range []int{10, 20, 30} {
			if err := s.Write(p, 1, 2, step, []float64{float64(step)}); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.CandidateSteps(1, 2); !reflect.DeepEqual(got, []int{30, 20, 10}) {
			t.Fatalf("CandidateSteps = %v, want [30 20 10]", got)
		}
		before := p.Now()
		s.CandidateSteps(1, 2)
		if p.Now() != before {
			t.Error("CandidateSteps charged virtual time; header peeks must be free")
		}

		// A damaged header drops the generation from the candidate list
		// and counts a fallback; ReadAt can then no longer find the step.
		flipFileByte(t, filepath.Join(dir, genName(1, 2, 2)), 0)
		if got := s.CandidateSteps(1, 2); !reflect.DeepEqual(got, []int{20, 10}) {
			t.Fatalf("CandidateSteps after header damage = %v, want [20 10]", got)
		}
		if got := reg.Counter("checkpoint.generations.fallback").Value(); got == 0 {
			t.Error("header damage did not count a fallback")
		}
		if _, err := s.ReadAt(p, 1, 2, 30); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("ReadAt(30) err = %v, want ErrNoCheckpoint", err)
		}

		// ReadAt targets a step regardless of recency.
		data, err := s.ReadAt(p, 1, 2, 10)
		if err != nil || data[0] != 10 {
			t.Errorf("ReadAt(10) = %v, %v; want [10]", data, err)
		}

		// A valid header over a damaged payload survives CandidateSteps
		// but fails ReadAt's full CRC validation.
		flipFileByte(t, filepath.Join(dir, genName(1, 2, 1)), headerSize+3)
		if got := s.CandidateSteps(1, 2); !reflect.DeepEqual(got, []int{20, 10}) {
			t.Fatalf("CandidateSteps after payload damage = %v, want [20 10]", got)
		}
		fb := reg.Counter("checkpoint.generations.fallback").Value()
		if _, err := s.ReadAt(p, 1, 2, 20); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("ReadAt(20) err = %v, want ErrNoCheckpoint", err)
		}
		if got := reg.Counter("checkpoint.generations.fallback").Value(); got != fb+1 {
			t.Errorf("payload damage fallback count = %d, want %d", got, fb+1)
		}

		// An unknown step is ErrNoCheckpoint, not a hard error.
		if _, err := s.ReadAt(p, 1, 2, 999); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("ReadAt(999) err = %v, want ErrNoCheckpoint", err)
		}
	})
}
