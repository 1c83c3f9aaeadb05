package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"ftsg/internal/checkpoint"
	"ftsg/internal/metrics"
	"ftsg/internal/trace"
	"ftsg/internal/vtime"
)

// ckptChaosCfg is a CR run with real failures and an MTBF small enough to
// force several interior checkpoints, so the recovery path actually reads
// the store back.
func ckptChaosCfg() Config {
	cfg := fastCfg(CheckpointRestart)
	cfg.NumFailures = 1
	cfg.RealFailures = true
	cfg.Seed = 5
	// Target a checkpoint interval of ~8 steps via Young's formula:
	// sqrt(2*mtbf*tio)/stepTime = 8  =>  mtbf = (8*stepTime)^2 / (2*tio).
	stepTime := cfg.WithDefaults().EstimateStepTime()
	cfg.MTBF = math.Pow(8*stepTime, 2) / (2 * cfg.Machine.TIOWrite)
	return cfg
}

// ckptFingerprint runs one CR configuration and folds everything observable
// into a string: total virtual time bits, L1 bits, the full metrics
// summary, and the full Chrome trace export.
func ckptFingerprint(t *testing.T, cfg Config) string {
	t.Helper()
	reg := metrics.New()
	rec := trace.New()
	cfg.Metrics = reg
	cfg.Trace = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "total=%016x l1=%016x writes=%d\n",
		math.Float64bits(res.TotalTime), math.Float64bits(res.L1Error), res.CheckpointWrites)
	reg.WriteSummary(&b)
	if err := rec.ExportChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCheckpointBackendDeterminism pins the store's determinism: a CR run
// with real failures produces bit-identical results — virtual time, L1
// error, every metric, the whole trace — on either backend, across
// GOMAXPROCS settings. The backend may only change wall-clock behaviour,
// never anything observable.
func TestCheckpointBackendDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := ckptChaosCfg()
	var want string
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		for _, backend := range []string{"dir", "mem"} {
			cfg := base
			cfg.CheckpointBackend = backend
			got := ckptFingerprint(t, cfg)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("fingerprint diverged at GOMAXPROCS=%d backend=%s", procs, backend)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestCRRecoversFromCorruptCheckpoints is the end-to-end regression for the
// old hard-fail: with every backend read corrupted, a CR run with a real
// failure must still complete — falling back through generations to the
// initial condition — and converge to the same solution as the clean run.
func TestCRRecoversFromCorruptCheckpoints(t *testing.T) {
	clean := ckptChaosCfg()
	ref, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.New()
	cfg := ckptChaosCfg()
	cfg.Metrics = reg
	cfg.CheckpointFaults = &checkpoint.FaultPlan{Seed: 7, ReadCorrupt: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("CR run failed outright on corrupt checkpoints: %v", err)
	}
	// Every restore fell back to the initial condition and recomputed, so
	// the final solution must be bit-identical to the clean run's.
	if res.L1Error != ref.L1Error {
		t.Errorf("L1 = %g, want clean run's %g", res.L1Error, ref.L1Error)
	}
	if got := reg.Counter("checkpoint.generations.fallback").Value(); got == 0 {
		t.Error("fallback counter is 0; the corrupt-read path never ran")
	}
	// The full-recompute path costs more virtual time than a checkpoint
	// restore would have.
	if res.TotalTime < ref.TotalTime {
		t.Errorf("corrupt run total %g below clean run %g", res.TotalTime, ref.TotalTime)
	}
}

// TestCRSurvivesWriteErrors: injected backend write failures (including
// torn writes) must never fail the run — recovery reads fall back past
// them.
func TestCRSurvivesWriteErrors(t *testing.T) {
	reg := metrics.New()
	cfg := ckptChaosCfg()
	cfg.Metrics = reg
	cfg.CheckpointGenerations = 3
	cfg.CheckpointFaults = &checkpoint.FaultPlan{Seed: 11, WriteErr: 0.5, WriteShort: 0.3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run failed under write faults: %v", err)
	}
	if res.L1Error <= 0 || res.L1Error > 0.05 {
		t.Errorf("L1 error %g out of range", res.L1Error)
	}
	if got := reg.Counter("checkpoint.write.errors").Value(); got == 0 {
		t.Error("write-error counter is 0; WriteErr=0.5 never fired")
	}
}

// TestMemBackendMatchesDirResult: the in-memory backend must be a drop-in
// replacement — bit-identical results to the dir backend.
func TestMemBackendMatchesDirResult(t *testing.T) {
	cfg := ckptChaosCfg()
	dir, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointBackend = "mem"
	mem, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dir.TotalTime != mem.TotalTime || dir.L1Error != mem.L1Error ||
		dir.CheckpointWrites != mem.CheckpointWrites {
		t.Errorf("mem backend diverged: total %v vs %v, l1 %v vs %v, writes %d vs %d",
			mem.TotalTime, dir.TotalTime, mem.L1Error, dir.L1Error,
			mem.CheckpointWrites, dir.CheckpointWrites)
	}
}

// TestGenerationsConfigValidated: config-level validation of the new knobs.
func TestGenerationsConfigValidated(t *testing.T) {
	cfg := fastCfg(CheckpointRestart)
	cfg.CheckpointBackend = "s3"
	if _, err := Run(cfg); err == nil {
		t.Error("unknown backend accepted")
	}
	cfg = fastCfg(CheckpointRestart)
	cfg.CheckpointFaults = &checkpoint.FaultPlan{ReadCorrupt: 1.5}
	if _, err := Run(cfg); err == nil {
		t.Error("out-of-range fault probability accepted")
	}
	cfg = fastCfg(CheckpointRestart)
	cfg.CheckpointGenerations = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative generation count accepted")
	}
}

// TestRaijinStillFasterWithMem sanity-checks that backend choice composes
// with machine profiles: vtime.Raijin stays cheaper than OPL on the mem
// backend too (the accounting is simulated, not real I/O).
func TestRaijinStillFasterWithMem(t *testing.T) {
	opl := ckptChaosCfg()
	opl.CheckpointBackend = "mem"
	raijin := ckptChaosCfg()
	raijin.CheckpointBackend = "mem"
	raijin.Machine = vtime.Raijin()
	ro, err := Run(opl)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(raijin)
	if err != nil {
		t.Fatal(err)
	}
	if rr.TotalTime >= ro.TotalTime {
		t.Errorf("Raijin total %g not below OPL %g", rr.TotalTime, ro.TotalTime)
	}
}
