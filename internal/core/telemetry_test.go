package core

import (
	"bytes"
	"testing"

	"ftsg/internal/metrics"
	"ftsg/internal/trace"
)

// TestTelemetryPopulatesResult: with Telemetry on, the Result carries MPI
// traffic totals (and, for CR, checkpoint I/O volume); with it off they
// stay zero.
func TestTelemetryPopulatesResult(t *testing.T) {
	cfg := fastCfg(CheckpointRestart)
	cfg.Telemetry = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MPIMessages <= 0 || res.MPIBytes <= 0 {
		t.Errorf("telemetry on: messages=%d bytes=%d, want both > 0",
			res.MPIMessages, res.MPIBytes)
	}
	if res.CheckpointWrites > 0 && res.CheckpointBytesOut <= 0 {
		t.Errorf("%d checkpoint writes but 0 bytes written", res.CheckpointWrites)
	}

	off, err := Run(fastCfg(CheckpointRestart))
	if err != nil {
		t.Fatal(err)
	}
	if off.MPIMessages != 0 || off.MPIBytes != 0 || off.CheckpointBytesOut != 0 {
		t.Errorf("telemetry off: nonzero counters %d/%d/%d",
			off.MPIMessages, off.MPIBytes, off.CheckpointBytesOut)
	}
}

// TestSharedRegistryAggregates: an explicit Config.Metrics registry keeps
// accumulating across runs.
func TestSharedRegistryAggregates(t *testing.T) {
	reg := metrics.New()
	cfg := fastCfg(AlternateCombination)
	cfg.Metrics = reg
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MPIMessages != 2*r1.MPIMessages {
		t.Errorf("shared registry: second run reports %d messages, want %d",
			r2.MPIMessages, 2*r1.MPIMessages)
	}
	if got := reg.Counter("mpi.sent.messages").Value(); got != r2.MPIMessages {
		t.Errorf("registry holds %d messages, result says %d", got, r2.MPIMessages)
	}
}

// TestRecoveryTimelineSpans: a fault-injected run must leave a closed span
// for every protocol phase on the trace, with none left open.
func TestRecoveryTimelineSpans(t *testing.T) {
	rec := trace.New()
	cfg := fastCfg(CheckpointRestart)
	cfg.NumFailures = 1
	cfg.RealFailures = true
	cfg.Seed = 5
	cfg.Trace = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{
		"detect", "revoke", "shrink", "spawn", "merge", "agree", "split",
		"recover-data", "combine", "solve", "checkpoint",
	} {
		if rec.SpanCount(phase) == 0 {
			t.Errorf("no %q span recorded", phase)
		}
	}
	// Killed ranks legitimately leave their current span open (rendered as
	// a "B" event running to the end of the trace); every survivor's span
	// must be closed.
	failed := map[int]bool{}
	for _, r := range res.FailedRanks {
		failed[r] = true
	}
	for _, s := range rec.OpenSpans() {
		if !failed[s.Rank] {
			t.Errorf("span left open on surviving rank: %v", s)
		}
	}
}

// TestMetricsSummaryDeterministic: the full instrumentation summary of a
// fault-injected run — every counter, histogram and per-rank vector — is a
// function of the configuration alone, not of goroutine scheduling. This is
// the strongest determinism probe we have: a single stray message anywhere
// in the runtime shows up as a diff.
func TestMetricsSummaryDeterministic(t *testing.T) {
	run := func() string {
		reg := metrics.New()
		cfg := Config{Technique: ResamplingCopying, DiagProcs: 2, Steps: 16,
			NumFailures: 1, RealFailures: true, Seed: 41, Metrics: reg}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		reg.WriteSummary(&b)
		return b.String()
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("summary diverged on repeat %d:\n--- first\n%s\n--- got\n%s", i, first, got)
		}
	}
}
