package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ftsg/internal/mpi"
	"ftsg/internal/trace"
)

// journalBytes runs cfg with a full recorder attached and returns its notes'
// canonical (wall-clock-free) JSONL rendering.
func journalBytes(t *testing.T, cfg Config) []byte {
	t.Helper()
	rec := trace.New()
	cfg.Trace = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := rec.WriteJSONL(&b, false); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestJournalDeterminism pins the journal's determinism contract: the
// canonical rendering — virtual timestamps, ranks, epochs, event kinds and
// attributes — is byte-identical at GOMAXPROCS 1 and NumCPU. This is the
// telemetry extension of the determinism campaign.
func TestJournalDeterminism(t *testing.T) {
	cfg := fastCfg(CheckpointRestart)
	cfg.NumFailures = 2
	cfg.RealFailures = true
	cfg.Seed = 17

	prev := runtime.GOMAXPROCS(1)
	serial := journalBytes(t, cfg)
	runtime.GOMAXPROCS(runtime.NumCPU())
	parallel := journalBytes(t, cfg)
	runtime.GOMAXPROCS(prev)

	if len(serial) == 0 {
		t.Fatal("journal is empty for a run with two real failures")
	}
	if !bytes.Equal(serial, parallel) {
		t.Errorf("journal differs between GOMAXPROCS 1 and %d:\n--- serial ---\n%s--- parallel ---\n%s",
			runtime.NumCPU(), serial, parallel)
	}
}

// TestJournalEventSchema checks a failing CR run emits the full event
// vocabulary with the documented fields.
func TestJournalEventSchema(t *testing.T) {
	cfg := fastCfg(CheckpointRestart)
	cfg.NumFailures = 2
	cfg.RealFailures = true
	cfg.Seed = 17
	out := journalBytes(t, cfg)

	kinds := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
		var e map[string]any
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("journal line is not JSON: %v\n%s", err, line)
		}
		kind, _ := e["msg"].(string)
		kinds[kind]++
		for _, field := range []string{"vt", "rank", "epoch"} {
			if _, ok := e[field]; !ok {
				t.Errorf("event %q missing %q: %s", kind, field, line)
			}
		}
		if _, ok := e["wall"]; ok {
			t.Errorf("canonical rendering leaked a wall timestamp: %s", line)
		}
	}
	for _, want := range []string{"fault-inject", "failure-detected", "repair-phase", "checkpoint-commit", "checkpoint-restore", "respawn"} {
		if kinds[want] == 0 {
			t.Errorf("no %q events in a failing CR run; got %v", want, kinds)
		}
	}
	if kinds["repair-phase"]%6 != 0 {
		t.Errorf("repair-phase events %d not a multiple of the 6 phases", kinds["repair-phase"])
	}
}

// TestFlightDumpHasAllRepairPhases runs a two-failure recovery under the
// default always-on flight recorder and checks the retained window covers
// every protocol phase — the post-mortem the acceptance criteria name.
func TestFlightDumpHasAllRepairPhases(t *testing.T) {
	rec := trace.NewFlight(0)
	cfg := fastCfg(ResamplingCopying)
	cfg.NumFailures = 2
	cfg.RealFailures = true
	cfg.Seed = 23
	cfg.Trace = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, s := range rec.Spans() {
		have[s.Phase] = true
	}
	for _, phase := range []string{"detect", "revoke", "shrink", "spawn", "merge", "agree", "split", "recover-data"} {
		if !have[phase] {
			t.Errorf("flight recorder retained no %q span; phases seen: %v", phase, have)
		}
	}
	var b strings.Builder
	if err := rec.ExportChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("flight export is not valid Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("flight export has no events")
	}
}

// TestFlightAutoDumpOnAbort runs with a watchdog so tight that it fires
// mid-run: the stall must come back from Run as an *mpi.StallError (not a
// crash of the test binary), and the flight recorder must be dumped exactly
// once, as a loadable trace in the OS temp directory. A run may outpace even
// a 1 µs watchdog, so it retries until a stall fires.
func TestFlightAutoDumpOnAbort(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	for try := 0; try < 5; try++ {
		_, err := Run(Config{Technique: ResamplingCopying, DiagProcs: 2, Steps: 64,
			CheckpointBackend: "mem",
			Watchdog:          mpi.Watchdog{Timeout: time.Microsecond}})
		if err == nil {
			continue
		}
		var stall *mpi.StallError
		if !errors.As(err, &stall) || !strings.Contains(err.Error(), "no transport progress") {
			t.Fatalf("Run returned %v, want a watchdog stall", err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("abort dumped %d files, want exactly 1", len(entries))
		}
		if !strings.HasPrefix(entries[0].Name(), "ftsg-flight-") {
			t.Errorf("dump filename %q missing the ftsg-flight- prefix", entries[0].Name())
		}
		raw, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(raw) {
			t.Errorf("dump is not valid JSON: %.200s", raw)
		}
		return
	}
	t.Fatal("no stall fired in 5 runs under a 1 µs watchdog")
}
