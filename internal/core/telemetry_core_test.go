package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
	"ftsg/internal/trace"
)

// recordBytes runs cfg with a full recorder attached and returns its notes'
// canonical (wall-clock-free) JSONL rendering and its Chrome trace export.
func recordBytes(t *testing.T, cfg Config) (journal, chrome []byte) {
	t.Helper()
	rec := trace.New()
	cfg.Trace = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var j, c bytes.Buffer
	if err := rec.WriteJSONL(&j, false); err != nil {
		t.Fatal(err)
	}
	if err := rec.ExportChromeTrace(&c); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes()
}

// TestJournalDeterminism pins the determinism contract of a run's recorder:
// the journal's canonical rendering — virtual timestamps, ranks, epochs,
// event kinds and attributes — and the Chrome trace export are
// byte-identical at GOMAXPROCS 1 and NumCPU, run after run. It runs CR under
// spawn, where no process ever changes position, and under shrink and
// norepair, where a repair moves processes to new positions and every span
// must still land on its process's original rank. Each repeat re-rolls the
// scheduling: were two processes' same-instant spans to share a track,
// their order would follow it. This is the telemetry extension of the
// determinism campaign.
func TestJournalDeterminism(t *testing.T) {
	const repeats = 16
	for _, mode := range []recovery.Mode{recovery.ModeSpawn, recovery.ModeShrink, recovery.ModeNoRepair} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := fastCfg(CheckpointRestart)
			cfg.NumFailures = 2
			cfg.RealFailures = true
			// Seed 9's shrink moves the ranks of a grid that restores from
			// its checkpoint, and its norepair run gives two processes
			// same-instant detect spans at one position.
			cfg.Seed = 9
			cfg.RecoveryMode = mode
			var journal, chrome []byte
			for i := 0; i < repeats; i++ {
				for _, procs := range []int{1, runtime.NumCPU()} {
					prev := runtime.GOMAXPROCS(procs)
					j, c := recordBytes(t, cfg)
					runtime.GOMAXPROCS(prev)
					if journal == nil {
						journal, chrome = j, c
						continue
					}
					if !bytes.Equal(j, journal) {
						t.Fatalf("journal differs at GOMAXPROCS %d, repeat %d:\n--- first ---\n%s--- this ---\n%s", procs, i, journal, j)
					}
					if !bytes.Equal(c, chrome) {
						t.Fatalf("Chrome trace differs at GOMAXPROCS %d, repeat %d: %s", procs, i, firstDiff(chrome, c))
					}
				}
			}
			if len(journal) == 0 {
				t.Fatal("journal is empty for a run with two real failures")
			}
			checkRestoreNoteRanks(t, cfg, journal)
		})
	}
}

// firstDiff shows where two renderings first differ.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(0, i-100)
	return fmt.Sprintf("at byte %d of %d:\n- ...%s\n+ ...%s", i, len(a), a[lo:min(len(a), i+100)], b[lo:min(len(b), i+100)])
}

// checkRestoreNoteRanks asserts that every checkpoint-restore and
// checkpoint-fallback note is on a rank of the grid it names: the note is
// the grid's own process's, logged under its original rank, not under the
// position that process holds after a shrink.
func checkRestoreNoteRanks(t *testing.T, cfg Config, journal []byte) {
	t.Helper()
	grids := map[int]SubGrid{}
	for _, g := range cfg.WithDefaults().Grids() {
		grids[g.ID] = g
	}
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		var e struct {
			Msg  string `json:"msg"`
			Rank int    `json:"rank"`
			Grid int    `json:"grid"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("journal line is not JSON: %v\n%s", err, line)
		}
		if e.Msg != "checkpoint-restore" && e.Msg != "checkpoint-fallback" {
			continue
		}
		g, ok := grids[e.Grid]
		if !ok {
			t.Errorf("%s note names no grid of the run: %s", e.Msg, line)
			continue
		}
		if !g.has(e.Rank) {
			t.Errorf("%s note of grid %d (ranks %d..%d) is on rank %d: %s",
				e.Msg, g.ID, g.FirstRank, g.FirstRank+g.Procs-1, e.Rank, line)
		}
	}
}

// TestJournalEventSchema checks a failing CR run emits the full event
// vocabulary with the documented fields.
func TestJournalEventSchema(t *testing.T) {
	cfg := fastCfg(CheckpointRestart)
	cfg.NumFailures = 2
	cfg.RealFailures = true
	cfg.Seed = 17
	out, _ := recordBytes(t, cfg)

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
