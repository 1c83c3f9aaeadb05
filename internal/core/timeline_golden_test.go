package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ftsg/internal/recovery"
	"ftsg/internal/trace"
)

// update regenerates the timeline golden from current output:
//
//	go test ./internal/core/ -run TestTimelineGolden -update
var update = flag.Bool("update", false, "rewrite golden testdata files")

// timelineRuns are the runs the timeline golden pins: a two-failure CR run
// (spawn, checkpoint commits and restores) and a substitute-mode run.
func timelineRuns() []struct {
	name string
	cfg  Config
} {
	cr := fastCfg(CheckpointRestart)
	cr.NumFailures = 2
	cr.RealFailures = true
	cr.Seed = 17
	sub := fastCfg(ResamplingCopying)
	sub.NumFailures = 2
	sub.RealFailures = true
	sub.RecoveryMode = recovery.ModeSubstitute
	sub.Seed = 17
	return []struct {
		name string
		cfg  Config
	}{{"cr-spawn", cr}, {"rc-substitute", sub}}
}

// timelineBytes renders every view of one run's timeline: one line per span,
// the canonical journal and the Chrome export's digest.
func timelineBytes(t *testing.T, name string, cfg Config) []byte {
	t.Helper()
	rec := trace.New()
	cfg.Trace = rec
	if _, err := Run(cfg); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "=== %s: spans\n", name)
	for _, s := range rec.Spans() {
		fmt.Fprintln(&b, s)
	}
	fmt.Fprintf(&b, "=== %s: journal\n", name)
	if err := rec.WriteJSONL(&b, false); err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := rec.ExportChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "=== %s: chrome trace sha256 %x\n", name, sha256.Sum256(chrome.Bytes()))
	return b.Bytes()
}

// TestTimelineGolden pins every rendering of the recorded timeline — spans,
// journal and Chrome trace — byte for byte, so a change to how the
// timeline is stored cannot move what any consumer sees.
func TestTimelineGolden(t *testing.T) {
	var got bytes.Buffer
	for _, r := range timelineRuns() {
		got.Write(timelineBytes(t, r.name, r.cfg))
	}
	path := filepath.Join("testdata", "golden_timeline.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("timeline differs from %s (rerun with -update only for an intended change):\n%s", path, got.Bytes())
	}
}
