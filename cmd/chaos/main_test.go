package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs a two-seed campaign end to end: no violation, exit 0, and
// the technique x scenario table with its totals line on stdout.
func TestSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-seeds", "2", "-techniques", "AC", "-workers", "1"}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("realMain(%v) = %d\nstdout: %s\nstderr: %s", args, code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"technique", "scenario", "violations", "AC", "2 cells (6 runs including controls and replays)", ": 0 violations"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "CR") || strings.Contains(out, "RC") {
		t.Errorf("-techniques AC also ran another technique:\n%s", out)
	}
}

// TestStallIsAViolation runs the campaign under a watchdog so tight that
// every cell stalls: each stall must come back as a VIOLATION line carrying
// the stall dump, and the campaign must exit 1 rather than crash. Each
// violated cell's post-mortem is the failed run's own trace, written to
// -dump-dir; no flight-recorder dump is left in the temp directory.
func TestStallIsAViolation(t *testing.T) {
	tmp, dump := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var stdout, stderr bytes.Buffer
	args := []string{"-seeds", "2", "-stall", "1us", "-workers", "1", "-dump-dir", dump}
	if code := realMain(args, &stdout, &stderr); code != 1 {
		t.Fatalf("realMain(%v) = %d, want 1\nstdout: %s\nstderr: %s", args, code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "VIOLATION") || !strings.Contains(out, "no transport progress") {
		t.Errorf("no stall violation reported:\n%s", out)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "ftsg-flight-*")); len(left) > 0 {
		t.Errorf("flight-recorder dumps left in the temp directory: %v", left)
	}
	traces, _ := filepath.Glob(filepath.Join(dump, "chaos-violation-*.trace.json"))
	if want := strings.Count(out, "  trace: "); len(traces) == 0 || len(traces) != want {
		t.Errorf("%d post-mortems in -dump-dir, %d reported:\n%s", len(traces), want, out)
	}
	for _, p := range traces {
		if raw, err := os.ReadFile(p); err != nil || !json.Valid(raw) {
			t.Errorf("post-mortem %s is not a loadable trace: %v", p, err)
		}
	}
}

// TestBadFlagsExitCode: flag validation surfaces as exit code 2 with the
// reason on stderr, before any run starts.
func TestBadFlagsExitCode(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "Z"},
		{"-techniques", "XX"},
		{"-seeds", "0"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 2 {
			t.Errorf("realMain(%v) = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
		if stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("realMain(%v): stdout %q, stderr %q; want the reason on stderr only", args, stdout.String(), stderr.String())
		}
	}
}
