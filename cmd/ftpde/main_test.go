package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestParseMachine(t *testing.T) {
	for in, want := range map[string]string{
		"opl":     "OPL",
		"OPL":     "OPL",
		"raijin":  "Raijin",
		"generic": "generic",
	} {
		got, err := parseMachine(in)
		if err != nil {
			t.Errorf("parseMachine(%q): %v", in, err)
		} else if got.Name != want {
			t.Errorf("parseMachine(%q) = %q, want %q", in, got.Name, want)
		}
	}
	if _, err := parseMachine("cray"); err == nil {
		t.Error("parseMachine(cray) succeeded, want error")
	}
}

// TestChromeTraceCoversRepairPhases is the acceptance test for -trace-out: a
// fault-injected run must emit valid Chrome trace_event JSON whose spans cover
// the whole recovery timeline — failure detection, the ULFM repair phases,
// data recovery and the final combination.
func TestChromeTraceCoversRepairPhases(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-technique", "RC", "-diagprocs", "2", "-steps", "16",
		"-failures", "1", "-real", "-seed", "7",
		"-trace-out", out, "-quiet",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("realMain = %d, stderr: %s", code, stderr.String())
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}

	spans := map[string]int{}
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" || e.Ph == "B" { // complete or still-open span
			spans[e.Name]++
			if e.Tid <= 0 {
				t.Errorf("span %q has non-positive tid %d", e.Name, e.Tid)
			}
		}
	}
	for _, phase := range []string{
		"detect", "revoke", "shrink", "spawn", "merge", "split",
		"recover-data", "combine",
	} {
		if spans[phase] == 0 {
			t.Errorf("trace has no %q span; spans present: %v", phase, spans)
		}
	}
}

// TestTracePrintsJournal is the acceptance test for -trace: the printed
// timeline is the failure-handling journal, one line per note in the same
// canonical order as the -events-out JSONL, without the wall clock.
func TestTracePrintsJournal(t *testing.T) {
	out := filepath.Join(t.TempDir(), "events.jsonl")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-technique", "CR", "-failures", "2", "-real", "-seed", "7",
		"-trace", "-quiet", "-events-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("realMain = %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	type note struct {
		Msg  string  `json:"msg"`
		VT   float64 `json:"vt"`
		Rank int     `json:"rank"`
	}
	var journal []note
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var n note
		if err := json.Unmarshal([]byte(line), &n); err != nil {
			t.Fatalf("journal line is not JSON: %v\n%s", err, line)
		}
		journal = append(journal, n)
	}

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) == 0 || lines[0] != "event timeline:" {
		t.Fatalf("-trace output does not start with the timeline header:\n%s", stdout.String())
	}
	lines = lines[1:]
	if len(lines) != len(journal) {
		t.Fatalf("-trace printed %d notes, the journal holds %d:\n%s", len(lines), len(journal), stdout.String())
	}
	first := map[string]int{}
	for i, line := range lines {
		// "[    76.273s] rank   0  epoch 0  failure-detected step=171 failed=[25 41]"
		f := strings.Fields(strings.NewReplacer("[", " ", "s]", " ").Replace(line))
		if len(f) < 6 || f[1] != "rank" || f[3] != "epoch" {
			t.Fatalf("line %d is not a note: %q", i, line)
		}
		want := journal[i]
		if f[5] != want.Msg || f[2] != strconv.Itoa(want.Rank) || f[0] != fmt.Sprintf("%.3f", want.VT) {
			t.Errorf("line %d = %q, journal has %s at %.3fs on rank %d", i, line, want.Msg, want.VT, want.Rank)
		}
		if strings.Contains(line, "wall") {
			t.Errorf("line %d carries the wall clock: %q", i, line)
		}
		if _, ok := first[f[5]]; !ok {
			first[f[5]] = i
		}
	}
	order := []string{"checkpoint-commit", "fault-inject", "failure-detected", "repair-phase", "respawn"}
	for i, kind := range order {
		if _, ok := first[kind]; !ok {
			t.Fatalf("-trace printed no %s note:\n%s", kind, stdout.String())
		}
		if i > 0 && first[order[i-1]] >= first[kind] {
			t.Errorf("first %s (line %d) does not follow first %s (line %d)", kind, first[kind], order[i-1], first[order[i-1]])
		}
	}
}

// TestQuietAndMetricsOut checks -quiet suppresses the run summary while
// -metrics-out still writes the instrumentation summary.
func TestQuietAndMetricsOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.txt")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-technique", "CR", "-diagprocs", "2", "-steps", "16",
		"-metrics-out", out, "-quiet",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("realMain = %d, stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("-quiet left stdout non-empty: %q", stdout.String())
	}
	sum, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mpi.sent.messages", "mpi.sent.bytes"} {
		if !strings.Contains(string(sum), want) {
			t.Errorf("metrics summary missing %q:\n%s", want, sum)
		}
	}
}

// TestBadFlagsExitCode checks flag validation surfaces as exit code 2.
func TestBadFlagsExitCode(t *testing.T) {
	for _, args := range [][]string{
		{"-technique", "XX"},
		{"-machine", "cray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 2 {
			t.Errorf("realMain(%v) = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

// TestInvalidClusterShapeIsAnError: more racks than the hosts the run derives
// used to pass Config.Validate and panic in topo.NewRacked; it must come back
// as a core error and a non-zero exit. The trace and journal files asked for
// are written all the same: a failed run's are its post-mortem.
func TestInvalidClusterShapeIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	dir := t.TempDir()
	traceOut, eventsOut := filepath.Join(dir, "t.json"), filepath.Join(dir, "e.jsonl")
	code := realMain([]string{"-racks", "64", "-steps", "8", "-trace-out", traceOut, "-events-out", eventsOut}, &stdout, &stderr)
	if code == 0 {
		t.Errorf("realMain(-racks 64) = 0, want a failure (stdout: %s)", stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "core: Racks 64 exceeds") {
		t.Errorf("stderr %q does not carry core's error", msg)
	}
	if raw, err := os.ReadFile(traceOut); err != nil || !json.Valid(raw) {
		t.Errorf("-trace-out after the failed run: %v", err)
	}
	if _, err := os.Stat(eventsOut); err != nil {
		t.Errorf("-events-out after the failed run: %v", err)
	}
}

// TestCheckpointFlags: -ckpt-backend selects the checkpoint store without
// changing any simulated result — the run summary is byte-identical to the
// default dir-backed store.
func TestCheckpointFlags(t *testing.T) {
	run := func(extra ...string) string {
		t.Helper()
		args := append([]string{
			"-technique", "CR", "-failures", "1", "-real",
			"-diagprocs", "4", "-steps", "64", "-n", "6",
		}, extra...)
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("realMain(%v) = %d, stderr: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	want := run()
	for _, extra := range [][]string{
		{"-ckpt-backend", "mem"},
		{"-ckpt-backend", "dir"},
	} {
		if got := run(extra...); got != want {
			t.Errorf("%v changed the run summary:\n got:\n%s\nwant:\n%s", extra, got, want)
		}
	}

	var stdout, stderr bytes.Buffer
	args := []string{"-technique", "CR", "-ckpt-backend", "s3"}
	if code := realMain(args, &stdout, &stderr); code != 1 {
		t.Errorf("unknown backend: realMain = %d, want 1 (stderr: %s)", code, stderr.String())
	}
}

// TestFailureFlagsPinned pins the run summary of the failure flags: a
// two-rank event at an explicit step and a whole-node failure onto a spare
// host. The flags build the run's failure plan, so a change to how they do
// shows here.
func TestFailureFlagsPinned(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{{
		[]string{"-technique", "CR", "-diagprocs", "2", "-steps", "16", "-real", "-failures", "2", "-failstep", "5", "-seed", "7"},
		`technique            CR on OPL
processes            11 across 7 sub-grids (2 re-spawned)
steps                16
total virtual time   29.34 s
failed ranks         [1 7]
failure info time    0.018 s
reconstruction time  0.53 s (shrink 0.01, spawn 0.01, merge 0.01, agree 0.50, split 0.01)
lost sub-grids       [0 3]
data recovery time   7.516 s
checkpoints          1 written, every 7 steps
combined l1 error    4.6111e-06
`,
	}, {
		[]string{"-technique", "CR", "-diagprocs", "2", "-steps", "16", "-slots", "4", "-real", "-nodefail", "-spares", "1", "-seed", "7"},
		`technique            CR on OPL
processes            11 across 7 sub-grids (4 re-spawned)
steps                16
total virtual time   31.91 s
failed ranks         [4 5 6 7]
failure info time    0.018 s
reconstruction time  1.28 s (shrink 0.02, spawn 0.02, merge 0.01, agree 1.22, split 0.01)
lost sub-grids       [2 3]
data recovery time   8.616 s
checkpoints          1 written, every 7 steps
combined l1 error    4.6111e-06
`,
	}} {
		var stdout, stderr bytes.Buffer
		if code := realMain(c.args, &stdout, &stderr); code != 0 {
			t.Fatalf("realMain(%v) = %d, stderr: %s", c.args, code, stderr.String())
		}
		if got := stdout.String(); got != c.want {
			t.Errorf("%v summary:\n%s\nwant:\n%s", c.args, got, c.want)
		}
	}
}
