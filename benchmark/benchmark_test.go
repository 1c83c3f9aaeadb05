package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: with
// FTSG_BENCHMARK_MAIN set it runs the benchmark's main, so TestDriverMode
// can drive -workload runs (children included: they inherit the variable)
// without a go build.
func TestMain(m *testing.M) {
	if os.Getenv("FTSG_BENCHMARK_MAIN") != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// TestDriverMode runs one workload the way BENCHMARK.json's command does, at
// toy scale: the last line of output must be one JSON object with exactly
// the keys correct, attempted, failed and metrics, the metrics being every
// end-to-end metric with -trace 0 and every per-layer metric with -trace 1.
func TestDriverMode(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for trace, want := range [][]metricSpec{endToEnd, perLayer} {
		cmd := exec.Command(exe, "-toy", "-workload", "repair_4k_event", "-seed", "3", "-seconds", "0.2", "-trace", strconv.Itoa(trace))
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "FTSG_BENCHMARK_MAIN=1")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("-trace %d: %v\n%s", trace, err, out)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("-trace %d: last line is not JSON: %v", trace, err)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Fatalf("-trace %d: result keys %v", trace, res)
		}
		var typed driverResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &typed); err != nil {
			t.Fatal(err)
		}
		if !typed.Correct || typed.Attempted < 1 || typed.Failed != 0 {
			t.Errorf("-trace %d: correct %v, %d attempted, %d failed", trace, typed.Correct, typed.Attempted, typed.Failed)
		}
		if len(typed.Metrics) != len(want) {
			t.Errorf("-trace %d: %d metrics, want %d", trace, len(typed.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := typed.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("-trace %d: metric %s missing or unit %q, want %q", trace, m.Name, got.Unit, m.Unit)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, outDir, "trace.json")); err != nil {
		t.Errorf("the traced run left no trace: %v", err)
	}
}

// TestSchema holds BENCHMARK.json to the program's own tables and to the
// limits of the benchmark contract.
func TestSchema(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with `go run ./benchmark -spec > BENCHMARK.json`")
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(onDisk, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the permitted form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range doc.Workloads {
		unique(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := workloadPass[w.Name]; !ok {
			t.Errorf("workload %s has no pass", w.Name)
		}
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	setup := false
	for _, m := range doc.EndToEnd {
		unique(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: direction %q", m.Name, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range doc.PerLayer {
		unique(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: direction %q", m.Name, m.Better)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", doc.Paths)
	}
}

// toyEnv points the benchmark's scratch files at a test directory.
func toyEnv(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	old := outDir
	outDir = dir
	t.Cleanup(func() { outDir = old })
}

// TestSmoke runs every workload at toy scale (64 ranks, 8 steps, one core
// count), untraced and traced, and holds them to the benchmark's checks:
// no failed operation, bit-identical virtual time and outputs between the
// untraced and the traced pass and between each goroutine/event pair, and
// every pass.* metric of BENCHMARK.json reported by some workload.
func TestSmoke(t *testing.T) {
	toyEnv(t)
	untraced := map[string]*passResult{}
	reported := map[string]bool{}
	for _, w := range workloads {
		plain, err := runPass("pass", w.Name, 1, toySizes, time.Now())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		tr, err := runPass("traced", w.Name, 1, toySizes, time.Now())
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		for _, p := range []*passResult{plain, tr} {
			if p.Attempted == 0 || p.Failed != 0 {
				t.Errorf("%s: %d of %d operations failed: %v", w.Name, p.Failed, p.Attempted, p.Errors)
			}
			if p.Region.WallS <= 0 || p.Region.AllocMiB <= 0 || p.Region.MallocsK <= 0 || p.Region.PeakLiveMiB <= 0 || p.SetupS <= 0 {
				t.Errorf("%s: an end-to-end metric is not positive: %+v setup %v", w.Name, p.Region, p.SetupS)
			}
		}
		for _, e := range checkPasses(w.Name, []passResult{*plain, *tr}) {
			t.Error(e)
		}
		if len(tr.Spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", w.Name)
		}
		for k := range tr.Layer {
			reported[k] = true
		}
		untraced[w.Name] = plain
	}
	for _, w := range workloads {
		if twin := twinOf(w.Name); twin != "" {
			for _, e := range checkTwins(w.Name, *untraced[w.Name], *untraced[twin]) {
				t.Error(e)
			}
		}
	}
	for _, m := range perLayer {
		if isPassMetric(m.Name) && !reported[m.Name] {
			t.Errorf("no workload's traced pass reports %s", m.Name)
		}
	}
}

// TestSmokeSetupOnly: the set-up-only pass stops where the timed region
// would begin.
func TestSmokeSetupOnly(t *testing.T) {
	toyEnv(t)
	for _, w := range []string{"repair_4k", "steady_4k_event"} {
		p, err := runPass("setup", w, 1, toySizes, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if p.SetupS <= 0 || p.Failed != 0 {
			t.Errorf("%s: set-up %v s, %d failed: %v", w, p.SetupS, p.Failed, p.Errors)
		}
	}
}

// TestSmokeLayers runs the layers phase at toy scale: every driver passes
// and every layers-phase metric of BENCHMARK.json is reported.
func TestSmokeLayers(t *testing.T) {
	toyEnv(t)
	out := runLayers(toySizes)
	if out.Failed != 0 {
		t.Fatalf("%d of %d layer drivers failed: %v", out.Failed, out.Attempted, out.Errors)
	}
	for _, m := range perLayer {
		if isPassMetric(m.Name) {
			continue
		}
		if _, ok := out.Values[m.Name]; !ok {
			t.Errorf("layers phase does not report %s", m.Name)
		}
	}
	for name := range out.Values {
		found := false
		for _, m := range perLayer {
			found = found || m.Name == name
		}
		if !found {
			t.Errorf("layers phase reports %s, which BENCHMARK.json does not name", name)
		}
	}
}

func TestFoldTop(t *testing.T) {
	const top = `File: benchmark
Type: cpu
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
        4s 40.00% 40.00%         6s 60.00%  ftsg/internal/mpi.(*World).rvzPoll
        3s 30.00% 70.00%         3s 30.00%  runtime.lock2
        2s 20.00% 90.00%         2s 20.00%  ftsg/internal/pde.Step
        1s 10.00%   100%         1s 10.00%  ftsg/internal/core.Run
`
	got := foldTop(top)
	want := map[string]float64{"mpi": 0.4, "runtime": 0.3, "kernels": 0.2, "other": 0.1}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("share %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestAAVerdict(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", []float64{10.1, 10, 9.95, 10, 10.1}, "agree"},
		{"worse", []float64{12, 12.1, 11.9, 12, 12}, "DISAGREE"},
		{"noisy", []float64{8, 13, 10, 7, 12}, "unresolved"},
	} {
		if got, _, _, _ := aaVerdict(steady, c.b, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
