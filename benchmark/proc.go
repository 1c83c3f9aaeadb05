package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ftsg/internal/metrics"
)

// Run protocol: every timed pass runs in a fresh child process of this
// binary. In-process repeats of the 4096-rank repair ranged 4.9-8.2 s
// because each pass inherits the previous one's heap and GC pacing; fresh
// children hold 6.7-6.9 s. A child does the warm-up, then the timed region,
// and prints one passResult as the last line of its standard output.

// passResult is what a pass child reports to its parent.
type passResult struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	SetupS      float64            `json:"setup_s"` // parent's spawn to the start of the timed region
	Region      regionStats        `json:"region"`
	VirtualVS   float64            `json:"virtual_vs"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Errors      []string           `json:"errors,omitempty"`
	Fingerprint string             `json:"fingerprint"`
	CPUUserS    float64            `json:"cpu_user_s"`
	PeakRSSMiB  float64            `json:"peak_rss_mib"`
	GCCycles    uint32             `json:"gc_cycles"`
	Layer       map[string]float64 `json:"layer,omitempty"` // traced pass only
	Spans       []span             `json:"spans,omitempty"` // traced pass only
}

// childWatchdog bounds one child: a run that exceeds it counts as failed.
const childWatchdog = 120 * time.Second

// spawn starts this binary again in the given child mode and decodes the
// last line of its standard output into result. The child's standard error
// passes through.
func spawn(mode, workload string, seed int64, toy bool, result any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childWatchdog)
	defer cancel()
	args := []string{
		"-child", mode, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10),
	}
	if toy {
		args = append(args, "-toy")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if ctx.Err() != nil {
		return fmt.Errorf("%s child of %s exceeded the %v watchdog", mode, workload, childWatchdog)
	}
	if err != nil {
		return fmt.Errorf("%s child of %s: %w", mode, workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], result); err != nil {
		return fmt.Errorf("%s child of %s: bad result line: %w", mode, workload, err)
	}
	return nil
}

// childMain is the entry of a child process. It prints its result as one
// JSON line and returns the process's exit code.
func childMain(mode, workload string, seed int64, spawnedUnixNano int64, toy bool) int {
	sz := fullSizes
	if toy {
		sz = toySizes
	}
	if err := tempDir(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var result any
	switch mode {
	case "layers":
		result = runLayers(sz)
	case "pass", "traced", "setup":
		spawned := time.Unix(0, spawnedUnixNano)
		r, err := runPass(mode, workload, seed, sz, spawned)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		result = r
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown child mode %q\n", mode)
		return 2
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runPass is one pass of a workload in this process: warm-up, then the
// timed region ("pass"), the same with spans, counts and a CPU profile
// ("traced"), or the set-up alone ("setup").
func runPass(mode, workload string, seed int64, sz sizes, spawned time.Time) (*passResult, error) {
	pass, ok := workloadPass[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	event := strings.HasSuffix(workload, "_event")
	env := &passEnv{sz: sz, seed: seed, setupOnly: mode == "setup"}
	res := &passResult{Workload: workload, Seed: seed}

	if err := warmUp(event); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var profile string
	if mode == "traced" {
		env.tr = newTracer(fmt.Sprintf("%s/seed%d", workload, seed))
		env.reg = metrics.New()
		profile = filepath.Join(outDir, "cpu."+workload+".pprof")
		f, err := os.Create(profile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}
	out := pass(env)
	if profile != "" {
		pprof.StopCPUProfile()
	}

	if out.regionStart.IsZero() { // the pass failed before its timed region
		out.regionStart = time.Now()
	}
	res.SetupS = out.regionStart.Sub(spawned).Seconds()
	res.Region = out.region
	res.VirtualVS = out.virtual
	res.Attempted, res.Failed, res.Errors = out.attempted, out.failed, out.errs
	res.Fingerprint = out.fingerprint
	res.CPUUserS, res.PeakRSSMiB = procUsage()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.GCCycles = ms.NumGC

	if mode == "traced" {
		res.Layer = out.layer
		res.Spans = env.tr.spans
		res.Layer["pass.wall_s"] = out.region.WallS
		res.Layer["pass.virtual_vs"] = out.virtual
		res.Layer["pass.peak_live_mib"] = out.region.PeakLiveMiB
		res.Layer["pass.proc.cpu_user_s"] = res.CPUUserS
		res.Layer["pass.proc.peak_rss_mib"] = res.PeakRSSMiB
		res.Layer["pass.proc.gc_cycles"] = float64(res.GCCycles)
		res.Layer["pass.count.mpi_msgs"] = float64(env.reg.Counter("mpi.sent.messages").Value())
		res.Layer["pass.count.mpi_bytes"] = float64(env.reg.Counter("mpi.sent.bytes").Value())
		res.Layer["pass.count.ckpt_bytes_out"] = float64(env.reg.Counter("checkpoint.bytes.written").Value())
		shares, err := cpuShares(profile)
		if err != nil {
			res.Attempted++
			res.Failed++
			res.Errors = append(res.Errors, "cpu profile: "+err.Error())
		}
		for bucket, share := range shares {
			res.Layer["pass.cpu_share."+bucket] = share
		}
	}
	return res, nil
}
