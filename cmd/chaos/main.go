// Command chaos sweeps seeded random fault-injection scenarios through every
// recovery technique and checks the campaign's invariant suite — communicator
// size and rank order preserved, all ranks agreeing on the failed list,
// solution error within technique bounds of a failure-free control,
// byte-identical same-seed replay, and no deadlock:
//
//	chaos                         # 256 seeds x {CR,RC,AC}
//	chaos -seeds 64 -start 1000   # a different slice of the seed space
//	chaos -techniques RC,AC       # skip checkpoint/restart
//	chaos -out summary.txt        # also write the summary table to a file
//	chaos -serve :9090            # scrape /metrics while the campaign runs
//	chaos -metrics                # aggregate instrumentation over every run
//	chaos -trace-out cell.json    # Perfetto timeline of one representative cell
//
// Every violation is printed with the one-line `go test` command that
// replays exactly that cell, and its chaos run's trace (or the trace of the
// run that failed) is written to -dump-dir as a post-mortem. Exits non-zero if any invariant was
// violated.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"ftsg/internal/chaos"
	"ftsg/internal/metrics"
	"ftsg/internal/telemetry"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain is main with its environment passed in, so tests can drive it.
// It returns the exit code: 0 clean, 1 invariant violations, 2 usage or I/O
// errors.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds      = fs.Int("seeds", 256, "number of consecutive seeds to sweep")
		start      = fs.Int64("start", 1, "first seed")
		techniques = fs.String("techniques", "all", "all, or a comma list of CR, RC, AC")
		mode       = fs.String("mode", "", "force one scenario mode (A..F) for every seed, e.g. F = checkpoint corruption")
		workers    = fs.Int("workers", 0, "concurrent cells (0 = one per CPU)")
		stall      = fs.Duration("stall", chaos.DefaultStallTimeout, "deadlock watchdog timeout per run")
		out        = fs.String("out", "", "also write the summary to this file")
		showMet    = fs.Bool("metrics", false, "print the aggregate instrumentation summary over every run of the campaign (controls, chaos runs and replays, merged in submission order)")
		metOut     = fs.String("metrics-out", "", "write the aggregate instrumentation summary to this file")
		traceOut   = fs.String("trace-out", "", "write the Chrome trace_event JSON of the first cell's chaos run to this file (load in ui.perfetto.dev)")
		serve      = fs.String("serve", "", "serve live telemetry over HTTP on this address (e.g. :9090) while the campaign runs: GET /metrics (aggregate, streaming in per cell), /healthz")
		dumpDir    = fs.String("dump-dir", ".", "directory for per-violation trace post-mortems")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(a ...any) int {
		fmt.Fprintln(stderr, a...)
		return 2
	}

	techs, err := chaos.ParseTechniques(*techniques)
	if err != nil {
		return fail(err)
	}
	forced, err := chaos.ParseMode(*mode)
	if err != nil {
		return fail(err)
	}
	if *seeds < 1 {
		return fail("chaos: -seeds must be >= 1")
	}
	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = *start + int64(i)
	}

	var reg *metrics.Registry
	if *showMet || *metOut != "" || *serve != "" {
		reg = metrics.New()
	}
	if *serve != "" {
		srv := &telemetry.Server{Registry: reg}
		addr, stop, err := srv.Start(*serve)
		if err != nil {
			return fail(err)
		}
		defer stop() //nolint:errcheck // process exits right after
		fmt.Fprintf(stderr, "chaos: telemetry at http://%s/metrics\n", addr)
	}

	t0 := time.Now()
	outs := chaos.Sweep(chaos.CampaignOpts{
		Seeds:      seedList,
		Techniques: techs,
		Mode:       forced,
		Workers:    *workers,
		Stall:      *stall,
		Metrics:    reg,
		KeepTraces: true,
	})
	elapsed := time.Since(t0)

	violations := 0
	for _, o := range outs {
		for _, v := range o.Violations {
			violations++
			fmt.Fprintf(stdout, "VIOLATION %s under %s: %s\n  replay: %s\n",
				o.Scenario, o.Technique, v, chaos.ReproCommand(o.Seed, o.Technique, forced, o.Recovery))
		}
		if len(o.Violations) > 0 && o.TraceJSON != "" {
			path := fmt.Sprintf("%s/chaos-violation-seed%d-%s.trace.json",
				strings.TrimRight(*dumpDir, "/"), o.Seed, o.Technique)
			if err := os.WriteFile(path, []byte(o.TraceJSON), 0o644); err != nil {
				fmt.Fprintln(stderr, "chaos:", err)
			} else {
				fmt.Fprintf(stdout, "  trace: %s\n", path)
			}
		}
	}

	summarize(stdout, outs, elapsed, violations)
	if *out != "" {
		err := writeFile(*out, func(w io.Writer) { summarize(w, outs, elapsed, violations) })
		if err != nil {
			return fail(err)
		}
	}
	if *showMet {
		fmt.Fprintln(stdout, "\naggregate instrumentation summary:")
		reg.WriteSummary(stdout)
	}
	if *metOut != "" {
		if err := writeFile(*metOut, func(w io.Writer) { reg.WriteSummary(w) }); err != nil {
			return fail(err)
		}
	}
	if *traceOut != "" {
		fp, err := chaos.FingerprintOf(seedList[0], techs[0], *stall)
		if err != nil {
			return fail("chaos:", err)
		}
		if err := os.WriteFile(*traceOut, []byte(fp.Trace), 0o644); err != nil {
			return fail("chaos:", err)
		}
		fmt.Fprintf(stdout, "chrome trace of seed %d %s written to %s\n", seedList[0], techs[0], *traceOut)
	}
	if violations > 0 {
		return 1
	}
	return 0
}

// writeFile creates path, lets write fill it, and reports the first error
// including Close's.
func writeFile(path string, write func(io.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	write(f)
	return f.Close()
}

// cellKey aggregates outcomes per technique x scenario mode.
type cellKey struct {
	tech string
	mode string
}

func summarize(w io.Writer, outs []chaos.Outcome, elapsed time.Duration, violations int) {
	runs := map[cellKey]int{}
	bad := map[cellKey]int{}
	spawned := map[cellKey]int{}
	var keys []cellKey
	for _, o := range outs {
		k := cellKey{tech: o.Technique.String(), mode: o.Scenario.ModeName()}
		if runs[k] == 0 {
			keys = append(keys, k)
		}
		runs[k]++
		bad[k] += len(o.Violations)
		spawned[k] += o.Spawned
	}
	// outs arrive seed-major, technique-minor; order the table
	// technique-major for readability.
	slices.SortFunc(keys, func(a, b cellKey) int {
		return cmp.Or(strings.Compare(a.tech, b.tech), strings.Compare(a.mode, b.mode))
	})
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "technique\tscenario\truns\tdeaths\tviolations")
	for _, k := range keys {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\n", k.tech, k.mode, runs[k], spawned[k], bad[k])
	}
	tw.Flush()
	fmt.Fprintf(w, "\n%d cells (%d runs including controls and replays) in %v: %d violations\n",
		len(outs), 3*len(outs), elapsed.Round(time.Millisecond), violations)
}
