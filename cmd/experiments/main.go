// Command experiments regenerates every table and figure of the paper's
// evaluation section from the simulated system:
//
//	experiments -experiment fig8        # failure info + reconstruction times
//	experiments -experiment table1      # beta-ULFM component times
//	experiments -experiment fig9        # data recovery overheads
//	experiments -experiment fig10       # approximation errors
//	experiments -experiment fig11       # overall performance
//	experiments -experiment levelsweep  # or nodefailure, aclayers, checkpointrule
//	experiments -experiment extensions  # the four extensions above
//	experiments -experiment all
//
// -format csv prints each experiment as CSV instead of a text table; in
// both formats every experiment is followed by one blank line. -quick
// shrinks the sweep for a fast smoke run; -trials / -errtrials control
// averaging (the paper uses 5 and 20). -workers bounds how many simulated
// runs execute concurrently (0 = one per CPU); the output is byte-identical
// for every worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ftsg/internal/core"
	"ftsg/internal/harness"
	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
	tele "ftsg/internal/telemetry" // the -telemetry flag shadows the package name
	"ftsg/internal/trace"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig8 | table1 | fig9 | fig10 | fig11 | extensions | levelsweep | nodefailure | aclayers | checkpointrule | all")
		trials     = flag.Int("trials", 5, "trials per timing configuration")
		errTrials  = flag.Int("errtrials", 20, "trials per error configuration")
		steps      = flag.Int("steps", 256, "solver timesteps per run")
		quick      = flag.Bool("quick", false, "reduced sweep for a fast smoke run")
		workers    = flag.Int("workers", 0, "concurrent simulated runs (0 = one per CPU, 1 = serial)")
		format     = flag.String("format", "table", "table | csv")
		telemetry  = flag.Bool("telemetry", false, "add per-cell telemetry columns (solve/repair time, MPI messages/bytes, checkpoint I/O) to tables and CSVs")
		recModes   = flag.String("recovery-modes", "", "comma-separated recovery modes Fig. 11 sweeps (spawn | shrink | substitute | norepair), or 'all'; empty = spawn only")
		showMet    = flag.Bool("metrics", false, "print the aggregate instrumentation summary over every run of the sweep")
		metOut     = flag.String("metrics-out", "", "write the aggregate instrumentation summary to this file")
		traceOut   = flag.String("trace-out", "", "write the Chrome trace_event JSON of one representative fault-injected run (2 failures, RC, largest core count of the sweep) to this file")
		ckptBack   = flag.String("ckpt-backend", "", "checkpoint storage backend for CR runs: dir (files, default) | mem (in-memory; identical output, no filesystem traffic)")
		ckptGens   = flag.Int("ckpt-generations", 0, "checkpoint generations retained per rank in CR runs (0 = store default)")
		hosts      = flag.Int("hosts", 0, "cluster host count for every run (0 = smallest count that fits each run's ranks)")
		slots      = flag.Int("slots", 0, "ranks per host (0 = machine profile default)")
		racks      = flag.Int("racks", 0, "rack count; hosts split into contiguous blocks charged at the inter-rack link tier (0 = one rack)")
		event      = flag.Bool("event", false, "run every simulated run on the event-driven transport path (fibers on a bounded executor); output is byte-identical to the goroutine path")
		eventWk    = flag.Int("event-workers", 0, "executor pool size per run for -event (0 = NumCPU)")
		serve      = flag.String("serve", "", "serve live telemetry over HTTP on this address (e.g. :9090) while the sweep runs: GET /metrics (aggregate registry, growing as batches complete), /debug/ranks (blocked ops of in-flight runs), /healthz")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		mutexProf  = flag.String("mutexprofile", "", "write a mutex-contention profile of the sweep to this file")
		blockProf  = flag.String("blockprofile", "", "write a blocking profile of the sweep to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(1, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(1, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *mutexProf != "" {
		runtime.SetMutexProfileFraction(5)
		defer writeProfile("mutex", *mutexProf)
	}
	if *blockProf != "" {
		runtime.SetBlockProfileRate(1000) // one sample per microsecond blocked
		defer writeProfile("block", *blockProf)
	}

	if *hosts < 0 || *slots < 0 || *racks < 0 {
		fail(2, "-hosts, -slots and -racks must be >= 0")
	}
	if *eventWk < 0 {
		fail(2, "-event-workers must be >= 0")
	}
	opts := harness.Options{
		Steps:           *steps,
		Quick:           *quick,
		Workers:         *workers,
		Telemetry:       *telemetry,
		CkptBackend:     *ckptBack,
		CkptGenerations: *ckptGens,
		Hosts:           *hosts,
		SlotsPerHost:    *slots,
		Racks:           *racks,
		Event:           *event,
		EventWorkers:    *eventWk,
	}
	// Only explicitly-passed sizing flags reach Options, so -quick keeps
	// shrinking the defaults while `-quick -trials 7` honors the 7.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !*quick || set["trials"] {
		opts.Trials = *trials
	}
	if !*quick || set["errtrials"] {
		opts.ErrTrials = *errTrials
	}
	if *recModes != "" {
		modes, err := parseRecoveryModes(*recModes)
		if err != nil {
			fail(2, err)
		}
		opts.RecoveryModes = modes
	}
	var reg *metrics.Registry
	if *showMet || *metOut != "" || *serve != "" {
		reg = metrics.New()
		opts.Metrics = reg
	}
	if *serve != "" {
		opts.Introspect = &mpi.Introspection{}
		srv := &tele.Server{Registry: reg, Introspect: opts.Introspect}
		addr, stop, err := srv.Start(*serve)
		if err != nil {
			fail(1, err)
		}
		defer stop() //nolint:errcheck // process exits right after
		fmt.Fprintf(os.Stderr, "experiments: telemetry at http://%s/metrics\n", addr)
	}
	if err := run(os.Stdout, *experiment, *format, opts); err != nil {
		fail(1, err)
	}
	if *showMet {
		fmt.Println("aggregate instrumentation summary:")
		reg.WriteSummary(os.Stdout)
	}
	if *metOut != "" {
		if err := writeFileWith(*metOut, func(w io.Writer) error { reg.WriteSummary(w); return nil }); err != nil {
			fail(1, err)
		}
	}
	if *traceOut != "" {
		if err := writeRepresentativeTrace(*traceOut, opts); err != nil {
			fail(1, err)
		}
	}
}

// fail reports why the command stops and exits with code.
func fail(code int, why any) {
	fmt.Fprintln(os.Stderr, "experiments:", why)
	os.Exit(code)
}

// parseRecoveryModes parses the -recovery-modes list ("all" = every mode in
// presentation order).
func parseRecoveryModes(s string) ([]recovery.Mode, error) {
	if s == "all" {
		return recovery.Modes, nil
	}
	var modes []recovery.Mode
	for _, part := range strings.Split(s, ",") {
		m, err := recovery.ParseMode(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		modes = append(modes, m)
	}
	return modes, nil
}

// writeRepresentativeTrace runs one fault-injected RC configuration at the
// sweep's largest core count and exports its recovery timeline as Chrome
// trace_event JSON — the per-rank view the aggregate tables cannot show.
func writeRepresentativeTrace(path string, opts harness.Options) error {
	opts = opts.WithDefaults()
	dp := opts.DiagProcsList[len(opts.DiagProcsList)-1]
	rec := trace.New()
	cfg := core.Config{
		Technique:    core.ResamplingCopying,
		DiagProcs:    dp,
		Steps:        opts.Steps,
		NumFailures:  2,
		RealFailures: true,
		Seed:         41,
		Trace:        rec,
	}
	cfg.Hosts, cfg.SlotsPerHost, cfg.Racks = opts.Hosts, opts.SlotsPerHost, opts.Racks
	if _, err := core.Run(cfg); err != nil {
		return err
	}
	return writeFileWith(path, rec.ExportChromeTrace)
}

// writeProfile dumps a named runtime profile (mutex, block, heap, ...)
// collected over the whole sweep.
func writeProfile(name, path string) {
	if err := writeFileWith(path, func(w io.Writer) error { return pprof.Lookup(name).WriteTo(w, 0) }); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
}

// writeFileWith streams fn's output into path.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run prints every experiment the -experiment value selects, in
// harness.Experiments order, each followed by one blank line.
func run(w io.Writer, experiment, format string, opts harness.Options) error {
	if format != "table" && format != "csv" {
		return fmt.Errorf("unknown format %q (want table or csv)", format)
	}
	ran := false
	for _, e := range harness.Experiments {
		if experiment != "all" && experiment != e.Name && (experiment != "extensions" || e.Figure != "") {
			continue
		}
		ran = true
		if err := e.Run(opts, w, format == "csv"); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}
