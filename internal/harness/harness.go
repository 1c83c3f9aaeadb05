// Package harness defines and runs the paper's experiments. Each table and
// figure of the evaluation section, and each extension beyond it, is a
// driver and a report: the driver lists its sweep points, sweep runs them
// and maps each point's results to a typed row, and the report prints the
// rows as a text table or as CSV. Experiments lists them all.
//
//	Fig. 8a/8b  failure-information and reconstruction times vs cores
//	Table I     beta-ULFM component times at two failures vs cores
//	Fig. 9a/9b  data-recovery overheads (plain and process-time normalized)
//	Fig. 10     approximation error vs number of lost grids
//	Fig. 11a/b  overall execution time and parallel efficiency
package harness

import (
	"ftsg/internal/core"
	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
)

// Options tunes experiment size. The zero value gives the paper's full
// matrix; Quick shrinks it for tests and smoke runs.
//
// Precedence: explicitly-set fields always win. Quick supplies smaller
// defaults (fewer trials, fewer core counts) ONLY for fields left at their
// zero value — a caller that sets Trials (or ErrTrials, or DiagProcsList)
// together with Quick gets exactly what it set, with Quick shrinking the
// rest of the matrix (e.g. Fig. 9/10's max lost grids).
type Options struct {
	// Trials per configuration for timing experiments (paper: 5;
	// Quick default: 2).
	Trials int
	// ErrTrials per configuration for error experiments (paper: 20;
	// Quick default: 4).
	ErrTrials int
	// Steps per run (default 256; the virtual-time model maps this onto
	// the paper's nominal 2^13-step problem).
	Steps int
	// DiagProcsList selects the core-count sweep; default {2,4,8,16,32}
	// reproduces the paper's {19,38,76,152,304} cores with the RC grid
	// set (Quick default: {2,4,8}).
	DiagProcsList []int
	// Quick reduces the matrix: fewer core counts, fewer trials, fewer
	// lost-grid points — without overriding explicitly-set fields.
	Quick bool
	// Workers bounds how many simulated runs the experiment scheduler
	// executes concurrently (0 = runtime.GOMAXPROCS(0), 1 = fully
	// serial). Results are deterministic: output is byte-identical for
	// every worker count.
	Workers int
	// Telemetry attaches a per-run metrics registry to every experiment
	// run and adds telemetry columns (solve/repair time, MPI messages and
	// bytes, checkpoint I/O) to the affected tables and CSVs. Off by
	// default; with it off, output is byte-identical to the
	// pre-instrumentation harness.
	Telemetry bool
	// Metrics, when non-nil, aggregates instrumentation across every run
	// of the sweep: each run records into a private registry which is
	// merged into this one in submission order after the runs complete,
	// so the aggregate is deterministic for every worker count. Tables
	// and CSVs are unaffected unless Telemetry is also set.
	Metrics *metrics.Registry
	// CkptBackend selects the checkpoint storage backend for every CR run
	// of the sweep: "" or "dir" writes files under a per-run temp
	// directory, "mem" keeps blobs in memory. Virtual-time accounting is
	// identical either way, so output is byte-identical across backends;
	// "mem" only removes real filesystem traffic from the sweep.
	CkptBackend string
	// CkptGenerations is how many checkpoint generations each CR run
	// retains per rank (0 = the store default). Older generations are the
	// fallback chain when the newest blob is corrupt or torn.
	CkptGenerations int
	// Hosts overrides the simulated host count of every run's cluster
	// (0 = derive the smallest count that fits the run's process count).
	// Larger clusters spread the same ranks over more nodes, shifting
	// traffic from intra-node to inter-node links.
	Hosts int
	// SlotsPerHost overrides ranks per host (0 = the machine profile's
	// value).
	SlotsPerHost int
	// Racks partitions hosts into contiguous rack blocks charged at the
	// inter-rack link tier (0 or 1 = a single rack). Defaults keep output
	// byte-identical to the pre-topology harness.
	Racks int
	// Event runs every simulated run on the event-driven transport path
	// (core.Config.Event): ranks are fibers on a bounded executor instead
	// of goroutines, including respawned replacements and claimed spares.
	// Results are byte-identical to the goroutine path.
	Event bool
	// EventWorkers bounds each run's executor pool (0 = NumCPU). Ignored
	// unless Event is set.
	EventWorkers int
	// RecoveryModes selects the recovery modes Fig. 11 sweeps: each mode
	// runs the full technique x failures x cores matrix with the repair
	// protocol forced to it, and rows carry a mode column. Nil runs spawn
	// only — the paper's protocol, byte-identical to the pre-mode harness
	// modulo the column. Fig. 9's simulated losses never run the repair
	// protocol, so its rows are always labeled spawn.
	RecoveryModes []recovery.Mode
	// Introspect, when non-nil, registers every run's simulated World with
	// the introspection hub while it executes, so a telemetry server's
	// /debug/ranks endpoint can dump per-rank blocked operations of the
	// in-flight sweep. Read-only; output is unaffected.
	Introspect *mpi.Introspection
}

// WithDefaults fills zero fields; see the struct comment for the
// Quick/explicit precedence.
func (o Options) WithDefaults() Options {
	if o.Quick {
		if o.Trials == 0 {
			o.Trials = 2
		}
		if o.ErrTrials == 0 {
			o.ErrTrials = 4
		}
		if len(o.DiagProcsList) == 0 {
			o.DiagProcsList = []int{2, 4, 8}
		}
	}
	if o.Trials == 0 {
		o.Trials = 5
	}
	if o.ErrTrials == 0 {
		o.ErrTrials = 20
	}
	if o.Steps == 0 {
		o.Steps = 256
	}
	if len(o.DiagProcsList) == 0 {
		o.DiagProcsList = []int{2, 4, 8, 16, 32}
	}
	if len(o.RecoveryModes) == 0 {
		o.RecoveryModes = []recovery.Mode{recovery.ModeSpawn}
	}
	return o
}

// coresFor returns the total core count of the RC configuration at the
// given diagonal process count (the paper's Fig. 8 / Table I / Fig. 11
// x-axis).
func coresFor(diagProcs int) int {
	cfg := core.Config{Technique: core.ResamplingCopying, DiagProcs: diagProcs}.WithDefaults()
	return cfg.NumProcs()
}
