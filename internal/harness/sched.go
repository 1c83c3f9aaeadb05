package harness

import (
	"runtime"

	"ftsg/internal/core"
	"ftsg/internal/metrics"
)

// The experiment matrix — cores × technique × failures × trials — is a set
// of completely independent simulated runs: each (config, trial) cell has
// its own seed, its own virtual cluster and its own checkpoint directory.
// sched fans those cells out over a bounded worker pool and folds the
// results back STRICTLY in submission order, so every table, figure and CSV
// is byte-identical to the serial run regardless of the worker count or of
// the order in which runs happen to finish.

// schedJob is one independent simulated run with its result fold.
type schedJob struct {
	cfg core.Config
	// fold accumulates the run's result; folds are invoked serially in
	// submission order after all runs complete, so they need no locking
	// and floating-point accumulation order is fixed.
	fold func(*core.Result)
	// wrap decorates the run's error with sweep coordinates.
	wrap func(error) error
}

// sched collects jobs and executes them on a bounded worker pool.
type sched struct {
	workers int
	opts    Options // overlaid on every run; its Metrics aggregates them
	jobs    []schedJob
}

// overlay applies the sweep-wide Options to one run's configuration: the
// checkpoint store (CkptBackend, CkptGenerations), the cluster shape (Hosts,
// SlotsPerHost, Racks), the transport path (Event, EventWorkers) and the
// introspection hub. Zero fields keep the run's own value, so a sweep with
// default Options runs exactly the configurations it queued.
func (o Options) overlay(cfg *core.Config) {
	if o.CkptBackend != "" {
		cfg.CheckpointBackend = o.CkptBackend
	}
	if o.CkptGenerations > 0 {
		cfg.CheckpointGenerations = o.CkptGenerations
	}
	if o.Hosts > 0 {
		cfg.Hosts = o.Hosts
	}
	if o.SlotsPerHost > 0 {
		cfg.SlotsPerHost = o.SlotsPerHost
	}
	if o.Racks > 0 {
		cfg.Racks = o.Racks
	}
	if o.Event {
		cfg.Event = true
		cfg.EventWorkers = o.EventWorkers
	}
	if o.Introspect != nil && cfg.Introspect == nil {
		cfg.Introspect = o.Introspect
	}
}

// newSched returns a scheduler for the Options: o.Workers bounds
// concurrency (<= 0 selects runtime.GOMAXPROCS(0)); o.Metrics, when
// non-nil, aggregates instrumentation from every run (each run records into
// a private registry, merged in submission order after the sweep, so the
// aggregate is deterministic for every worker count).
func newSched(o Options) *sched {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &sched{workers: workers, opts: o}
}

// Add enqueues a single run of cfg.
func (s *sched) Add(cfg core.Config, fold func(*core.Result), wrap func(error) error) {
	s.jobs = append(s.jobs, schedJob{cfg: cfg, fold: fold, wrap: wrap})
}

// AddTrials enqueues trials runs of cfg under the harness seed schedule
// (Seed + 101·trial, matching the serial harness).
func (s *sched) AddTrials(cfg core.Config, trials int, fold func(*core.Result), wrap func(error) error) {
	for tr := 0; tr < trials; tr++ {
		c := cfg
		c.Seed = cfg.Seed + int64(tr)*101
		s.Add(c, fold, wrap)
	}
}

// Run executes every queued job, bounded by the worker count, then folds
// all results in submission order. On error no fold runs: the first error
// (by submission order among the jobs that ran) is returned, wrapped by the
// job's wrap function, and outstanding jobs are cancelled — workers finish
// their in-flight run and stop. The job queue is cleared either way.
func (s *sched) Run() error {
	jobs := s.jobs
	s.jobs = nil
	n := len(jobs)
	if n == 0 {
		return nil
	}
	results := make([]*core.Result, n)
	var regs []*metrics.Registry
	if s.opts.Metrics != nil {
		regs = make([]*metrics.Registry, n)
	}
	err := ParallelOrdered(s.workers, n, func(i int) error {
		cfg := jobs[i].cfg
		s.opts.overlay(&cfg)
		if regs != nil && cfg.Metrics == nil {
			// Private per-run registry: the run's Result telemetry
			// stays per-run, and the fixed-order merge below keeps
			// the aggregate deterministic under concurrency.
			regs[i] = metrics.New()
			cfg.Metrics = regs[i]
		}
		res, err := core.Run(cfg)
		if err != nil {
			if jobs[i].wrap != nil {
				return jobs[i].wrap(err)
			}
			return err
		}
		if regs != nil && regs[i] != nil && !cfg.Telemetry {
			// The registry was injected for the aggregate summary
			// only; clear the per-run telemetry fields so tables and
			// CSVs stay identical to an uninstrumented sweep.
			res.MPIMessages, res.MPIBytes = 0, 0
			res.CheckpointBytesOut, res.CheckpointBytesIn = 0, 0
		}
		results[i] = res
		return nil
	})
	for _, reg := range regs {
		if reg != nil {
			s.opts.Metrics.Merge(reg)
		}
	}
	if err != nil {
		return err
	}
	for i, j := range jobs {
		j.fold(results[i])
	}
	return nil
}

// mean averages with pairwise summation: lower rounding error than a naive
// running sum, and exact when all values are identical and len is a power of
// two (e.g. a deterministic CR error averaged over trials).
func mean(xs []float64) float64 {
	return pairwiseSum(xs) / float64(len(xs))
}

func pairwiseSum(xs []float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	h := len(xs) / 2
	return pairwiseSum(xs[:h]) + pairwiseSum(xs[h:])
}
