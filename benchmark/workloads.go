package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"ftsg/internal/core"
	"ftsg/internal/harness"
	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
	"ftsg/internal/vtime"
)

// passEnv is what one pass of a workload is given. tr and reg are nil on
// the untraced (end-to-end) passes: those run with Metrics, Trace, Journal
// and Telemetry all off.
type passEnv struct {
	sz   sizes
	seed int64
	tr   *tracer
	reg  *metrics.Registry
	// setupOnly stops the pass where its timed region would begin, so the
	// set-up can be sampled more often than whole passes fit in a run.
	setupOnly bool
}

// passOut is what one pass produced. An operation is one core.Run, one
// mpi.Run or one harness figure function; an operation that returns an
// error or trips a check counts as failed.
type passOut struct {
	regionStart time.Time // set-up ends and the timed region starts here
	region      regionStats
	virtual     float64 // simulated seconds, bit-exact for a seed
	attempted   int
	failed      int
	errs        []string
	fingerprint string             // sha-256 over the pass's outputs
	layer       map[string]float64 // pass.* metrics read off the pass's spans
}

func newPassOut() *passOut { return &passOut{layer: map[string]float64{}} }

// setupDone ends a set-up-only pass.
func (o *passOut) setupDone() *passOut {
	o.regionStart = time.Now()
	return o
}

func (o *passOut) op(name string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.errs = append(o.errs, name+": "+err.Error())
	}
}

// workloadPass maps each workload name to its pass.
var workloadPass = map[string]func(*passEnv) *passOut{
	"paper_sweep":     passPaperSweep,
	"app_1k":          func(e *passEnv) *passOut { return passApp(e, false) },
	"app_1k_event":    func(e *passEnv) *passOut { return passApp(e, true) },
	"repair_4k":       func(e *passEnv) *passOut { return passRepair(e, false) },
	"repair_4k_event": func(e *passEnv) *passOut { return passRepair(e, true) },
	"steady_4k":       func(e *passEnv) *passOut { return passSteady(e, false) },
	"steady_4k_event": func(e *passEnv) *passOut { return passSteady(e, true) },
}

// errSink collects errors raised on simulated ranks.
type errSink struct {
	mu   sync.Mutex
	errs []string
}

func (s *errSink) add(format string, args ...any) {
	s.mu.Lock()
	if len(s.errs) < 8 { // the first few name the fault; 4096 copies do not
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
	s.mu.Unlock()
}

func (s *errSink) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.errs) == 0 {
		return nil
	}
	return fmt.Errorf("%d rank errors, first: %s", len(s.errs), s.errs[0])
}

// warmUp is the fixed small warm-up every pass process runs before its
// timed region: one 64-rank repair and one 19-rank application run, on the
// execution path of the workload.
func warmUp(event bool) error {
	var sink errSink
	check := newRepairCheck(64, drawVictims(1, 64))
	if _, err := mpi.Run(reconstructOptions(64, check, event, &sink)); err != nil {
		return err
	}
	if err := sink.err(); err != nil {
		return err
	}
	_, err := core.Run(core.Config{
		Technique:         core.ResamplingCopying,
		DiagProcs:         2,
		Steps:             32,
		CheckpointBackend: "mem",
		Event:             event,
		EventWorkers:      workers(),
	})
	return err
}

// --- paper_sweep ------------------------------------------------------------

// figure binds one harness figure function to its CSV renderer: the result
// runs the sweep, renders the rows to w and returns their virtual time
// (when the figure has one).
func figure[R any](o harness.Options, run func(harness.Options) ([]R, error), csv func(io.Writer, []R) error, virtual func([]R) float64) func(io.Writer) (float64, error) {
	return func(w io.Writer) (float64, error) {
		rows, err := run(o)
		if err != nil {
			return 0, err
		}
		var v float64
		if virtual != nil {
			v = virtual(rows)
		}
		return v, csv(w, rows)
	}
}

func passPaperSweep(env *passEnv) *passOut {
	out := newPassOut()
	o := env.sz.sweep
	o.Metrics = env.reg
	// The real-file checkpoint backend makes consecutive runs drift from
	// 3.6 s to 5.4 s on this host (dirty-page writeback); the mem backend's
	// results are byte-identical, and checkpoint.*.dir keeps the disk in view.
	o.CkptBackend = "mem"
	csv := sha256.New()
	// The sweep's simulated time is Fig. 11's time_s column summed: the one
	// place the harness hands back whole-run virtual times.
	fig11Time := func(rows []harness.Fig11Row) (virtual float64) {
		for _, r := range rows {
			virtual += r.Time
		}
		return virtual
	}
	figures := []struct {
		name string
		run  func(w io.Writer) (virtual float64, err error)
	}{
		{"fig8", figure(o, harness.Fig8, harness.CSVFig8, nil)},
		{"table1", figure(o, harness.Table1, harness.CSVTable1, nil)},
		{"fig9", figure(o, harness.Fig9, harness.CSVFig9, nil)},
		{"fig10", figure(o, harness.Fig10, harness.CSVFig10, nil)},
		{"fig11", figure(o, harness.Fig11, harness.CSVFig11, fig11Time)},
	}
	if env.setupOnly {
		return out.setupDone()
	}
	r := beginRegion()
	out.regionStart = r.start
	for _, fg := range figures {
		id := env.tr.begin("harness."+fg.name, 0)
		start := time.Now()
		virtual, err := fg.run(csv)
		out.layer["pass.harness.fig_s."+fg.name] = time.Since(start).Seconds()
		env.tr.finish(id)
		out.op(fg.name, err)
		out.virtual += virtual
	}
	out.region = r.end()
	out.fingerprint = hex.EncodeToString(csv.Sum(nil))
	return out
}

// --- app_1k / app_1k_event --------------------------------------------------

// appVictimSeed fixes core's victim draw for app_1k*. Which sub-grids lose a
// rank decides how much recovery work a run does: with victims drawn from
// the workload seed, alloc_mib spread 5 % and peak live memory 27 % over
// ten seeds, which no bound of a tenth can hold. Draw 1 kills ranks of two
// diagonal grids (CR), a lower-diagonal and a duplicate (RC) and two
// lower-diagonal grids (AC). repair_4k* keeps seed-drawn victims: its cost
// does not depend on where they sit.
const appVictimSeed = 1

// appVelocity draws the advection velocity from the workload seed: same
// speed as the default (1, 0.5), direction between 15 and 75 degrees. It
// changes the field every rank computes and the error of the combined
// solution, not the work done.
func appVelocity(seed int64) [2]float64 {
	theta := (15 + 60*rand.New(rand.NewSource(seed)).Float64()) * math.Pi / 180
	speed := math.Hypot(1, 0.5)
	return [2]float64{speed * math.Cos(theta), speed * math.Sin(theta)}
}

func passApp(env *passEnv, event bool) *passOut {
	out := newPassOut()
	results := sha256.New()
	if env.setupOnly {
		return out.setupDone()
	}
	r := beginRegion()
	out.regionStart = r.start
	for _, tech := range []core.Technique{core.CheckpointRestart, core.ResamplingCopying, core.AlternateCombination} {
		cfg := core.Config{
			Layout:            env.sz.appLayout,
			Technique:         tech,
			DiagProcs:         env.sz.appDiagProcs,
			Steps:             env.sz.appSteps,
			NumFailures:       2,
			RealFailures:      true,
			CheckpointBackend: "mem",
			Seed:              appVictimSeed,
			Velocity:          appVelocity(env.seed),
			Metrics:           env.reg,
			Event:             event,
			EventWorkers:      workers(),
		}
		id := env.tr.begin("core.Run."+tech.String(), 0)
		start := time.Now()
		res, err := core.Run(cfg)
		out.layer["pass.core.run_s."+tech.String()] = time.Since(start).Seconds()
		env.tr.finish(id)
		if err == nil {
			err = checkAppResult(res)
		}
		out.op("core.Run "+tech.String(), err)
		if res != nil {
			out.virtual += res.TotalTime
			fmt.Fprintln(results, resultFingerprint(res))
		}
	}
	out.region = r.end()
	out.fingerprint = hex.EncodeToString(results.Sum(nil))
	return out
}

// --- repair_4k / repair_4k_event --------------------------------------------

// drawVictims picks two distinct victims from the seed; rank 0 is
// protected, as in the application.
func drawVictims(seed int64, n int) [2]int {
	rng := rand.New(rand.NewSource(seed))
	a := 1 + rng.Intn(n-1)
	b := 1 + rng.Intn(n-2)
	if b >= a {
		b++
	}
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// reconstructOptions is the repair workload's rank program on the
// production path: every rank and every re-spawned child calls
// recovery.Reconstruct (FiberReconstruct on the event path).
func reconstructOptions(n int, check *repairCheck, event bool, sink *errSink) mpi.Options {
	o := mpi.Options{NProcs: n, Machine: vtime.OPL(), EventWorkers: workers()}
	if event {
		o.EventEntry = func(p *mpi.Proc, f *mpi.Fiber) {
			st := new(recovery.Stats)
			if parent := p.Parent(); parent != nil {
				recovery.FiberReconstruct(p, f, nil, parent, st, func(rec *mpi.Comm, rank int, err error) {
					check.child(rec, rank, err, sink)
				})
				return
			}
			c := p.World()
			if check.isVictim(c.Rank()) {
				p.Kill()
			}
			recovery.FiberReconstruct(p, f, c, nil, st, func(rec *mpi.Comm, rank int, err error) {
				check.survivor(c.Rank(), rec, rank, st, err, sink)
			})
		}
		return o
	}
	o.Entry = func(p *mpi.Proc) {
		var st recovery.Stats
		if parent := p.Parent(); parent != nil {
			rec, rank, err := recovery.Reconstruct(p, nil, parent, &st)
			check.child(rec, rank, err, sink)
			return
		}
		c := p.World()
		if check.isVictim(c.Rank()) {
			p.Kill()
		}
		rec, rank, err := recovery.Reconstruct(p, c, nil, &st)
		check.survivor(c.Rank(), rec, rank, &st, err, sink)
	}
	return o
}

func passRepair(env *passEnv, event bool) *passOut {
	out := newPassOut()
	n := env.sz.bigRanks
	check := newRepairCheck(n, drawVictims(env.seed, n))
	var sink errSink

	var opts mpi.Options
	var phases *phaseTable
	if env.tr != nil {
		// The traced pass runs the benchmark's transcription of the repair
		// dance, so each public mpi call can be timed per rank; pinTranscript
		// holds it to recovery's own virtual times first.
		if err := pinTranscript(env.seed, event); err != nil {
			out.op("transcript pin", err)
		}
		phases = newPhaseTable(n)
		opts = transcriptOptions(n, check, event, &sink, phases)
	} else {
		opts = reconstructOptions(n, check, event, &sink)
	}
	opts.Metrics = env.reg
	if env.setupOnly {
		return out.setupDone()
	}

	r := beginRegion()
	out.regionStart = r.start
	id := env.tr.begin("mpi.Run", 0)
	rep, err := mpi.Run(opts)
	env.tr.finish(id)
	out.region = r.end()

	if err == nil {
		err = sink.err()
	}
	if err == nil {
		err = check.verdict(rep)
	}
	out.op("mpi.Run repair", err)
	if rep != nil {
		out.virtual = rep.MaxVirtualTime
	}
	out.fingerprint = check.fingerprint(rep)
	if phases != nil {
		phases.report(env.tr, id, out.layer)
	}
	return out
}

// --- steady_4k / steady_4k_event --------------------------------------------

// Round elements of the steady workload, in program order.
const (
	elemBarrier = iota
	elemSmall
	elemRing
	elemSendrecv
	numElems
)

var elemNames = [numElems]string{"mpi.Barrier", "mpi.Allreduce.small", "mpi.Allreduce.ring", "mpi.Sendrecv.x8"}

const (
	smallLen     = 16   // float64s in the latency-bound Allreduce
	ringLen      = 5120 // 40 KiB: past collRingCutover, the ring path
	neighbourLen = 128
	neighbourOps = 8
	neighbourTag = 7
)

// steadyHooks are called on rank 0 only. element is nil when round
// elements are not timed.
type steadyHooks struct {
	ready   func() // after the first barrier: the world is built
	element func(kind int, start, end time.Time)
	done    func() // after the final barrier
}

// lap reports one round element on rank 0 and starts the next.
func (h *steadyHooks) lap(timed bool, kind int, start time.Time) time.Time {
	if !timed {
		return start
	}
	now := time.Now()
	h.element(kind, start, now)
	return now
}

// steadyOptions builds the failure-free rank program: a first barrier,
// then rounds of Barrier, a 16-float64 Allreduce, a 40 KiB Allreduce and
// eight ring-neighbour exchanges, then a final barrier. Every collective's
// result is checked on every rank.
func steadyOptions(n, rounds int, event bool, h *steadyHooks, sink *errSink) mpi.Options {
	o := mpi.Options{NProcs: n, Machine: vtime.OPL(), EventWorkers: workers()}
	if event {
		o.EventEntry = func(p *mpi.Proc, f *mpi.Fiber) { steadyFiber(p, f, n, rounds, h, sink) }
		return o
	}
	o.Entry = func(p *mpi.Proc) {
		c := p.World()
		me := c.Rank()
		timed := me == 0 && h.element != nil
		right, left := (me+1)%n, (me+n-1)%n
		small := filled(smallLen, 1)
		big := filled(ringLen, 1)
		mine := filled(neighbourLen, float64(me))

		if err := c.Barrier(); err != nil {
			sink.add("rank %d first barrier: %v", me, err)
			return
		}
		if me == 0 {
			h.ready()
		}
		for k := 0; k < rounds; k++ {
			var t time.Time
			if timed {
				t = time.Now()
			}
			if err := c.Barrier(); err != nil {
				sink.add("rank %d barrier: %v", me, err)
				return
			}
			t = h.lap(timed, elemBarrier, t)
			sum, err := mpi.Allreduce(c, small, mpi.Sum[float64])
			if err != nil || sum[0] != float64(n) {
				sink.add("rank %d small allreduce: %v %v", me, sum, err)
				return
			}
			t = h.lap(timed, elemSmall, t)
			sum, err = mpi.Allreduce(c, big, mpi.Sum[float64])
			if err != nil || sum[0] != float64(n) || sum[ringLen-1] != float64(n) {
				sink.add("rank %d ring allreduce: %v", me, err)
				return
			}
			t = h.lap(timed, elemRing, t)
			for j := 0; j < neighbourOps; j++ {
				if err := mpi.Send(c, right, neighbourTag, mine); err != nil {
					sink.add("rank %d send: %v", me, err)
					return
				}
				got, _, err := mpi.Recv[float64](c, left, neighbourTag)
				if err != nil || got[0] != float64(left) {
					sink.add("rank %d recv: %v", me, err)
					return
				}
			}
			h.lap(timed, elemSendrecv, t)
		}
		if err := c.Barrier(); err != nil {
			sink.add("rank %d final barrier: %v", me, err)
			return
		}
		if me == 0 {
			h.done()
		}
	}
	return o
}

func filled(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// steadyFiber is the same program through the Fiber* operations.
func steadyFiber(p *mpi.Proc, f *mpi.Fiber, n, rounds int, h *steadyHooks, sink *errSink) {
	c := p.World()
	me := c.Rank()
	timed := me == 0 && h.element != nil
	right, left := (me+1)%n, (me+n-1)%n
	small := filled(smallLen, 1)
	big := filled(ringLen, 1)
	mine := filled(neighbourLen, float64(me))

	var round func(k int)
	var exchange func(j int, next func())
	exchange = func(j int, next func()) {
		if j == neighbourOps {
			next()
			return
		}
		if err := mpi.FiberSend(c, right, neighbourTag, mine); err != nil {
			sink.add("rank %d send: %v", me, err)
			return
		}
		mpi.FiberRecv(f, c, left, neighbourTag, func(got []float64, _ mpi.Status, err error) {
			if err != nil || got[0] != float64(left) {
				sink.add("rank %d recv: %v", me, err)
				return
			}
			exchange(j+1, next)
		})
	}
	round = func(k int) {
		if k == rounds {
			mpi.FiberBarrier(f, c, func(err error) {
				if err != nil {
					sink.add("rank %d final barrier: %v", me, err)
					return
				}
				if me == 0 {
					h.done()
				}
			})
			return
		}
		var t time.Time
		if timed {
			t = time.Now()
		}
		mpi.FiberBarrier(f, c, func(err error) {
			if err != nil {
				sink.add("rank %d barrier: %v", me, err)
				return
			}
			t = h.lap(timed, elemBarrier, t)
			mpi.FiberAllreduce(f, c, small, mpi.Sum[float64], func(sum []float64, err error) {
				if err != nil || sum[0] != float64(n) {
					sink.add("rank %d small allreduce: %v %v", me, sum, err)
					return
				}
				t = h.lap(timed, elemSmall, t)
				mpi.FiberAllreduce(f, c, big, mpi.Sum[float64], func(sum []float64, err error) {
					if err != nil || sum[0] != float64(n) || sum[ringLen-1] != float64(n) {
						sink.add("rank %d ring allreduce: %v", me, err)
						return
					}
					t = h.lap(timed, elemRing, t)
					exchange(0, func() {
						h.lap(timed, elemSendrecv, t)
						round(k + 1)
					})
				})
			})
		})
	}
	mpi.FiberBarrier(f, c, func(err error) {
		if err != nil {
			sink.add("rank %d first barrier: %v", me, err)
			return
		}
		if me == 0 {
			h.ready()
		}
		round(0)
	})
}

func passSteady(env *passEnv, event bool) *passOut {
	out := newPassOut()
	n, rounds := env.sz.bigRanks, env.sz.steadyRounds
	if env.setupOnly {
		rounds = 0 // the set-up is the world's construction through the first barrier
	}
	var sink errSink
	var r *region
	var runID int
	finished := false
	elems := make([][]float64, numElems)
	h := &steadyHooks{
		ready: func() {
			r = beginRegion()
			out.regionStart = r.start
		},
		done: func() {
			out.region = r.end()
			finished = true
		},
	}
	if env.tr != nil {
		h.element = func(kind int, start, end time.Time) {
			env.tr.add(elemNames[kind], runID, 0, start, end)
			elems[kind] = append(elems[kind], float64(end.Sub(start).Nanoseconds())/1e3)
		}
	}
	opts := steadyOptions(n, rounds, event, h, &sink)
	opts.Metrics = env.reg

	runID = env.tr.begin("mpi.Run", 0)
	rep, err := mpi.Run(opts)
	env.tr.finish(runID)
	if err == nil {
		err = sink.err()
	}
	if err == nil && !finished {
		err = fmt.Errorf("rank 0 never reached the final barrier")
	}
	if err == nil && len(rep.Failed) != 0 {
		err = fmt.Errorf("failure-free workload lost ranks %v", rep.Failed)
	}
	out.op("mpi.Run steady", err)
	if rep != nil {
		out.virtual = rep.MaxVirtualTime
		out.fingerprint = fmt.Sprintf("ranks=%d rounds=%d virtual=%x", n, rounds, rep.MaxVirtualTime)
	}
	if env.tr != nil {
		out.layer["pass.mpi.coll.barrier_us"] = median(elems[elemBarrier])
		out.layer["pass.mpi.coll.allreduce_small_us"] = median(elems[elemSmall])
		out.layer["pass.mpi.coll.allreduce_ring_us"] = median(elems[elemRing])
		out.layer["pass.mpi.p2p.sendrecv_us"] = median(elems[elemSendrecv]) / neighbourOps
	}
	return out
}
