// Command benchmark is the ftsg benchmark: seven named workloads, four
// end-to-end metrics, per-layer drivers and a traced pass. See README.md in
// this directory for why each workload exists and how the metrics interact.
//
//	go run ./benchmark                 every workload, 5 passes each, the
//	                                   layers phase and one traced pass each
//	go run ./benchmark -workload W     one workload (add -trace 1 for the
//	                                   per-layer metrics); the last line of
//	                                   output is the result as JSON
//	go run ./benchmark -aa             the end-to-end set twice on the same
//	                                   code: do the two agree within bounds?
//
// It is run from the root of the checkout and writes only under
// benchmark/out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "run only this workload and print the result as one JSON line last")
		seed     = flag.Int64("seed", 1, "workload seed: victims of the repair and application runs are drawn from it")
		seconds  = flag.Float64("seconds", runSeconds, "with -workload: start passes while they fit in this many seconds (at least one)")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics of untraced passes, 1 the per-layer metrics of the layers phase and one traced pass")
		aa       = flag.Bool("aa", false, "run the end-to-end set twice, alternating workload order, and report whether the two agree within the bounds")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		toy      = flag.Bool("toy", false, "toy scale (64 ranks, 8 steps), as the tier-1 smoke test runs it")
		child    = flag.String("child", "", "internal: run as a child process in this mode")
		spawned  = flag.Int64("spawned", 0, "internal: when the parent started this child, Unix nanoseconds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *child != "" {
		return childMain(*child, *workload, *seed, *spawned, *toy)
	}
	if *spec {
		b, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		os.Stdout.Write(b)
		return 0
	}
	fmt.Printf("ftsg benchmark: seed %d, %d CPUs, GOMAXPROCS %d, %s\n", *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	switch {
	case *workload != "":
		if _, ok := workloadPass[*workload]; !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		if *trace == 1 {
			return driverTraced(*workload, *seed, *toy)
		}
		return driverEndToEnd(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *toy)
	case *aa:
		return runAA(*seed, *toy)
	}
	return runAll(*seed, *toy)
}

// measured is the untraced passes of one workload under one seed.
type measured struct {
	workload  string
	passes    []passResult
	setups    []float64 // one per pass plus set-up-only children, seconds
	attempted int
	failed    int
	errs      []string
}

// setupSamples is how many set-up samples a workload's run collects: the
// 4096-rank repair fits one or two whole passes in a run, too few for a
// median.
const setupSamples = 5

// measure runs untraced passes of a workload, each in a fresh child: a
// fixed number when passes > 0, else as many as fit the budget.
func measure(workload string, seed int64, passes int, budget time.Duration, toy bool) *measured {
	m := &measured{workload: workload}
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if passes > 0 && i == passes {
			break
		}
		if passes == 0 && i > 0 && time.Since(start)+last > budget {
			break
		}
		t := time.Now()
		var p passResult
		if err := spawn("pass", workload, seed, toy, &p); err != nil {
			m.attempted++
			m.failed++
			m.errs = append(m.errs, err.Error())
			break
		}
		last = time.Since(t)
		m.passes = append(m.passes, p)
		m.setups = append(m.setups, p.SetupS)
		m.attempted += p.Attempted
		m.failed += p.Failed
		m.errs = append(m.errs, p.Errors...)
	}
	for len(m.passes) > 0 && len(m.setups) < setupSamples {
		var p passResult
		if err := spawn("setup", workload, seed, toy, &p); err != nil {
			m.errs = append(m.errs, err.Error())
			break
		}
		m.setups = append(m.setups, p.SetupS)
	}
	if len(m.passes) > 1 {
		m.errs = append(m.errs, checkPasses(workload, m.passes)...)
	}
	return m
}

// samples returns the per-pass values of every end-to-end metric.
func (m *measured) samples() map[string][]float64 {
	s := map[string][]float64{"setup_s": m.setups}
	for _, p := range m.passes {
		s["wall_s"] = append(s["wall_s"], p.Region.WallS)
		s["alloc_mib"] = append(s["alloc_mib"], p.Region.AllocMiB)
		s["mallocs_k"] = append(s["mallocs_k"], p.Region.MallocsK)
	}
	return s
}

func (m *measured) ok() bool { return len(m.passes) > 0 && m.failed == 0 && len(m.errs) == 0 }

func (m *measured) print() {
	s := m.samples()
	for _, spec := range endToEnd {
		v := summarize(s[spec.Name])
		fmt.Printf("  %-16s %-14s %12.4f %-5s (min %.4f, max %.4f, n=%d)\n", m.workload, spec.Name, v.Median, spec.Unit, v.Min, v.Max, v.N)
	}
	if len(m.passes) > 0 {
		var live []float64
		for _, p := range m.passes {
			live = append(live, p.Region.PeakLiveMiB)
		}
		v := summarize(live)
		fmt.Printf("  %-16s %-14s %12.4f %-5s (min %.4f, max %.4f, n=%d; diagnostic, see pass.peak_live_mib)\n", m.workload, "peak_live_mib", v.Median, "MiB", v.Min, v.Max, v.N)
		fmt.Printf("  %-16s %-14s %12.6f %-5s (bit-identical over %d passes) outputs sha/fingerprint %s\n",
			m.workload, "virtual", m.passes[0].VirtualVS, "vs", len(m.passes), m.passes[0].Fingerprint)
	}
	fmt.Printf("  %-16s operations: %d attempted, %d failed\n", m.workload, m.attempted, m.failed)
	for _, e := range m.errs {
		fmt.Printf("  %-16s FAILED: %s\n", m.workload, e)
	}
}

// --- driver mode: one workload, result as the last line ---------------------

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the driver's result line and returns the exit code.
func (r driverResult) emit() int {
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

func driverEndToEnd(workload string, seed int64, budget time.Duration, toy bool) int {
	m := measure(workload, seed, 0, budget, toy)
	m.print()
	if len(m.passes) == 0 {
		return 1 // nothing was measured: no result line
	}
	res := driverResult{Correct: m.ok(), Attempted: m.attempted, Failed: m.failed + len(m.errs), Metrics: map[string]metricValue{}}
	s := m.samples()
	for _, spec := range endToEnd {
		res.Metrics[spec.Name] = metricValue{median(s[spec.Name]), spec.Unit}
	}
	return res.emit()
}

// traced runs the layers phase (when layers is nil) and one traced pass of
// the workload, each in a fresh child, and returns every per-layer metric.
func traced(workload string, seed int64, toy bool, layers *layerOut) (values map[string]float64, l *layerOut, p *passResult, errs []string) {
	if layers == nil {
		layers = new(layerOut)
		if err := spawn("layers", workload, seed, toy, layers); err != nil {
			errs = append(errs, err.Error())
		}
		errs = append(errs, layers.Errors...)
	}
	p = new(passResult)
	if err := spawn("traced", workload, seed, toy, p); err != nil {
		errs = append(errs, err.Error())
	}
	errs = append(errs, p.Errors...)
	values = map[string]float64{}
	for _, spec := range perLayer {
		v, ok := layers.Values[spec.Name]
		if !ok {
			v, ok = p.Layer[spec.Name]
		}
		// A pass.* metric the workload has no part for reads 0; a layers
		// metric that is missing means its driver failed.
		if !ok && !isPassMetric(spec.Name) {
			errs = append(errs, "layers phase did not report "+spec.Name)
		}
		values[spec.Name] = v
	}
	return values, layers, p, errs
}

// isPassMetric tells a traced-pass metric from a layers-phase one.
func isPassMetric(name string) bool { return strings.HasPrefix(name, "pass.") }

// saveTrace writes the traced passes' spans to benchmark/out/trace.json.
func saveTrace(spans []span) error {
	path := filepath.Join(outDir, "trace.json")
	if err := writeTrace(path, spans); err != nil {
		return err
	}
	fmt.Printf("%d spans written to %s\n", len(spans), path)
	return nil
}

// printLayers prints the layers-phase metrics, or with traced set the
// traced pass's (prefix "pass.").
func printLayers(values map[string]float64, notes map[string]string, traced bool) {
	for _, spec := range perLayer {
		if isPassMetric(spec.Name) == traced {
			fmt.Printf("  %-44s %14.6g %-6s %s\n", spec.Name, values[spec.Name], spec.Unit, notes[spec.Name])
		}
	}
}

func driverTraced(workload string, seed int64, toy bool) int {
	values, layers, pass, errs := traced(workload, seed, toy, nil)
	fmt.Println("layers phase")
	printLayers(values, layers.Notes, false)
	fmt.Printf("%s: traced pass (0: the workload has no such part)\n", workload)
	printLayers(values, nil, true)
	for _, e := range errs {
		fmt.Printf("  %-16s FAILED: %s\n", workload, e)
	}
	if err := saveTrace(pass.Spans); err != nil {
		errs = append(errs, err.Error())
	}
	if pass.Attempted == 0 {
		return 1 // the traced pass never ran: no result line
	}
	res := driverResult{
		Correct:   len(errs) == 0,
		Attempted: layers.Attempted + pass.Attempted,
		Failed:    len(errs),
		Metrics:   map[string]metricValue{},
	}
	for _, spec := range perLayer {
		res.Metrics[spec.Name] = metricValue{values[spec.Name], spec.Unit}
	}
	return res.emit()
}

// --- full mode: everything, by name, with units ------------------------------

// fullPasses is how many untraced passes `go run ./benchmark` and -aa make
// per workload.
const fullPasses = 5

func runAll(seed int64, toy bool) int {
	failed := false
	runs := map[string]*measured{}
	var spans []span
	var layers *layerOut
	for _, w := range workloads {
		fmt.Printf("\n%s: %d untraced passes\n", w.Name, fullPasses)
		m := measure(w.Name, seed, fullPasses, 0, toy)
		m.print()
		runs[w.Name] = m
		failed = failed || !m.ok()

		values, l, pass, errs := traced(w.Name, seed, toy, layers)
		if layers == nil {
			layers = l
			fmt.Println("\nlayers phase (identical for every workload)")
			printLayers(values, l.Notes, false)
		}
		fmt.Printf("%s: traced pass (0: the workload has no such part)\n", w.Name)
		printLayers(values, nil, true)
		if len(m.passes) > 0 {
			untraced := median(m.samples()["wall_s"])
			fmt.Printf("  %-16s tracing overhead: traced %.4f s - untraced median %.4f s = %+.4f s (%+.1f%%)\n",
				w.Name, pass.Region.WallS, untraced, pass.Region.WallS-untraced, 100*(pass.Region.WallS/untraced-1))
			// The traced pass must reproduce the untraced passes bit for bit.
			errs = append(errs, checkPasses(w.Name, []passResult{m.passes[0], *pass})...)
		}
		for _, e := range errs {
			fmt.Printf("  %-16s FAILED: %s\n", w.Name, e)
			failed = true
		}
		spans = append(spans, pass.Spans...)
	}
	fmt.Println("\ncross-path parity")
	for _, w := range workloads {
		twin := twinOf(w.Name)
		if twin == "" || len(runs[w.Name].passes) == 0 || len(runs[twin].passes) == 0 {
			continue
		}
		errs := checkTwins(w.Name, runs[w.Name].passes[0], runs[twin].passes[0])
		if len(errs) == 0 {
			fmt.Printf("  %s and %s: virtual time and outputs bit-identical\n", w.Name, twin)
		}
		for _, e := range errs {
			fmt.Println("  FAILED:", e)
			failed = true
		}
	}
	if err := saveTrace(spans); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		failed = true
	}
	if failed {
		fmt.Println("FAILED: at least one operation or check failed")
		return 1
	}
	fmt.Println("all checks passed; fail share 0 on every workload")
	return 0
}

// --- -aa: does the benchmark agree with itself? -----------------------------

// aaVerdict compares one metric of one workload between two sets of passes
// of the same code. The medians agree when the second is not worse than the
// first by more than the bound, nor the first than the second; the pair is
// unresolved when the passes' own spread exceeds the bound.
func aaVerdict(a, b []float64, bound float64) (verdict string, delta, spreadA, spreadB float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / ma
	}
	spreadA, spreadB = spread(a), spread(b)
	switch {
	case spreadA > bound || spreadB > bound:
		verdict = "unresolved"
	case delta > bound || delta < -bound:
		verdict = "DISAGREE"
	default:
		verdict = "agree"
	}
	return verdict, delta, spreadA, spreadB
}

func runAA(seed int64, toy bool) int {
	order := append([]workloadSpec(nil), workloads...)
	sets := [2]map[string]*measured{{}, {}}
	failed := false
	for i := range sets {
		fmt.Printf("\nset %c\n", 'A'+i)
		for _, w := range order {
			m := measure(w.Name, seed, fullPasses, 0, toy)
			m.print()
			sets[i][w.Name] = m
			failed = failed || !m.ok()
		}
		slices.Reverse(order) // the next set runs in the opposite order
	}
	fmt.Printf("\nA/A: %d passes per set, same code, same seed\n", fullPasses)
	fmt.Printf("  %-16s %-14s %12s %12s %8s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "delta", "spread A", "spread B", "bound", "verdict")
	for _, w := range workloads {
		a, b := sets[0][w.Name], sets[1][w.Name]
		sa, sb := a.samples(), b.samples()
		for _, spec := range endToEnd {
			verdict, delta, spA, spB := aaVerdict(sa[spec.Name], sb[spec.Name], spec.Bound)
			fmt.Printf("  %-16s %-14s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n",
				w.Name, spec.Name, median(sa[spec.Name]), median(sb[spec.Name]), 100*delta, 100*spA, 100*spB, 100*spec.Bound, verdict)
			failed = failed || verdict == "DISAGREE"
		}
		if len(a.passes) > 0 && len(b.passes) > 0 {
			for _, e := range checkPasses(w.Name, []passResult{a.passes[0], b.passes[0]}) {
				fmt.Println("  FAILED:", e)
				failed = true
			}
		}
	}
	if failed {
		fmt.Println("FAILED: the two sets disagree, or an operation or check failed")
		return 1
	}
	fmt.Println("the two sets agree within the bounds on every resolved pair; virtual time and outputs bit-identical across sets")
	return 0
}
