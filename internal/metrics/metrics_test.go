package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	// All of these must be safe and free on nil receivers.
	r.Counter("a").Add(5)
	r.Counter("a").Inc()
	r.Gauge("g").Set(1)
	r.TimeSum("t").Add(2)
	r.Histogram("h").Observe(3)
	r.CounterVec("v").At(7).Inc()
	if r.Counter("a").Value() != 0 || r.Gauge("g").Value() != 0 ||
		r.TimeSum("t").Value() != 0 || r.Histogram("h").Count() != 0 ||
		r.CounterVec("v").Len() != 0 {
		t.Fatal("nil instruments returned data")
	}
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "disabled") {
		t.Fatalf("nil summary: %q", buf.String())
	}
}

func TestCounterGaugeTimeSum(t *testing.T) {
	r := New()
	c := r.Counter("mpi.sent.messages")
	c.Add(3)
	c.Inc()
	if got := r.Counter("mpi.sent.messages").Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	r.Gauge("interval").Set(12.5)
	if got := r.Gauge("interval").Value(); got != 12.5 {
		t.Fatalf("gauge = %g", got)
	}
	ts := r.TimeSum("cost.alpha")
	ts.Add(0.25)
	ts.Add(0.5)
	if got := ts.Value(); got != 0.75 {
		t.Fatalf("timesum = %g", got)
	}
}

func TestHistogram(t *testing.T) {
	h := New().Histogram("op")
	for _, v := range []float64{1e-6, 2e-6, 4e-6, 1e-3} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 1e-6+2e-6+4e-6+1e-3; math.Abs(got-want) > 1e-15 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	if h.Max() != 1e-3 {
		t.Fatalf("max = %g", h.Max())
	}
	if h.Mean() <= 0 {
		t.Fatalf("mean = %g", h.Mean())
	}
	// The 0.5 quantile upper bound must sit at or below the largest
	// observation and above the smallest.
	q := h.Quantile(0.5)
	if q < 1e-6 || q > 1e-3 {
		t.Fatalf("q50 = %g out of range", q)
	}
	if h.Quantile(1) != h.Max() {
		t.Fatalf("q100 = %g, max = %g", h.Quantile(1), h.Max())
	}
	h.Observe(-5) // clamped, must not panic
	if h.Count() != 5 {
		t.Fatalf("count after clamp = %d", h.Count())
	}
}

func TestCounterVecGrowth(t *testing.T) {
	v := New().CounterVec("rank.sent")
	v.At(3).Add(2)
	v.At(0).Inc()
	v.At(10).Add(7)
	if v.Len() != 11 {
		t.Fatalf("len = %d, want 11", v.Len())
	}
	if v.At(3).Value() != 2 || v.At(0).Value() != 1 || v.At(10).Value() != 7 || v.At(5).Value() != 0 {
		t.Fatal("vector values wrong")
	}
	if v.At(-1) != nil {
		t.Fatal("negative index returned a counter")
	}
}

// TestConcurrentUpdates hammers the same instruments from many goroutines
// while another walks the registry the way a live scrape and an aggregating
// sweep do; CI runs it with -race.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	const workers, per = 8, 1000
	var wg, scraper sync.WaitGroup
	done := make(chan struct{})
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		agg := New()
		for {
			select {
			case <-done:
				return
			default:
			}
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
			}
			r.WriteSummary(&b)
			agg.Merge(r)
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c").Inc()
				r.TimeSum("t").Add(1)
				r.Histogram("h").Observe(float64(i) * 1e-9)
				r.CounterVec("v").At(w).Inc()
			}
		}(w)
	}
	wg.Wait()
	close(done)
	scraper.Wait()
	if got := r.Counter("c").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.TimeSum("t").Value(); got != workers*per {
		t.Fatalf("timesum = %g, want %d", got, workers*per)
	}
	if got := r.Histogram("h").Count(); got != workers*per {
		t.Fatalf("hist count = %d, want %d", got, workers*per)
	}
	for w := 0; w < workers; w++ {
		if got := r.CounterVec("v").At(w).Value(); got != per {
			t.Fatalf("vec[%d] = %d, want %d", w, got, per)
		}
	}
}

func TestWriteSummaryDeterministic(t *testing.T) {
	r := New()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.TimeSum("cost.alpha").Add(0.5)
	r.Histogram("op.barrier").Observe(1e-5)
	r.CounterVec("rank.sent").At(1).Add(9)
	var one, two bytes.Buffer
	r.WriteSummary(&one)
	r.WriteSummary(&two)
	if one.String() != two.String() {
		t.Fatal("summary not deterministic")
	}
	out := one.String()
	// Name-sorted: a.count before b.count.
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Fatalf("not sorted:\n%s", out)
	}
	for _, want := range []string{"counters:", "virtual time", "latency histograms", "per-index", "[0 9]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Counter("msgs").Add(3)
	b.Counter("msgs").Add(4)
	b.Counter("only.b").Add(7)
	a.Gauge("interval").Set(1.5)
	b.Gauge("interval").Set(2.5)
	a.TimeSum("cost").Add(1.0)
	b.TimeSum("cost").Add(0.25)
	a.Histogram("op").Observe(1e-6)
	b.Histogram("op").Observe(3e-6)
	b.Histogram("op").Observe(2e-6)
	a.CounterVec("per.rank").At(0).Add(1)
	b.CounterVec("per.rank").At(2).Add(5)

	a.Merge(b)

	if got := a.Counter("msgs").Value(); got != 7 {
		t.Errorf("msgs = %d, want 7", got)
	}
	if got := a.Counter("only.b").Value(); got != 7 {
		t.Errorf("only.b = %d, want 7", got)
	}
	if got := a.Gauge("interval").Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5 (last-write-wins)", got)
	}
	if got := a.TimeSum("cost").Value(); got != 1.25 {
		t.Errorf("cost = %g, want 1.25", got)
	}
	h := a.Histogram("op")
	if h.Count() != 3 || h.Max() != 3e-6 {
		t.Errorf("hist count=%d max=%g, want 3 and 3e-6", h.Count(), h.Max())
	}
	if got, want := h.Sum(), 6e-6; math.Abs(got-want) > 1e-18 {
		t.Errorf("hist sum = %g, want %g", got, want)
	}
	if got := a.CounterVec("per.rank").At(2).Value(); got != 5 {
		t.Errorf("per.rank[2] = %d, want 5", got)
	}
	if got := a.CounterVec("per.rank").At(0).Value(); got != 1 {
		t.Errorf("per.rank[0] = %d, want 1", got)
	}
	// src unchanged
	if got := b.Counter("msgs").Value(); got != 4 {
		t.Errorf("src msgs = %d, want 4", got)
	}

	// nil merges are no-ops
	a.Merge(nil)
	var nilReg *Registry
	nilReg.Merge(a)
}

// TestWriteSummaryGolden pins the exact summary text of one instrument of
// every kind: sections in kind order, names sorted within a section, the
// histogram column line, and each kind's number format.
func TestWriteSummaryGolden(t *testing.T) {
	r := New()
	// Deliberately registered out of name and kind order: the writer sorts.
	r.TimeSumVec("rank.vtime.repair").At(1).Add(0.125)
	r.Histogram("op.send").Observe(3e-6)
	r.Histogram("op.barrier").Observe(1e-5)
	r.Histogram("op.barrier").Observe(2.5e-4)
	r.CounterVec("rank.sent.messages").At(2).Add(9)
	r.TimeSum("cost.beta").Add(0.75)
	r.TimeSum("cost.alpha").Add(1.5e-3)
	r.Gauge("mpi.ranks.parked").Set(12)
	r.Counter("mpi.sent.messages").Add(42)
	r.Counter("checkpoint.writes").Add(7)

	want := strings.Join([]string{
		`counters:`,
		`  checkpoint.writes                                     7`,
		`  mpi.sent.messages                                    42`,
		`gauges:`,
		`  mpi.ranks.parked                                     12`,
		`virtual time (modelled cost attribution, s):`,
		`  cost.alpha                                     0.001500`,
		`  cost.beta                                      0.750000`,
		`latency histograms (virtual s):`,
		`  op                                            count        total         mean          p99          max`,
		`  op.barrier                                        2     0.000260    1.300e-04    2.500e-04    2.500e-04`,
		`  op.send                                           1     0.000003    3.000e-06    3.000e-06    3.000e-06`,
		`per-index counters:`,
		`  rank.sent.messages                       [0 0 9]`,
		`per-index virtual time (s):`,
		`  rank.vtime.repair                        [0.000000 0.125000]`,
	}, "\n") + "\n"

	var b bytes.Buffer
	r.WriteSummary(&b)
	if got := b.String(); got != want {
		t.Errorf("summary mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
