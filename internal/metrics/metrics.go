// Package metrics is the instrumentation registry of the simulated system:
// lock-cheap counters, gauges, virtual-time accumulators and latency
// histograms, collected per run and rendered as a deterministic summary.
//
// The package is built so that DISABLED instrumentation costs nothing on the
// hot paths: a nil *Registry hands out nil instruments, and every instrument
// method is a no-op on a nil receiver, so call sites need no guards and no
// allocations happen unless a registry was attached. Enabled instruments use
// atomics only (no locks on the update path); registration (name -> handle
// lookup) takes a mutex and is meant to be done once, up front.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer (messages, bytes, calls).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float (goroutine peak, parked ranks, ...).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// TimeSum accumulates virtual seconds with a CAS loop — the cost-attribution
// sink for the LogGP/ULFM/disk model components.
type TimeSum struct {
	bits atomic.Uint64
}

// Add accumulates seconds. No-op on a nil receiver.
func (t *TimeSum) Add(seconds float64) {
	if t == nil {
		return
	}
	for {
		old := t.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + seconds)
		if t.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the accumulated seconds (0 for a nil sum).
func (t *TimeSum) Value() float64 {
	if t == nil {
		return 0
	}
	return math.Float64frombits(t.bits.Load())
}

// histBuckets is the number of power-of-two latency buckets. Bucket i covers
// virtual durations in [2^(i-1), 2^i) nanoseconds (bucket 0 is < 1 ns), which
// spans sub-nanosecond noise up to ~292 years — every modelled cost fits.
const histBuckets = 64

// Histogram records virtual-time latencies keyed by operation: counts in
// power-of-two nanosecond buckets plus exact sum and maximum. All update
// paths are atomic.
type Histogram struct {
	count   atomic.Int64
	sum     TimeSum
	maxBits atomic.Uint64
	buckets [histBuckets]atomic.Int64
}

// Observe records one latency in virtual seconds. Negative observations are
// clamped to zero. No-op on a nil receiver.
func (h *Histogram) Observe(seconds float64) {
	if h == nil {
		return
	}
	if seconds < 0 {
		seconds = 0
	}
	h.count.Add(1)
	h.sum.Add(seconds)
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= seconds {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(seconds)) {
			break
		}
	}
	h.buckets[bucketOf(seconds)].Add(1)
}

// bucketOf maps a duration in seconds to its power-of-two-nanosecond bucket.
func bucketOf(seconds float64) int {
	ns := seconds * 1e9
	if ns < 1 {
		return 0
	}
	b := int(math.Ceil(math.Log2(ns)))
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed virtual seconds (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) from the
// bucket boundaries: the top of the first bucket at which the cumulative
// count reaches q. Exact enough for summaries; Max is exact.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			top := math.Exp2(float64(i)) * 1e-9
			if m := h.Max(); top > m {
				return m
			}
			return top
		}
	}
	return h.Max()
}

// CounterVec is a growable vector of counters indexed by a small integer —
// per-rank totals. Index lookups take a read lock only when the vector must
// grow; steady-state access is a bounds check plus an atomic load.
type CounterVec struct {
	mu sync.Mutex
	cs atomic.Pointer[[]*Counter]
}

// At returns the counter at index i (growing the vector as needed), or nil
// for a nil vector or negative index.
func (v *CounterVec) At(i int) *Counter {
	if v == nil || i < 0 {
		return nil
	}
	if cs := v.cs.Load(); cs != nil && i < len(*cs) {
		return (*cs)[i]
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	cs := v.cs.Load()
	var cur []*Counter
	if cs != nil {
		cur = *cs
	}
	if i < len(cur) {
		return cur[i]
	}
	grown := make([]*Counter, i+1)
	copy(grown, cur)
	for j := len(cur); j <= i; j++ {
		grown[j] = new(Counter)
	}
	v.cs.Store(&grown)
	return grown[i]
}

// Len returns the current vector length.
func (v *CounterVec) Len() int {
	if v == nil {
		return 0
	}
	if cs := v.cs.Load(); cs != nil {
		return len(*cs)
	}
	return 0
}

// TimeSumVec is a growable vector of virtual-time accumulators indexed by a
// small integer — per-rank cost attribution (e.g. blocked-in-repair vs
// advancing). Same growth discipline as CounterVec: steady-state access is a
// bounds check plus an atomic pointer load.
type TimeSumVec struct {
	mu sync.Mutex
	ts atomic.Pointer[[]*TimeSum]
}

// At returns the accumulator at index i (growing the vector as needed), or
// nil for a nil vector or negative index.
func (v *TimeSumVec) At(i int) *TimeSum {
	if v == nil || i < 0 {
		return nil
	}
	if ts := v.ts.Load(); ts != nil && i < len(*ts) {
		return (*ts)[i]
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	ts := v.ts.Load()
	var cur []*TimeSum
	if ts != nil {
		cur = *ts
	}
	if i < len(cur) {
		return cur[i]
	}
	grown := make([]*TimeSum, i+1)
	copy(grown, cur)
	for j := len(cur); j <= i; j++ {
		grown[j] = new(TimeSum)
	}
	v.ts.Store(&grown)
	return grown[i]
}

// Len returns the current vector length.
func (v *TimeSumVec) Len() int {
	if v == nil {
		return 0
	}
	if ts := v.ts.Load(); ts != nil {
		return len(*ts)
	}
	return 0
}

// Registry owns all instruments of one run (or one aggregated sweep).
// A nil *Registry is the disabled state: every accessor returns nil and the
// nil instruments are no-ops.
type Registry struct {
	mu    sync.Mutex
	cts   map[string]*Counter
	ggs   map[string]*Gauge
	tss   map[string]*TimeSum
	hists map[string]*Histogram
	vecs  map[string]*CounterVec
	tvs   map[string]*TimeSumVec
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{
		cts:   make(map[string]*Counter),
		ggs:   make(map[string]*Gauge),
		tss:   make(map[string]*TimeSum),
		hists: make(map[string]*Histogram),
		vecs:  make(map[string]*CounterVec),
		tvs:   make(map[string]*TimeSumVec),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.cts[name]
	if !ok {
		c = new(Counter)
		r.cts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.ggs[name]
	if !ok {
		g = new(Gauge)
		r.ggs[name] = g
	}
	return g
}

// TimeSum returns the named virtual-time accumulator, creating it on first
// use.
func (r *Registry) TimeSum(name string) *TimeSum {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tss[name]
	if !ok {
		t = new(TimeSum)
		r.tss[name] = t
	}
	return t
}

// Histogram returns the named latency histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// CounterVec returns the named counter vector, creating it on first use.
func (r *Registry) CounterVec(name string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.vecs[name]
	if !ok {
		v = new(CounterVec)
		r.vecs[name] = v
	}
	return v
}

// TimeSumVec returns the named virtual-time vector, creating it on first
// use.
func (r *Registry) TimeSumVec(name string) *TimeSumVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.tvs[name]
	if !ok {
		v = new(TimeSumVec)
		r.tvs[name] = v
	}
	return v
}

// merge folds src's observations into h.
func (h *Histogram) merge(src *Histogram) {
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Value())
	if m := src.Max(); m > 0 {
		for {
			old := h.maxBits.Load()
			if math.Float64frombits(old) >= m {
				break
			}
			if h.maxBits.CompareAndSwap(old, math.Float64bits(m)) {
				break
			}
		}
	}
	for i := range src.buckets {
		if n := src.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
}

// Merge folds every instrument of src into r: counters, time sums,
// histograms and counter vectors accumulate; gauges take src's value
// (last-write-wins, matching Set). Merging per-run registries into one
// aggregate in a fixed order yields a deterministic aggregate regardless of
// how the runs themselves were scheduled. src is unchanged; a nil r or src
// is a no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	cts := make(map[string]*Counter, len(src.cts))
	for k, v := range src.cts {
		cts[k] = v
	}
	ggs := make(map[string]*Gauge, len(src.ggs))
	for k, v := range src.ggs {
		ggs[k] = v
	}
	tss := make(map[string]*TimeSum, len(src.tss))
	for k, v := range src.tss {
		tss[k] = v
	}
	hists := make(map[string]*Histogram, len(src.hists))
	for k, v := range src.hists {
		hists[k] = v
	}
	vecs := make(map[string]*CounterVec, len(src.vecs))
	for k, v := range src.vecs {
		vecs[k] = v
	}
	tvs := make(map[string]*TimeSumVec, len(src.tvs))
	for k, v := range src.tvs {
		tvs[k] = v
	}
	src.mu.Unlock()

	for _, k := range sortedKeys(cts) {
		r.Counter(k).Add(cts[k].Value())
	}
	for _, k := range sortedKeys(ggs) {
		r.Gauge(k).Set(ggs[k].Value())
	}
	for _, k := range sortedKeys(tss) {
		r.TimeSum(k).Add(tss[k].Value())
	}
	for _, k := range sortedKeys(hists) {
		r.Histogram(k).merge(hists[k])
	}
	for _, k := range sortedKeys(vecs) {
		sv := vecs[k]
		dv := r.CounterVec(k)
		for i := 0; i < sv.Len(); i++ {
			dv.At(i).Add(sv.At(i).Value())
		}
	}
	for _, k := range sortedKeys(tvs) {
		sv := tvs[k]
		dv := r.TimeSumVec(k)
		for i := 0; i < sv.Len(); i++ {
			dv.At(i).Add(sv.At(i).Value())
		}
	}
}

// sortedKeys returns the map keys in lexical order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// WriteSummary renders every instrument as an aligned, name-sorted text
// table. The output is deterministic for a given set of values, so tests and
// scripts can diff it.
func (r *Registry) WriteSummary(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "metrics: disabled")
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	if len(r.cts) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, k := range sortedKeys(r.cts) {
			fmt.Fprintf(w, "  %-40s %14d\n", k, r.cts[k].Value())
		}
	}
	if len(r.ggs) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, k := range sortedKeys(r.ggs) {
			fmt.Fprintf(w, "  %-40s %14.6g\n", k, r.ggs[k].Value())
		}
	}
	if len(r.tss) > 0 {
		fmt.Fprintln(w, "virtual time (modelled cost attribution, s):")
		for _, k := range sortedKeys(r.tss) {
			fmt.Fprintf(w, "  %-40s %14.6f\n", k, r.tss[k].Value())
		}
	}
	if len(r.hists) > 0 {
		fmt.Fprintln(w, "latency histograms (virtual s):")
		fmt.Fprintf(w, "  %-40s %10s %12s %12s %12s %12s\n",
			"op", "count", "total", "mean", "p99", "max")
		for _, k := range sortedKeys(r.hists) {
			h := r.hists[k]
			fmt.Fprintf(w, "  %-40s %10d %12.6f %12.3e %12.3e %12.3e\n",
				k, h.Count(), h.Sum(), h.Mean(), h.Quantile(0.99), h.Max())
		}
	}
	if len(r.vecs) > 0 {
		fmt.Fprintln(w, "per-index counters:")
		for _, k := range sortedKeys(r.vecs) {
			v := r.vecs[k]
			var b strings.Builder
			for i := 0; i < v.Len(); i++ {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%d", v.At(i).Value())
			}
			fmt.Fprintf(w, "  %-40s [%s]\n", k, b.String())
		}
	}
	if len(r.tvs) > 0 {
		fmt.Fprintln(w, "per-index virtual time (s):")
		for _, k := range sortedKeys(r.tvs) {
			v := r.tvs[k]
			var b strings.Builder
			for i := 0; i < v.Len(); i++ {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%.6f", v.At(i).Value())
			}
			fmt.Fprintf(w, "  %-40s [%s]\n", k, b.String())
		}
	}
}
