// Package metrics is the instrumentation registry of the simulated system:
// lock-cheap counters, gauges, virtual-time accumulators and latency
// histograms, collected per run and rendered as a deterministic summary or
// in the Prometheus text format.
//
// The package is built so that DISABLED instrumentation costs nothing on the
// hot paths: a nil *Registry hands out nil instruments, and every instrument
// method is a no-op on a nil receiver, so call sites need no guards and no
// allocations happen unless a registry was attached. Enabled instruments use
// atomics only (no locks on the update path); registration (name -> handle
// lookup) takes a mutex and is meant to be done once, up front.
package metrics

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
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

// bucketTop returns the upper bound, in virtual seconds, of bucket i.
func bucketTop(i int) float64 { return math.Exp2(float64(i)) * 1e-9 }

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
			top := bucketTop(i)
			if m := h.Max(); top > m {
				return m
			}
			return top
		}
	}
	return h.Max()
}

// Vec is a growable vector of counters or virtual-time accumulators indexed
// by a small integer — per-rank totals and per-rank cost attribution.
// Index lookups take the lock only when the vector must grow; steady-state
// access is a bounds check plus an atomic pointer load.
type Vec[E Counter | TimeSum] struct {
	mu sync.Mutex
	es atomic.Pointer[[]*E]
}

// At returns the element at index i (growing the vector as needed), or nil
// for a nil vector or negative index.
func (v *Vec[E]) At(i int) *E {
	if v == nil || i < 0 {
		return nil
	}
	if es := v.es.Load(); es != nil && i < len(*es) {
		return (*es)[i]
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	var cur []*E
	if es := v.es.Load(); es != nil {
		cur = *es
	}
	if i < len(cur) {
		return cur[i]
	}
	grown := make([]*E, i+1)
	copy(grown, cur)
	for j := len(cur); j <= i; j++ {
		grown[j] = new(E)
	}
	v.es.Store(&grown)
	return grown[i]
}

// Len returns the current vector length.
func (v *Vec[E]) Len() int {
	if v == nil {
		return 0
	}
	if es := v.es.Load(); es != nil {
		return len(*es)
	}
	return 0
}

// kind is an instrument kind; its value is the kind's section position in
// both renderings.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	timeSumKind
	histogramKind
	counterVecKind
	timeSumVecKind
)

// sections gives each kind its WriteSummary header and its Prometheus
// family type and name suffix.
var sections = [...]struct{ header, promType, promSuffix string }{
	counterKind:    {"counters:", "counter", ""},
	gaugeKind:      {"gauges:", "gauge", ""},
	timeSumKind:    {"virtual time (modelled cost attribution, s):", "counter", "_seconds"},
	histogramKind:  {"latency histograms (virtual s):\n" + histColumns, "histogram", "_seconds"},
	counterVecKind: {"per-index counters:", "counter", ""},
	timeSumVecKind: {"per-index virtual time (s):", "counter", "_seconds"},
}

// histColumns heads the columns of Histogram.summary.
var histColumns = fmt.Sprintf("  %-40s %10s %12s %12s %12s %12s", "op", "count", "total", "mean", "p99", "max")

// instrument is what the registry needs of every kind: its section, how it
// folds itself into a same-named instrument of another registry, its
// WriteSummary line and its Prometheus samples (the walk writes the family's
// TYPE line).
type instrument interface {
	kind() kind
	merge(into *Registry, name string)
	summary(w io.Writer, name string)
	prometheus(w io.Writer, name string)
}

func (c *Counter) kind() kind                        { return counterKind }
func (c *Counter) merge(into *Registry, name string) { into.Counter(name).Add(c.Value()) }
func (c *Counter) summary(w io.Writer, name string) {
	fmt.Fprintf(w, "  %-40s %14d\n", name, c.Value())
}
func (c *Counter) prometheus(w io.Writer, name string) { fmt.Fprintf(w, "%s %d\n", name, c.Value()) }

// A merged gauge takes the source's value: last write wins, as with Set.
func (g *Gauge) kind() kind                        { return gaugeKind }
func (g *Gauge) merge(into *Registry, name string) { into.Gauge(name).Set(g.Value()) }
func (g *Gauge) summary(w io.Writer, name string) {
	fmt.Fprintf(w, "  %-40s %14.6g\n", name, g.Value())
}
func (g *Gauge) prometheus(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", name, promFloat(g.Value()))
}

func (t *TimeSum) kind() kind                        { return timeSumKind }
func (t *TimeSum) merge(into *Registry, name string) { into.TimeSum(name).Add(t.Value()) }
func (t *TimeSum) summary(w io.Writer, name string) {
	fmt.Fprintf(w, "  %-40s %14.6f\n", name, t.Value())
}
func (t *TimeSum) prometheus(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", name, promFloat(t.Value()))
}

func (h *Histogram) kind() kind { return histogramKind }

func (h *Histogram) merge(into *Registry, name string) {
	dst := into.Histogram(name)
	dst.count.Add(h.count.Load())
	dst.sum.Add(h.sum.Value())
	if m := h.Max(); m > 0 {
		for {
			old := dst.maxBits.Load()
			if math.Float64frombits(old) >= m {
				break
			}
			if dst.maxBits.CompareAndSwap(old, math.Float64bits(m)) {
				break
			}
		}
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			dst.buckets[i].Add(n)
		}
	}
}

func (h *Histogram) summary(w io.Writer, name string) {
	fmt.Fprintf(w, "  %-40s %10d %12.6f %12.3e %12.3e %12.3e\n",
		name, h.Count(), h.Sum(), h.Mean(), h.Quantile(0.99), h.Max())
}

// prometheus writes cumulative buckets up to the last non-empty one; the
// last bucket is the catch-all, so it only ever shows as +Inf.
func (h *Histogram) prometheus(w io.Writer, name string) {
	last := -1
	for i := range h.buckets {
		if h.buckets[i].Load() != 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last && i < histBuckets-1; i++ {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promFloat(bucketTop(i)), cum)
	}
	n := h.Count()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, n, name, promFloat(h.Sum()), name, n)
}

func (v *Vec[E]) kind() kind {
	if _, ok := any(v).(*Vec[Counter]); ok {
		return counterVecKind
	}
	return timeSumVecKind
}

func (v *Vec[E]) merge(into *Registry, name string) {
	dst := get[Vec[E]](into, name)
	for i := 0; i < v.Len(); i++ {
		switch e := any(v.At(i)).(type) {
		case *Counter:
			any(dst.At(i)).(*Counter).Add(e.Value())
		case *TimeSum:
			any(dst.At(i)).(*TimeSum).Add(e.Value())
		}
	}
}

func (v *Vec[E]) summary(w io.Writer, name string) {
	var b strings.Builder
	for i := 0; i < v.Len(); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch e := any(v.At(i)).(type) {
		case *Counter:
			fmt.Fprintf(&b, "%d", e.Value())
		case *TimeSum:
			fmt.Fprintf(&b, "%.6f", e.Value())
		}
	}
	fmt.Fprintf(w, "  %-40s [%s]\n", name, b.String())
}

// prometheus writes one sample per element, labelled with its index.
func (v *Vec[E]) prometheus(w io.Writer, name string) {
	for i := 0; i < v.Len(); i++ {
		any(v.At(i)).(instrument).prometheus(w, fmt.Sprintf("%s{index=\"%d\"}", name, i))
	}
}

// Registry owns all instruments of one run (or one aggregated sweep), one
// instrument per name. A nil *Registry is the disabled state: every accessor
// returns nil and the nil instruments are no-ops.
type Registry struct {
	mu  sync.Mutex
	ins map[string]instrument
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{ins: make(map[string]instrument)}
}

// get returns the instrument registered under name, creating it on first
// use; nil on a nil registry. A name holds one kind: asking for it as
// another kind panics.
func get[T any, P interface {
	*T
	instrument
}](r *Registry, name string) P {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.ins[name]; ok {
		return in.(P)
	}
	p := P(new(T))
	r.ins[name] = p
	return p
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return get[Counter](r, name) }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return get[Gauge](r, name) }

// TimeSum returns the named virtual-time accumulator, creating it on first
// use.
func (r *Registry) TimeSum(name string) *TimeSum { return get[TimeSum](r, name) }

// Histogram returns the named latency histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram { return get[Histogram](r, name) }

// CounterVec returns the named counter vector, creating it on first use.
func (r *Registry) CounterVec(name string) *Vec[Counter] { return get[Vec[Counter]](r, name) }

// TimeSumVec returns the named virtual-time vector, creating it on first
// use.
func (r *Registry) TimeSumVec(name string) *Vec[TimeSum] { return get[Vec[TimeSum]](r, name) }

type entry struct {
	name string
	in   instrument
}

// sorted returns every instrument ordered by kind, then name: the one walk
// behind Merge and both renderings.
func (r *Registry) sorted() []entry {
	r.mu.Lock()
	es := make([]entry, 0, len(r.ins))
	for name, in := range r.ins {
		es = append(es, entry{name, in})
	}
	r.mu.Unlock()
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.in.kind(), b.in.kind()), strings.Compare(a.name, b.name))
	})
	return es
}

// Merge folds every instrument of src into r: counters, time sums,
// histograms and vectors accumulate; gauges take src's value. Merging
// per-run registries into one aggregate in a fixed order yields the same
// aggregate however the runs themselves were scheduled. src is unchanged; a
// nil r or src is a no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for _, e := range src.sorted() {
		e.in.merge(r, e.name)
	}
}

// WriteSummary renders every instrument as an aligned text table, one
// section per kind, names sorted within a section. The output is
// deterministic for a given set of values, so tests and scripts can diff it.
func (r *Registry) WriteSummary(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "metrics: disabled")
		return
	}
	last := kind(-1)
	for _, e := range r.sorted() {
		if k := e.in.kind(); k != last {
			fmt.Fprintln(w, sections[k].header)
			last = k
		}
		e.in.summary(w, e.name)
	}
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), families in WriteSummary's order. Counters are
// counters, gauges gauges; time sums are counters named <name>_seconds;
// histograms are histograms in seconds whose cumulative _bucket series stop
// at the last non-empty power-of-two bucket; a vector is one family with an
// index="N" label per element. Names map every byte outside [a-zA-Z0-9_] to
// '_' (mpi.sent.messages -> mpi_sent_messages). A nil registry writes an
// empty body, a valid scrape of zero families.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, e := range r.sorted() {
		s := sections[e.in.kind()]
		name := promName(e.name) + s.promSuffix
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, s.promType)
		e.in.prometheus(&b, name)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promName maps an instrument name to a valid Prometheus metric name: every
// byte outside [a-zA-Z0-9_] becomes '_', and a leading digit is prefixed
// with '_' (no registry name starts with one today).
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
		if !ok {
			c = '_'
		}
		if i == 0 && '0' <= c && c <= '9' {
			b.WriteByte('_')
		}
		b.WriteByte(c)
	}
	return b.String()
}

// promFloat renders a float the way Prometheus client libraries do: shortest
// round-trip representation, deterministic for a given bit pattern.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
