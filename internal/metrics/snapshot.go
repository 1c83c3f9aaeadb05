package metrics

import "math"

// Snapshot is a point-in-time, name-sorted copy of every instrument in a
// Registry. Exporters (the Prometheus exposition writer, tests) consume it
// instead of reaching into the registry maps; values are plain data, so a
// snapshot can be rendered without further synchronisation while the run
// keeps mutating the live instruments.
type Snapshot struct {
	Counters    []CounterSnapshot
	Gauges      []GaugeSnapshot
	TimeSums    []TimeSumSnapshot
	Histograms  []HistogramSnapshot
	CounterVecs []CounterVecSnapshot
	TimeSumVecs []TimeSumVecSnapshot
}

// CounterSnapshot is one counter's name and value.
type CounterSnapshot struct {
	Name  string
	Value int64
}

// GaugeSnapshot is one gauge's name and last-set value.
type GaugeSnapshot struct {
	Name  string
	Value float64
}

// TimeSumSnapshot is one virtual-time accumulator's name and total seconds.
type TimeSumSnapshot struct {
	Name    string
	Seconds float64
}

// HistogramSnapshot is one latency histogram's name, totals and per-bucket
// (non-cumulative) counts. Buckets has one entry per bucket; bucket i
// covers [2^(i-1), 2^i) virtual nanoseconds, with the last bucket absorbing
// everything larger.
type HistogramSnapshot struct {
	Name    string
	Count   int64
	Sum     float64
	Max     float64
	Buckets []int64
}

// CounterVecSnapshot is one per-index counter vector's name and values.
type CounterVecSnapshot struct {
	Name   string
	Values []int64
}

// TimeSumVecSnapshot is one per-index virtual-time vector's name and values
// in seconds.
type TimeSumVecSnapshot struct {
	Name    string
	Seconds []float64
}

// BucketUpperBound returns the inclusive upper bound, in virtual seconds, of
// histogram bucket i. The last bucket is a catch-all and reports +Inf.
func BucketUpperBound(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return math.Exp2(float64(i)) * 1e-9
}

// Snapshot copies every instrument's current value. A nil registry yields an
// empty snapshot. Instruments within each kind are name-sorted, so rendering
// a snapshot is deterministic for a given set of values.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	for _, k := range sortedKeys(r.cts) {
		s.Counters = append(s.Counters, CounterSnapshot{Name: k, Value: r.cts[k].Value()})
	}
	for _, k := range sortedKeys(r.ggs) {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: k, Value: r.ggs[k].Value()})
	}
	for _, k := range sortedKeys(r.tss) {
		s.TimeSums = append(s.TimeSums, TimeSumSnapshot{Name: k, Seconds: r.tss[k].Value()})
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		hs := HistogramSnapshot{
			Name:    k,
			Count:   h.Count(),
			Sum:     h.Sum(),
			Max:     h.Max(),
			Buckets: make([]int64, histBuckets),
		}
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		s.Histograms = append(s.Histograms, hs)
	}
	for _, k := range sortedKeys(r.vecs) {
		v := r.vecs[k]
		vs := CounterVecSnapshot{Name: k, Values: make([]int64, v.Len())}
		for i := range vs.Values {
			vs.Values[i] = v.At(i).Value()
		}
		s.CounterVecs = append(s.CounterVecs, vs)
	}
	for _, k := range sortedKeys(r.tvs) {
		v := r.tvs[k]
		vs := TimeSumVecSnapshot{Name: k, Seconds: make([]float64, v.Len())}
		for i := range vs.Seconds {
			vs.Seconds[i] = v.At(i).Value()
		}
		s.TimeSumVecs = append(s.TimeSumVecs, vs)
	}
	return s
}
