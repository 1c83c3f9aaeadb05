package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

const mib = 1 << 20

// regionStats is what one timed region cost on the host clock and heap.
type regionStats struct {
	WallS    float64
	AllocMiB float64 // MemStats.TotalAlloc delta
	MallocsK float64 // MemStats.Mallocs delta, thousands
	// PeakLiveMiB is the max sampled live heap + goroutine stacks. It holds
	// within a few percent on the 4k workloads but swings 240-320 MiB
	// between identical app_1k passes (whether a GC cycle ends while the
	// combine's buffers are live), so it is a per-layer metric.
	PeakLiveMiB float64
}

// region measures one timed region. begin and end may be called from
// different goroutines (steady_4k opens it on rank 0 after the first
// barrier), but not concurrently.
type region struct {
	start   time.Time
	before  runtime.MemStats
	sampler *liveSampler
}

func beginRegion() *region {
	r := &region{sampler: startLiveSampler()}
	runtime.ReadMemStats(&r.before)
	r.start = time.Now()
	return r
}

func (r *region) end() regionStats {
	wall := time.Since(r.start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return regionStats{
		WallS:       wall.Seconds(),
		AllocMiB:    float64(after.TotalAlloc-r.before.TotalAlloc) / mib,
		MallocsK:    float64(after.Mallocs-r.before.Mallocs) / 1e3,
		PeakLiveMiB: r.sampler.stop() / mib,
	}
}

// liveSampler polls the runtime every 5 ms for the bytes a rank count
// actually pins: heap marked live by the last GC cycle plus goroutine
// stacks. Peak RSS is diagnostic only (it swung 77 -> 202 MiB between
// identical runs while this figure held within one MiB).
type liveSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak float64
}

var liveNames = []string{"/gc/heap/live:bytes", "/memory/classes/heap/stacks:bytes"}

func liveBytes(buf []metrics.Sample) float64 {
	metrics.Read(buf)
	var sum float64
	for _, s := range buf {
		if s.Value.Kind() == metrics.KindUint64 {
			sum += float64(s.Value.Uint64())
		}
	}
	return sum
}

func newLiveBuf() []metrics.Sample {
	buf := make([]metrics.Sample, len(liveNames))
	for i, n := range liveNames {
		buf[i].Name = n
	}
	return buf
}

func startLiveSampler() *liveSampler {
	s := &liveSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		buf := newLiveBuf()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := liveBytes(buf); v > s.peak {
				s.peak = v
			}
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampler, waits for it and returns the peak in bytes.
func (s *liveSampler) stop() float64 {
	close(s.done)
	s.wg.Wait()
	return s.peak
}

// procUsage reads this process's user CPU seconds and peak RSS (MiB).
func procUsage() (cpuUserS, peakRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu := float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// --- small statistics -------------------------------------------------------

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics of a sorted
// sample (q in [0,1]).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// summary is a metric's value over the passes of one workload: the median
// is the value, the rest says how far to trust it.
type summary struct {
	Median, Min, Max float64
	N                int
}

func summarize(xs []float64) summary {
	s := sorted(xs)
	if len(s) == 0 {
		return summary{}
	}
	return summary{Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// spread is the inter-quartile distance as a share of the median — the
// same statistic the benchmark's bounds are judged against.
func spread(xs []float64) float64 {
	s := sorted(xs)
	if len(s) < 2 {
		return 0
	}
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / math.Abs(m)
}

// dist is a per-operation latency distribution from a layer driver: the
// median and the highest percentile that still has ten samples beyond it.
type dist struct {
	P50, Tail float64
	TailPct   int
	N         int
}

func distOf(xs []float64) dist {
	s := sorted(xs)
	d := dist{N: len(s), P50: quantile(s, 0.5)}
	switch {
	case len(s) >= 1000:
		d.TailPct = 99
	case len(s) >= 200:
		d.TailPct = 95
	case len(s) >= 100:
		d.TailPct = 90
	default:
		d.TailPct = 100
	}
	d.Tail = quantile(s, float64(d.TailPct)/100)
	return d
}
