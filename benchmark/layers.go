package main

import (
	"fmt"
	"runtime"
	"time"
)

// The layers phase: one small driver per layer (package under internal/).
// Every driver builds its world, grids or store once, warms it, and times
// only the steady-state calls; each reports the count its time is over, so
// ratios have a base. The drivers are the same for every workload.

// layerOut collects the layers phase's metrics and, per metric, the note
// printed beside it (sample count, percentiles, what the time is over). It
// is also what the layers child reports to its parent.
type layerOut struct {
	Values    map[string]float64 `json:"values"`
	Notes     map[string]string  `json:"notes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
}

func newLayerOut() *layerOut {
	return &layerOut{Values: map[string]float64{}, Notes: map[string]string{}}
}

func (l *layerOut) set(name string, v float64, note string) {
	l.Values[name] = v
	l.Notes[name] = note
}

// setDist records a per-operation latency: the value is the median.
func (l *layerOut) setDist(name string, d dist, scale float64, per string) {
	l.set(name, d.P50*scale, fmt.Sprintf("n=%d p50=%.4g p%d=%.4g %s", d.N, d.P50*scale, d.TailPct, d.Tail*scale, per))
}

func (l *layerOut) op(name string, err error) {
	l.Attempted++
	if err != nil {
		l.Failed++
		l.Errors = append(l.Errors, name+": "+err.Error())
	}
}

// layerDrivers lists the drivers in the order they run.
var layerDrivers = []struct {
	name string
	run  func(sz sizes, out *layerOut) error
}{
	{"grid", layerGrid},
	{"pde", layerPDE},
	{"combine", layerCombine},
	{"checkpoint", layerCheckpoint},
	{"mpi.p2p", layerP2P},
	{"mpi.coll", layerColl},
	{"mpi.rvz", layerSplit},
	{"mpi.world", layerWorld},
	{"recovery", layerRecovery},
	{"core", layerCore},
	{"harness", layerHarness},
}

func runLayers(sz sizes) *layerOut {
	out := newLayerOut()
	for _, d := range layerDrivers {
		out.op("layer "+d.name, d.run(sz, out))
	}
	return out
}

// timeOps times n calls of f one by one and returns seconds per call.
func timeOps(n int, f func()) []float64 {
	samples := make([]float64, n)
	for i := range samples {
		t := time.Now()
		f()
		samples[i] = time.Since(t).Seconds()
	}
	return samples
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
