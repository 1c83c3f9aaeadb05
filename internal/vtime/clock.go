// Package vtime provides the virtual-time machinery used by the simulated
// MPI runtime: per-rank clocks, machine profiles for the paper's two test
// systems (OPL and Raijin), a LogGP-style communication cost model, and a
// calibrated model of the beta fault-tolerant Open MPI ("1.7ft"/ULFM)
// component costs reported in Table I of the paper.
//
// Virtual time is measured in seconds as a float64. Each simulated MPI
// process owns one Clock; blocking operations synchronise clocks by taking
// the maximum of the participants' times plus the modelled operation cost,
// so causality is respected without any reference to wall-clock time.
package vtime

import "fmt"

// Clock is a per-rank virtual clock. It is not safe for concurrent use; the
// runtime guarantees that only the owning goroutine advances it, and that
// cross-rank reads happen only at rendezvous points where the owner is
// blocked.
type Clock struct {
	now float64
	obs CostObserver
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Advance adds dt seconds of local work to the clock. Negative dt is a
// programming error and panics.
func (c *Clock) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("vtime: negative advance %g", dt))
	}
	c.now += dt
}

// SyncTo moves the clock forward to t if t is later than the current time.
// It never moves the clock backwards.
func (c *Clock) SyncTo(t float64) {
	if t > c.now {
		c.now = t
	}
}

// Set forces the clock to t. It is used when a freshly spawned process
// inherits the spawn completion time of its parent group.
func (c *Clock) Set(t float64) { c.now = t }
