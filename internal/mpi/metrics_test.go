package mpi

import (
	"math"
	"testing"

	"ftsg/internal/metrics"
	"ftsg/internal/vtime"
)

// TestMetricsP2PCounters checks the profiler against hand-computed values
// for the smallest interesting world: one 10-element float64 message between
// two ranks is exactly 1 message of 80 bytes on each side, with o_send,
// o_recv, alpha and 80·beta of attributed cost.
func TestMetricsP2PCounters(t *testing.T) {
	reg := metrics.New()
	m := vtime.Generic()
	_, err := Run(Options{NProcs: 2, Machine: m, Metrics: reg, Entry: func(p *Proc) {
		c := p.World()
		if c.Rank() == 0 {
			if err := Send(c, 1, 7, make([]float64, 10)); err != nil {
				panic(err)
			}
		} else {
			if _, _, err := Recv[float64](c, 0, 7); err != nil {
				panic(err)
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("mpi.sent.messages").Value(); got != 1 {
		t.Errorf("sent.messages = %d, want 1", got)
	}
	if got := reg.Counter("mpi.sent.bytes").Value(); got != 80 {
		t.Errorf("sent.bytes = %d, want 80", got)
	}
	if got := reg.Counter("mpi.recv.messages").Value(); got != 1 {
		t.Errorf("recv.messages = %d, want 1", got)
	}
	if got := reg.Counter("mpi.recv.bytes").Value(); got != 80 {
		t.Errorf("recv.bytes = %d, want 80", got)
	}
	if got := reg.CounterVec("rank.sent.messages").At(0).Value(); got != 1 {
		t.Errorf("rank 0 sent.messages = %d, want 1", got)
	}
	if got := reg.CounterVec("rank.sent.bytes").At(0).Value(); got != 80 {
		t.Errorf("rank 0 sent.bytes = %d, want 80", got)
	}
	if got := reg.CounterVec("rank.recv.messages").At(1).Value(); got != 1 {
		t.Errorf("rank 1 recv.messages = %d, want 1", got)
	}
	if got := reg.CounterVec("rank.sent.messages").At(1).Value(); got != 0 {
		t.Errorf("rank 1 sent.messages = %d, want 0", got)
	}

	const tol = 1e-15
	checks := []struct {
		name string
		want float64
	}{
		{"cost." + vtime.CompOSend, m.SendOverhead},
		{"cost." + vtime.CompORecv, m.RecvOverhead},
		{"cost." + vtime.CompAlpha, m.Alpha},
		{"cost." + vtime.CompBeta, 80 * m.Beta},
	}
	for _, c := range checks {
		if got := reg.TimeSum(c.name).Value(); math.Abs(got-c.want) > tol {
			t.Errorf("%s = %g, want %g", c.name, got, c.want)
		}
	}
	if got := reg.Histogram("op.send").Count(); got != 1 {
		t.Errorf("op.send count = %d, want 1", got)
	}
	if got := reg.Histogram("op.recv").Count(); got != 1 {
		t.Errorf("op.recv count = %d, want 1", got)
	}
}

// TestMetricsBcastMessageCount: a binomial-tree broadcast over n ranks moves
// exactly n-1 messages of the payload size.
func TestMetricsBcastMessageCount(t *testing.T) {
	reg := metrics.New()
	_, err := Run(Options{NProcs: 4, Metrics: reg, Entry: func(p *Proc) {
		c := p.World()
		var data []float64
		if c.Rank() == 0 {
			data = []float64{1, 2}
		}
		if _, err := Bcast(c, 0, data); err != nil {
			panic(err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("mpi.sent.messages").Value(); got != 3 {
		t.Errorf("sent.messages = %d, want 3 (n-1 tree edges)", got)
	}
	if got := reg.Counter("mpi.sent.bytes").Value(); got != 48 {
		t.Errorf("sent.bytes = %d, want 48 (3 messages x 16 bytes)", got)
	}
	if got := reg.Counter("mpi.recv.messages").Value(); got != 3 {
		t.Errorf("recv.messages = %d, want 3", got)
	}
	if got := reg.Histogram("op.bcast").Count(); got != 4 {
		t.Errorf("op.bcast completions = %d, want 4 (one per rank)", got)
	}
}

// TestMetricsBarrierMessageCount: the dissemination barrier over 4 ranks is
// log2(4) = 2 rounds of one send per rank: 8 one-byte messages.
func TestMetricsBarrierMessageCount(t *testing.T) {
	reg := metrics.New()
	_, err := Run(Options{NProcs: 4, Metrics: reg, Entry: func(p *Proc) {
		if err := p.World().Barrier(); err != nil {
			panic(err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("mpi.sent.messages").Value(); got != 8 {
		t.Errorf("sent.messages = %d, want 8 (4 ranks x 2 rounds)", got)
	}
	if got := reg.Counter("mpi.sent.bytes").Value(); got != 8 {
		t.Errorf("sent.bytes = %d, want 8", got)
	}
	if got := reg.Histogram("op.barrier").Count(); got != 4 {
		t.Errorf("op.barrier completions = %d, want 4", got)
	}
}

// TestMetricsULFMAttribution: killing one of two ranks and shrinking must
// attribute shrink cost and count the revoke.
func TestMetricsULFMAttribution(t *testing.T) {
	reg := metrics.New()
	m := vtime.Generic()
	_, err := Run(Options{NProcs: 2, Machine: m, Metrics: reg, Entry: func(p *Proc) {
		c := p.World()
		if c.Rank() == 1 {
			p.Kill()
		}
		if err := c.Revoke(); err != nil {
			panic(err)
		}
		if _, err := c.Shrink(); err != nil {
			panic(err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("mpi.revokes").Value(); got != 1 {
		t.Errorf("revokes = %d, want 1", got)
	}
	wantShrink := m.ULFM.ShrinkCost(2, 1)
	if got := reg.TimeSum("cost." + vtime.CompShrink).Value(); math.Abs(got-wantShrink) > 1e-12 {
		t.Errorf("cost.ulfm_shrink = %g, want %g (one survivor attributes once)", got, wantShrink)
	}
	if got := reg.TimeSum("cost." + vtime.CompRevoke).Value(); got <= 0 {
		t.Errorf("cost.ulfm_revoke = %g, want > 0", got)
	}
	if got := reg.Histogram("op.shrink").Count(); got != 1 {
		t.Errorf("op.shrink completions = %d, want 1", got)
	}
}

// TestMetricsDisabledIsInert: a run without a registry must behave
// identically (all other tests in this package run with Metrics == nil).
func TestMetricsDisabledIsInert(t *testing.T) {
	rep, err := Run(Options{NProcs: 2, Entry: func(p *Proc) {
		c := p.World()
		if c.Rank() == 0 {
			if err := SendOne(c, 1, 1, 42); err != nil {
				panic(err)
			}
		} else if _, _, err := RecvOne[int](c, 0, 1); err != nil {
			panic(err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxVirtualTime <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

// TestMetricsExtendedCollectivesPreResolved pins the instrument-resolution
// contract for the collectives: every member of collHopOps is in mpiOps too,
// so its latency histogram and per-tier hop counters come from the read-only
// maps built at world creation, as does every cost component. A name outside
// the pre-resolved sets still records, through the registry.
func TestMetricsExtendedCollectivesPreResolved(t *testing.T) {
	reg := metrics.New()
	wm := newWorldMetrics(reg)
	for _, op := range mpiOps {
		if _, ok := wm.ops[op]; !ok {
			t.Errorf("op.%s missing from the pre-resolved histogram set", op)
		}
	}
	for _, comp := range costComponents {
		if _, ok := wm.costs[comp]; !ok {
			t.Errorf("cost.%s missing from the pre-resolved time-sum set", comp)
		}
	}
	for _, op := range collHopOps {
		if _, ok := wm.ops[op]; !ok {
			t.Errorf("op.%s missing from the pre-resolved histogram set", op)
		}
		if _, ok := wm.opHops[op]; !ok {
			t.Errorf("coll.%s.* missing from the pre-resolved hop-counter set", op)
		}
		wm.observeOp(op, 0.5)
		wm.countHop(op, vtime.TierRack)
		if got := reg.Histogram("op." + op).Count(); got != 1 {
			t.Errorf("op.%s count = %d, want 1", op, got)
		}
		if got := reg.Counter("coll." + op + ".inter").Value(); got != 1 {
			t.Errorf("coll.%s.inter = %d, want 1", op, got)
		}
	}

	wm.observeOp("mystery", 1)
	wm.observeOp("mystery", 2)
	if got := reg.Histogram("op.mystery").Count(); got != 2 {
		t.Errorf("op.mystery count = %d, want 2", got)
	}
}
