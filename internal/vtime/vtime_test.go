package vtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock = %g, want 0", c.Now())
	}
	c.Advance(1.5)
	c.Advance(0.5)
	if got := c.Now(); got != 2.0 {
		t.Fatalf("after advances clock = %g, want 2", got)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestClockSyncToNeverRewinds(t *testing.T) {
	var c Clock
	c.Advance(5)
	c.SyncTo(3)
	if c.Now() != 5 {
		t.Fatalf("SyncTo(3) rewound clock to %g", c.Now())
	}
	c.SyncTo(7)
	if c.Now() != 7 {
		t.Fatalf("SyncTo(7) = %g, want 7", c.Now())
	}
}

func TestClockSyncToPropertyMonotone(t *testing.T) {
	f := func(start, target float64) bool {
		start = math.Abs(start)
		c := Clock{}
		c.Advance(start)
		c.SyncTo(target)
		return c.Now() >= start && c.Now() >= math.Min(target, c.Now())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sinkObserver records attributed costs per component for tests.
type sinkObserver struct {
	sums map[string]float64
}

func (s *sinkObserver) ObserveCost(component string, seconds float64) {
	if s.sums == nil {
		s.sums = make(map[string]float64)
	}
	s.sums[component] += seconds
}

func TestClockObserverAttribution(t *testing.T) {
	var c Clock
	obs := &sinkObserver{}
	c.SetObserver(obs)
	c.AdvanceAttr(1.5, CompCompute)
	c.AdvanceAttr(0.5, CompCompute)
	c.AdvanceAttr(0.25, CompDiskWrite)
	if got := c.Now(); got != 2.25 {
		t.Fatalf("clock = %g, want 2.25", got)
	}
	if got := obs.sums[CompCompute]; got != 2.0 {
		t.Fatalf("compute attribution = %g, want 2", got)
	}
	if got := obs.sums[CompDiskWrite]; got != 0.25 {
		t.Fatalf("disk attribution = %g, want 0.25", got)
	}
	c.SetObserver(nil)
	c.AdvanceAttr(1, CompCompute) // must not panic with observer detached
	if got := c.Now(); got != 3.25 {
		t.Fatalf("clock after detach = %g, want 3.25", got)
	}
	if got := obs.sums[CompCompute]; got != 2.0 {
		t.Fatalf("detached observer still collected: %g", got)
	}
}

func TestClockAdvanceAttrNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceAttr(-1) did not panic")
		}
	}()
	var c Clock
	c.AdvanceAttr(-1, CompCompute)
}

func TestLinkTiers(t *testing.T) {
	m := &Machine{
		Alpha: 2e-6, Beta: 4e-10,
		IntraAlpha: 5e-7, IntraBeta: 1e-10,
		XRackAlpha: 3e-6, XRackBeta: 6e-10,
	}
	cases := []struct {
		tier        LinkTier
		alpha, beta float64
	}{
		{TierNode, 5e-7, 1e-10},
		{TierRack, 2e-6, 4e-10},
		{TierXRack, 3e-6, 6e-10},
	}
	for _, c := range cases {
		a, b := m.LinkAlphaBeta(c.tier)
		if a != c.alpha || b != c.beta {
			t.Errorf("tier %d: LinkAlphaBeta = %g, %g; want %g, %g", c.tier, a, b, c.alpha, c.beta)
		}
	}
	// The same-rack tier must agree with the flat PtToPt model exactly.
	if a, b := m.LinkAlphaBeta(TierRack); a+4096*b != m.PtToPt(4096) {
		t.Fatalf("TierRack cost %g != PtToPt %g", a+4096*b, m.PtToPt(4096))
	}
}

func TestLinkTierZeroFallback(t *testing.T) {
	// A profile without tier fields (Generic, user-built machines) must
	// charge the flat Alpha/Beta on every tier.
	m := &Machine{Alpha: 1e-6, Beta: 1e-9}
	for tier := TierNode; tier <= TierXRack; tier++ {
		a, b := m.LinkAlphaBeta(tier)
		if a != m.Alpha || b != m.Beta {
			t.Fatalf("tier %d: flat machine gave %g, %g", tier, a, b)
		}
	}
	if g := Generic(); g.IntraAlpha != 0 || g.XRackAlpha != 0 {
		t.Fatal("Generic profile must stay flat (tests depend on it)")
	}
}

func TestTieredProfilesOrdered(t *testing.T) {
	// On the paper's systems shared memory must be cheaper than the rack
	// fabric, and the inter-rack tier at least as expensive.
	for _, m := range []*Machine{OPL(), Raijin()} {
		na, nb := m.LinkAlphaBeta(TierNode)
		ra, rb := m.LinkAlphaBeta(TierRack)
		xa, xb := m.LinkAlphaBeta(TierXRack)
		if !(na < ra && nb < rb) {
			t.Errorf("%s: intra-node (%g,%g) not cheaper than rack (%g,%g)", m.Name, na, nb, ra, rb)
		}
		if !(xa >= ra && xb >= rb) {
			t.Errorf("%s: cross-rack (%g,%g) cheaper than rack (%g,%g)", m.Name, xa, xb, ra, rb)
		}
	}
}

func TestMachineProfiles(t *testing.T) {
	opl, raijin := OPL(), Raijin()
	if opl.TIOWrite != 3.52 {
		t.Errorf("OPL T_I/O = %g, want 3.52 (paper Section III-B)", opl.TIOWrite)
	}
	if raijin.TIOWrite != 0.03 {
		t.Errorf("Raijin T_I/O = %g, want 0.03 (paper Section III-B)", raijin.TIOWrite)
	}
	if opl.TIOWrite/raijin.TIOWrite < 100 {
		t.Errorf("OPL/Raijin disk latency ratio = %g, want >= 2 orders of magnitude",
			opl.TIOWrite/raijin.TIOWrite)
	}
	if opl.SlotsPerHost != 12 {
		t.Errorf("OPL slots per host = %d, want 12", opl.SlotsPerHost)
	}
}

func TestPtToPt(t *testing.T) {
	m := &Machine{Alpha: 1e-6, Beta: 1e-9}
	if got, want := m.PtToPt(1000), 2e-6; math.Abs(got-want) > 1e-12 {
		t.Fatalf("PtToPt(1000) = %g, want %g", got, want)
	}
	if m.PtToPt(0) != m.Alpha {
		t.Fatalf("PtToPt(0) = %g, want alpha %g", m.PtToPt(0), m.Alpha)
	}
}

// TestULFMTableICalibration checks the model reproduces Table I exactly at
// the calibration points (two failures, OPL core counts).
func TestULFMTableICalibration(t *testing.T) {
	u := betaULFM()
	cores := []int{19, 38, 76, 152, 304}
	spawn := []float64{0.01, 4.19, 60.75, 86.45, 112.61}
	shrink := []float64{0.01, 2.46, 43.35, 50.80, 55.57}
	agree := []float64{0.49, 0.51, 1.03, 2.36, 12.83}
	merge := []float64{0.01, 0.01, 0.02, 0.02, 0.03}
	for i, c := range cores {
		if got := u.SpawnCost(c, 2); math.Abs(got-spawn[i]) > 1e-9 {
			t.Errorf("SpawnCost(%d,2) = %g, want %g", c, got, spawn[i])
		}
		if got := u.ShrinkCost(c, 2); math.Abs(got-shrink[i]) > 1e-9 {
			t.Errorf("ShrinkCost(%d,2) = %g, want %g", c, got, shrink[i])
		}
		if got := u.AgreeCost(c, 2); math.Abs(got-agree[i]) > 1e-9 {
			t.Errorf("AgreeCost(%d,2) = %g, want %g", c, got, agree[i])
		}
		if got := u.MergeCost(c); math.Abs(got-merge[i]) > 1e-9 {
			t.Errorf("MergeCost(%d) = %g, want %g", c, got, merge[i])
		}
	}
}

// TestULFMSingleVsDouble checks the paper's observation that one-failure
// repair is much cheaper than two-failure repair at every core count.
func TestULFMSingleVsDouble(t *testing.T) {
	u := betaULFM()
	for _, c := range []int{19, 38, 76, 152, 304} {
		if one, two := u.SpawnCost(c, 1), u.SpawnCost(c, 2); one >= two {
			t.Errorf("cores=%d: SpawnCost f=1 (%g) not < f=2 (%g)", c, one, two)
		}
		if one, two := u.ShrinkCost(c, 1), u.ShrinkCost(c, 2); one >= two {
			t.Errorf("cores=%d: ShrinkCost f=1 (%g) not < f=2 (%g)", c, one, two)
		}
	}
}

// TestULFMMonotoneInCores checks costs never decrease as cores increase,
// matching the trend discussed in Section III-A.
func TestULFMMonotoneInCores(t *testing.T) {
	u := betaULFM()
	for f := 1; f <= 5; f++ {
		prev := -1.0
		for c := 10; c <= 600; c += 7 {
			got := u.SpawnCost(c, f) + u.ShrinkCost(c, f) + u.AgreeCost(c, f)
			if got < prev-1e-12 {
				t.Fatalf("f=%d: cost decreased between %d cores (%g -> %g)", f, c, prev, got)
			}
			prev = got
		}
	}
}

// TestULFMMonotoneInFailures checks more failures never cost less.
func TestULFMMonotoneInFailures(t *testing.T) {
	u := betaULFM()
	for _, c := range []int{19, 76, 304} {
		prev := 0.0
		for f := 1; f <= 6; f++ {
			got := u.SpawnCost(c, f)
			if got < prev {
				t.Fatalf("cores=%d: SpawnCost decreased from f=%d (%g) to f=%d (%g)",
					c, f-1, prev, f, got)
			}
			prev = got
		}
	}
}

func TestInterpEdges(t *testing.T) {
	xs := []float64{10, 20, 40}
	ys := []float64{1, 3, 5}
	cases := []struct{ x, want float64 }{
		{5, 1},  // clamp below
		{10, 1}, // exact left
		{15, 2}, // midpoint
		{20, 3}, // exact knot
		{30, 4}, // midpoint
		{40, 5}, // exact right
		{60, 7}, // extrapolate with last slope 0.1*? (5-3)/(40-20)=0.1 -> 5+2=7
	}
	for _, c := range cases {
		if got := interp(xs, ys, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("interp(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if got := interp(nil, nil, 3); got != 0 {
		t.Errorf("interp on empty table = %g, want 0", got)
	}
}

func TestInterpExtrapolationNeverNegativeSlopeBelowLast(t *testing.T) {
	// Decreasing tail: extrapolation may fall, and that is allowed; but a
	// rising tail must never extrapolate below the last calibrated value.
	xs := []float64{1, 2}
	ys := []float64{1, 2}
	if got := interp(xs, ys, 100); got < 2 {
		t.Fatalf("rising extrapolation fell below last value: %g", got)
	}
}
