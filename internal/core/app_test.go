package core

import (
	"math"
	"strings"
	"testing"

	"ftsg/internal/vtime"
)

// fastCfg returns a small, quick configuration for tests.
func fastCfg(t Technique) Config {
	return Config{
		Technique: t,
		DiagProcs: 4,
		Steps:     64,
		Machine:   vtime.OPL(),
		Seed:      1,
	}
}

func TestRunNoFailures(t *testing.T) {
	for _, tech := range []Technique{CheckpointRestart, ResamplingCopying, AlternateCombination} {
		res, err := Run(fastCfg(tech))
		if err != nil {
			t.Fatalf("%v: %v", tech, err)
		}
		if res.L1Error <= 0 || res.L1Error > 0.05 {
			t.Errorf("%v: L1 error %g out of range", tech, res.L1Error)
		}
		if res.TotalTime <= 0 {
			t.Errorf("%v: total time %g", tech, res.TotalTime)
		}
		if len(res.FailedRanks) != 0 || res.Spawned != 0 {
			t.Errorf("%v: unexpected failures %v", tech, res.FailedRanks)
		}
		if res.ReconstructTime != 0 {
			t.Errorf("%v: reconstruct time %g without failures", tech, res.ReconstructTime)
		}
	}
}

// TestGridSetsMatchPaper checks the process counts of the three techniques
// against the paper (l = 4, diagonal procs 8): CR 44, RC 76, AC 49.
func TestGridSetsMatchPaper(t *testing.T) {
	for _, tc := range []struct {
		tech  Technique
		grids int
		procs int
	}{
		{CheckpointRestart, 7, 44},
		{ResamplingCopying, 11, 76},
		{AlternateCombination, 10, 49},
	} {
		cfg := Config{Technique: tc.tech, DiagProcs: 8}.WithDefaults()
		if got := len(cfg.Grids()); got != tc.grids {
			t.Errorf("%v: %d grids, want %d", tc.tech, got, tc.grids)
		}
		if got := cfg.NumProcs(); got != tc.procs {
			t.Errorf("%v: %d procs, want %d", tc.tech, got, tc.procs)
		}
	}
	// The paper's Fig. 8 core counts come from the RC set at DiagProcs
	// {2,4,8,16,32}.
	want := map[int]int{2: 19, 4: 38, 8: 76, 16: 152, 32: 304}
	for dp, procs := range want {
		cfg := Config{Technique: ResamplingCopying, DiagProcs: dp}.WithDefaults()
		if got := cfg.NumProcs(); got != procs {
			t.Errorf("RC DiagProcs=%d: %d procs, want %d", dp, got, procs)
		}
	}
}

func TestRecoveryPartnerMapping(t *testing.T) {
	cfg := Config{Technique: ResamplingCopying, DiagProcs: 8}.WithDefaults()
	grids := cfg.Grids()
	// Paper Fig. 1: 0<->7, 1<->8, 2<->9, 3<->10; 4<-1, 5<-2, 6<-3.
	cases := []struct {
		lost, src int
		resample  bool
	}{
		{0, 7, false}, {7, 0, false}, {1, 8, false}, {8, 1, false},
		{3, 10, false}, {10, 3, false},
		{4, 1, true}, {5, 2, true}, {6, 3, true},
	}
	for _, c := range cases {
		src, resample, err := recoveryPartner(grids, grids[c.lost])
		if err != nil {
			t.Fatalf("partner(%d): %v", c.lost, err)
		}
		if src.ID != c.src || resample != c.resample {
			t.Errorf("partner(%d) = %d (resample %v), want %d (%v)",
				c.lost, src.ID, resample, c.src, c.resample)
		}
	}
	if _, _, err := recoveryPartner(grids, SubGrid{Role: RoleExtraLayer1}); err == nil {
		t.Error("extra-layer grid has no RC partner but got one")
	}
}

func TestSimulatedLossErrorOrdering(t *testing.T) {
	// Paper Fig. 10 shapes: CR error identical to baseline (exact
	// recovery); RC and AC errors grow with losses; AC more accurate than
	// RC; all within a factor of 10 of baseline.
	base := map[Technique]float64{}
	for _, tech := range []Technique{CheckpointRestart, ResamplingCopying, AlternateCombination} {
		res, err := Run(fastCfg(tech))
		if err != nil {
			t.Fatal(err)
		}
		base[tech] = res.L1Error
	}
	// Average a few trials per technique, as the paper averages 20.
	lossErr := map[Technique]float64{}
	for _, tech := range []Technique{CheckpointRestart, ResamplingCopying, AlternateCombination} {
		var sum float64
		const trials = 4
		for s := int64(0); s < trials; s++ {
			cfg := fastCfg(tech)
			cfg.NumFailures = 2
			cfg.Seed = 3 + s
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v: %v", tech, err)
			}
			if len(res.LostGrids) != 2 {
				t.Fatalf("%v: lost grids %v", tech, res.LostGrids)
			}
			sum += res.L1Error
		}
		lossErr[tech] = sum / trials
	}
	if d := math.Abs(lossErr[CheckpointRestart] - base[CheckpointRestart]); d > 1e-12 {
		t.Errorf("CR error changed by %g under simulated loss (must be exact recovery)", d)
	}
	if lossErr[ResamplingCopying] <= base[ResamplingCopying] {
		t.Errorf("RC error %g did not grow from %g", lossErr[ResamplingCopying], base[ResamplingCopying])
	}
	if lossErr[AlternateCombination] <= base[AlternateCombination] {
		t.Errorf("AC error %g did not grow from %g", lossErr[AlternateCombination], base[AlternateCombination])
	}
	// The paper's "surprising result": the Alternate Combination is MORE
	// accurate than the near-exact Resampling and Copying.
	if lossErr[AlternateCombination] >= lossErr[ResamplingCopying] {
		t.Errorf("AC error %g not below RC error %g (paper Section III-C)",
			lossErr[AlternateCombination], lossErr[ResamplingCopying])
	}
	if lossErr[AlternateCombination] > 10*base[AlternateCombination] {
		t.Errorf("AC error %g beyond 10x baseline %g", lossErr[AlternateCombination], base[AlternateCombination])
	}
	// At this deliberately tiny test scale the baseline solver error is
	// very small, so RC's resampling error can exceed the paper's
	// factor-of-10 envelope (which holds at the paper's resolution); keep
	// it bounded rather than exact.
	if lossErr[ResamplingCopying] > 50*base[ResamplingCopying] {
		t.Errorf("RC error %g beyond 50x baseline %g", lossErr[ResamplingCopying], base[ResamplingCopying])
	}
}

func TestRealFailureSingle(t *testing.T) {
	for _, tech := range []Technique{CheckpointRestart, ResamplingCopying, AlternateCombination} {
		cfg := fastCfg(tech)
		cfg.NumFailures = 1
		cfg.RealFailures = true
		cfg.Seed = 5
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", tech, err)
		}
		if res.Spawned != 1 || len(res.FailedRanks) != 1 {
			t.Errorf("%v: spawned %d failed %v", tech, res.Spawned, res.FailedRanks)
		}
		if res.ReconstructTime <= 0 {
			t.Errorf("%v: no reconstruction time recorded", tech)
		}
		if res.L1Error <= 0 || res.L1Error > 0.1 {
			t.Errorf("%v: L1 error %g after real failure", tech, res.L1Error)
		}
	}
}

func TestRealFailureDouble(t *testing.T) {
	cfg := fastCfg(AlternateCombination)
	cfg.NumFailures = 2
	cfg.RealFailures = true
	cfg.Seed = 7
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spawned != 2 {
		t.Fatalf("spawned %d, want 2", res.Spawned)
	}
	// Two failures must charge the expensive beta-ULFM path: spawn at
	// 49 cores, f=2 costs interp(Table I) >> single failure.
	single := fastCfg(AlternateCombination)
	single.NumFailures = 1
	single.RealFailures = true
	single.Seed = 7
	sres, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReconstructTime <= sres.ReconstructTime {
		t.Errorf("double-failure reconstruct %g not above single %g",
			res.ReconstructTime, sres.ReconstructTime)
	}
}

// TestValidation: Config.Validate (through WithDefaults, as Run applies it)
// rejects what Run could only panic on or silently misread.
func TestValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string // substring of the error; "" = accepted
	}{
		{"defaults", func(*Config) {}, ""},
		{"oversubscribed grid", func(c *Config) { c.DiagProcs = 1024 }, "DiagProcs"},
		{"FailStep beyond Steps", func(c *Config) { c.FailStep = 1 << 20 }, "FailStep"},
		{"unknown technique", func(c *Config) { c.Technique = 7 }, "unknown technique"},
		{"unknown checkpoint backend", func(c *Config) { c.CheckpointBackend = "tape" }, "unknown checkpoint backend"},
		{"hosts too few", func(c *Config) { c.Hosts = 1; c.SlotsPerHost = 2 }, "cannot hold"},
		// 19 ranks on 12-slot hosts derive 2 hosts; topo.NewRacked panics on
		// more racks than hosts, so Validate must count the derived hosts too.
		{"racks beyond derived hosts", func(c *Config) { c.Racks = 64 }, "Racks 64 exceeds 2 hosts"},
		{"racks beyond fixed hosts", func(c *Config) { c.Hosts = 4; c.Racks = 5 }, "Racks 5 exceeds 4 hosts"},
		{"racks = derived hosts + spares", func(c *Config) { c.Racks = 3; c.SpareNodes = 1 }, ""},
		{"racks = fixed hosts", func(c *Config) { c.Hosts = 4; c.Racks = 4 }, ""},
	} {
		cfg := fastCfg(CheckpointRestart)
		tc.edit(&cfg)
		err := cfg.WithDefaults().Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		if _, rerr := Run(cfg); (rerr == nil) != (err == nil) {
			t.Errorf("%s: Validate says %v but Run says %v", tc.name, err, rerr)
		}
	}
}

// TestParseTechnique: every technique's String parses back to it, in any
// case, and an unknown name is rejected.
func TestParseTechnique(t *testing.T) {
	for _, tech := range []Technique{CheckpointRestart, ResamplingCopying, AlternateCombination} {
		for _, name := range []string{tech.String(), strings.ToLower(tech.String()), " " + tech.String() + " "} {
			if got, err := ParseTechnique(name); err != nil || got != tech {
				t.Errorf("ParseTechnique(%q) = %v, %v; want %v", name, got, err, tech)
			}
		}
	}
	for _, name := range []string{"XX", "", "Technique(3)"} {
		if got, err := ParseTechnique(name); err == nil {
			t.Errorf("ParseTechnique(%q) = %v, want an error", name, got)
		}
	}
}

func TestCheckpointWritesHappen(t *testing.T) {
	cfg := fastCfg(CheckpointRestart)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointWrites < 1 {
		t.Fatalf("no checkpoints written (plan %+v)", res.CheckpointPlan)
	}
	if res.CheckpointWrites > res.CheckpointPlan.Count {
		t.Fatalf("writes %d exceed plan %d", res.CheckpointWrites, res.CheckpointPlan.Count)
	}
}

func TestEstimateStepTimePositive(t *testing.T) {
	cfg := fastCfg(CheckpointRestart).WithDefaults()
	if cfg.EstimateStepTime() <= 0 {
		t.Fatal("non-positive step time estimate")
	}
}
