package faultgen

import (
	"slices"
	"testing"

	"ftsg/internal/mpi"
)

func TestPlanDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, NumRanks: 44}
	events := []Event{{Step: 100, Failures: 3}}
	a, err := Schedule(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	av, bv := a.Victims(), b.Victims()
	if len(av) != 3 || len(bv) != 3 {
		t.Fatalf("victim counts %d, %d", len(av), len(bv))
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("plans differ: %v vs %v", av, bv)
		}
	}
}

func TestRankZeroProtected(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		p, err := Schedule(Config{Seed: seed, NumRanks: 8}, []Event{{Step: 1, Failures: 5}})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.DeathStep(0); ok {
			t.Fatalf("seed %d: rank 0 selected as victim", seed)
		}
	}
}

func TestZeroFailures(t *testing.T) {
	p, err := Schedule(Config{Seed: 1, NumRanks: 4}, []Event{{Step: 5, Failures: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Victims()) != 0 {
		t.Fatal("victims for zero failures")
	}
	// Poll must be a no-op.
	_, err = mpi.Run(mpi.Options{NProcs: 1, Entry: func(proc *mpi.Proc) {
		p.Poll(proc, 0, 10)
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTooManyFailures(t *testing.T) {
	if _, err := Schedule(Config{Seed: 1, NumRanks: 4}, []Event{{Step: 1, Failures: 4}}); err == nil {
		t.Fatal("4 failures among 4 ranks accepted (rank 0 protected)")
	}
}

func TestConflictConstraint(t *testing.T) {
	// 8 ranks, grid = rank/2 (4 grids); grids 1 and 2 conflict.
	gridOf := func(r int) int { return r / 2 }
	conflicts := [][2]int{{1, 2}}
	for seed := int64(0); seed < 100; seed++ {
		p, err := Schedule(Config{
			Seed: seed, NumRanks: 8, GridOf: gridOf, Conflicts: conflicts,
		}, []Event{{Step: 1, Failures: 2}})
		if err != nil {
			t.Fatal(err)
		}
		v := p.Victims()
		grids := map[int]bool{}
		for _, r := range v {
			grids[gridOf(r)] = true
		}
		if grids[1] && grids[2] {
			t.Fatalf("seed %d: victims %v hit conflicting grids", seed, v)
		}
	}
}

func TestPollKillsVictimAtStep(t *testing.T) {
	plan, err := Schedule(Config{Seed: 3, NumRanks: 4}, []Event{{Step: 7, Failures: 1}})
	if err != nil {
		t.Fatal(err)
	}
	victim := plan.Victims()[0]
	rep, err := mpi.Run(mpi.Options{NProcs: 4, Entry: func(proc *mpi.Proc) {
		rank := proc.World().Rank()
		for step := 1; step <= 10; step++ {
			plan.Poll(proc, rank, step)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != victim {
		t.Fatalf("failed = %v, want [%d]", rep.Failed, victim)
	}
}

func TestPollBeforeStepIsSafe(t *testing.T) {
	plan, _ := Schedule(Config{Seed: 3, NumRanks: 2}, []Event{{Step: 1000, Failures: 1}})
	rep, err := mpi.Run(mpi.Options{NProcs: 2, Entry: func(proc *mpi.Proc) {
		plan.Poll(proc, proc.World().Rank(), 999)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 0 {
		t.Fatal("victim died before its step")
	}
}

func TestPickGrids(t *testing.T) {
	candidates := []int{1, 2, 3, 4, 5, 6}
	conflicts := [][2]int{{1, 4}, {2, 5}, {3, 6}}
	for seed := int64(0); seed < 100; seed++ {
		got, err := PickGrids(seed, 3, candidates, conflicts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("picked %v", got)
		}
		in := map[int]bool{}
		for _, g := range got {
			if in[g] {
				t.Fatalf("duplicate grid in %v", got)
			}
			in[g] = true
		}
		for _, c := range conflicts {
			if in[c[0]] && in[c[1]] {
				t.Fatalf("seed %d: conflicting pair %v in %v", seed, c, got)
			}
		}
	}
}

func TestPickGridsTooMany(t *testing.T) {
	if _, err := PickGrids(1, 5, []int{1, 2}, nil); err == nil {
		t.Fatal("overdraw accepted")
	}
}

func TestPickGridsUnsatisfiable(t *testing.T) {
	// Any two of {1,4} conflict; asking for 2 must fail.
	if _, err := PickGrids(1, 2, []int{1, 4}, [][2]int{{1, 4}}); err == nil {
		t.Fatal("unsatisfiable constraints accepted")
	}
}

func TestVictimsSorted(t *testing.T) {
	p, err := Schedule(Config{Seed: 99, NumRanks: 100}, []Event{{Step: 1, Failures: 6}})
	if err != nil {
		t.Fatal(err)
	}
	v := p.Victims()
	for i := 1; i < len(v); i++ {
		if v[i] <= v[i-1] {
			t.Fatalf("victims not sorted: %v", v)
		}
	}
}

func TestNodePlan(t *testing.T) {
	hostOf := func(r int) int { return r / 4 }
	for seed := int64(0); seed < 30; seed++ {
		p, err := NodePlan(seed, 10, 12, hostOf)
		if err != nil {
			t.Fatal(err)
		}
		v := p.Victims()
		if len(v) != 4 {
			t.Fatalf("seed %d: %d victims, want a whole 4-slot host", seed, len(v))
		}
		host := hostOf(v[0])
		if host == 0 {
			t.Fatalf("seed %d: rank 0's host failed", seed)
		}
		for _, r := range v {
			if hostOf(r) != host {
				t.Fatalf("seed %d: victims %v span hosts", seed, v)
			}
			if s, _ := p.DeathStep(r); s != 10 {
				t.Fatalf("seed %d: victim %d dies at step %d, want 10", seed, r, s)
			}
		}
	}
}

func TestNodePlanDeterministic(t *testing.T) {
	hostOf := func(r int) int { return r / 3 }
	a, _ := NodePlan(5, 1, 9, hostOf)
	b, _ := NodePlan(5, 1, 9, hostOf)
	av, bv := a.Victims(), b.Victims()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("plans differ: %v vs %v", av, bv)
		}
	}
}

func TestNodePlanNoCandidateHost(t *testing.T) {
	// Every rank on one host: the host holding rank 0 cannot fail.
	if _, err := NodePlan(1, 1, 4, func(int) int { return 0 }); err == nil {
		t.Fatal("single-host cluster accepted for node failure")
	}
}

func TestScheduleCrossEventConflicts(t *testing.T) {
	gridOf := func(r int) int { return r / 2 } // 2 ranks per grid, grids 0..5
	conflicts := [][2]int{{1, 4}, {2, 5}}
	for seed := int64(0); seed < 60; seed++ {
		p, err := Schedule(Config{
			Seed: seed, NumRanks: 12, GridOf: gridOf, Conflicts: conflicts,
		}, []Event{{Step: 5, Failures: 1}, {Step: 20, Failures: 1}, {Step: 40, Failures: 1}})
		if err != nil {
			t.Fatal(err)
		}
		hit := map[int]bool{}
		for _, r := range p.Victims() {
			hit[gridOf(r)] = true
		}
		for _, c := range conflicts {
			if hit[c[0]] && hit[c[1]] {
				t.Fatalf("seed %d: conflicting pair %v hit across events (victims %v)", seed, c, p.Victims())
			}
		}
	}
}

func TestScheduleBasics(t *testing.T) {
	p, err := Schedule(Config{Seed: 3, NumRanks: 20}, []Event{{Step: 5, Failures: 2}, {Step: 15, Failures: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Victims()) != 5 {
		t.Fatalf("victims = %v", p.Victims())
	}
	early, late := 0, 0
	for _, r := range p.Victims() {
		s, ok := p.DeathStep(r)
		if !ok {
			t.Fatalf("victim %d has no death step", r)
		}
		switch s {
		case 5:
			early++
		case 15:
			late++
		default:
			t.Fatalf("victim %d dies at %d", r, s)
		}
	}
	if early != 2 || late != 3 {
		t.Fatalf("event sizes %d/%d", early, late)
	}
	if _, ok := p.DeathStep(0); ok {
		t.Fatal("rank 0 has a death step")
	}
}

func TestScheduleValidation(t *testing.T) {
	if _, err := Schedule(Config{Seed: 1, NumRanks: 3}, []Event{{Step: 10, Failures: 1}, {Step: 5, Failures: 1}}); err == nil {
		t.Fatal("decreasing steps accepted")
	}
	if _, err := Schedule(Config{Seed: 1, NumRanks: 3}, []Event{{Step: 1, Failures: 3}}); err == nil {
		t.Fatal("overdraw accepted")
	}
	p, err := Schedule(Config{Seed: 1, NumRanks: 3}, nil)
	if err != nil || len(p.Victims()) != 0 {
		t.Fatalf("empty schedule: %v %v", p.Victims(), err)
	}
}

// pinnedVictims is the victim set the single-event draw picks for a grid
// of seeds, world sizes and failure counts, with the conflict table below
// (nil = the constraints cannot be met). It pins the draw core.Run makes
// for NumFailures/FailStep: a change to the sampler moves every
// fault-injected result, so it must show here first.
var pinnedVictims = []struct {
	seed            int64
	ranks, failures int
	victims         []int
}{
	{0, 5, 1, []int{3}},
	{0, 5, 2, []int{2, 3}},
	{0, 5, 3, []int{2, 3, 4}},
	{0, 5, 4, nil},
	{0, 19, 1, []int{1}},
	{0, 19, 2, []int{1, 14}},
	{0, 19, 3, []int{8, 17, 18}},
	{0, 19, 4, []int{3, 7, 12, 13}},
	{0, 76, 1, []int{25}},
	{0, 76, 2, []int{25, 40}},
	{0, 76, 3, []int{25, 29, 40}},
	{0, 76, 4, []int{3, 47, 66, 68}},
	{0, 304, 1, []int{214}},
	{0, 304, 2, []int{214, 217}},
	{0, 304, 3, []int{173, 214, 217}},
	{0, 304, 4, []int{173, 214, 217, 239}},
	{1, 5, 1, []int{2}},
	{1, 5, 2, []int{2, 4}},
	{1, 5, 3, []int{2, 3, 4}},
	{1, 5, 4, nil},
	{1, 19, 1, []int{6}},
	{1, 19, 2, []int{6, 16}},
	{1, 19, 3, []int{6, 12, 16}},
	{1, 19, 4, []int{5, 7, 8, 9}},
	{1, 76, 1, []int{57}},
	{1, 76, 2, []int{13, 57}},
	{1, 76, 3, []int{13, 48, 57}},
	{1, 76, 4, []int{19, 26, 32, 66}},
	{1, 304, 1, []int{66}},
	{1, 304, 2, []int{66, 184}},
	{1, 304, 3, []int{30, 66, 184}},
	{1, 304, 4, []int{30, 66, 184, 189}},
	{2, 5, 1, []int{3}},
	{2, 5, 2, []int{1, 3}},
	{2, 5, 3, []int{2, 3, 4}},
	{2, 5, 4, nil},
	{2, 19, 1, []int{17}},
	{2, 19, 2, []int{7, 17}},
	{2, 19, 3, []int{7, 13, 17}},
	{2, 19, 4, []int{7, 13, 15, 17}},
	{2, 76, 1, []int{62}},
	{2, 76, 2, []int{37, 62}},
	{2, 76, 3, []int{37, 43, 62}},
	{2, 76, 4, []int{36, 40, 52, 62}},
	{2, 304, 1, []int{293}},
	{2, 304, 2, []int{46, 293}},
	{2, 304, 3, []int{46, 145, 293}},
	{2, 304, 4, []int{18, 46, 145, 293}},
	{3, 5, 1, []int{1}},
	{3, 5, 2, []int{1, 2}},
	{3, 5, 3, []int{1, 2, 3}},
	{3, 5, 4, nil},
	{3, 19, 1, []int{5}},
	{3, 19, 2, []int{5, 12}},
	{3, 19, 3, []int{1, 5, 12}},
	{3, 19, 4, []int{1, 5, 6, 12}},
	{3, 76, 1, []int{59}},
	{3, 76, 2, []int{3, 59}},
	{3, 76, 3, []int{3, 22, 59}},
	{3, 76, 4, []int{42, 43, 70, 73}},
	{3, 304, 1, []int{185}},
	{3, 304, 2, []int{185, 204}},
	{3, 304, 3, []int{185, 204, 232}},
	{3, 304, 4, []int{93, 124, 206, 264}},
}

func pinnedConfig(seed int64, ranks int) Config {
	return Config{
		Seed: seed, NumRanks: ranks,
		GridOf:    func(r int) int { return r % 11 },
		Conflicts: [][2]int{{0, 7}, {1, 8}, {2, 9}, {3, 10}, {1, 4}, {2, 5}, {3, 6}, {0, 1}},
	}
}

// TestScheduleReproducesPinnedVictims: a one-event Schedule draws exactly
// the pinned victims, and fails exactly where they cannot be placed.
func TestScheduleReproducesPinnedVictims(t *testing.T) {
	for _, c := range pinnedVictims {
		p, err := Schedule(pinnedConfig(c.seed, c.ranks), []Event{{Step: 9, Failures: c.failures}})
		if c.victims == nil {
			if err == nil {
				t.Errorf("seed %d ranks %d failures %d: placed %v, want an error", c.seed, c.ranks, c.failures, p.Victims())
			}
			continue
		}
		if err != nil {
			t.Errorf("seed %d ranks %d failures %d: %v", c.seed, c.ranks, c.failures, err)
			continue
		}
		if got := p.Victims(); !slices.Equal(got, c.victims) {
			t.Errorf("seed %d ranks %d failures %d: victims %v, want %v", c.seed, c.ranks, c.failures, got, c.victims)
		}
		for _, r := range c.victims {
			if s, _ := p.DeathStep(r); s != 9 {
				t.Errorf("seed %d: victim %d dies at step %d, want 9", c.seed, r, s)
			}
		}
	}
}
