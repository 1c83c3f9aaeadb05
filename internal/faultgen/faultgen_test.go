package faultgen

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ftsg/internal/mpi"
)

// victims lists a plan's victims in ascending order.
func victims(p *Plan) []int {
	out := make([]int, 0, len(p.victims))
	for r := range p.victims {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

func TestPlanDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, NumRanks: 44}
	events := []Event{{Step: 100, Failures: 3}}
	a, err := NewPlan(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	av, bv := victims(a), victims(b)
	if len(av) != 3 || !slices.Equal(av, bv) {
		t.Fatalf("plans differ: %v vs %v", av, bv)
	}
}

func TestRankZeroProtected(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		p, err := NewPlan(Config{Seed: seed, NumRanks: 8}, []Event{{Step: 1, Failures: 5}})
		if err != nil {
			t.Fatal(err)
		}
		if tr := p.Trigger(nil, 0); tr.Step != 0 || tr.Hook != nil {
			t.Fatalf("seed %d: rank 0 selected as victim", seed)
		}
	}
}

// TestZeroFailures: an empty plan, and a nil one, resolve every rank to the
// zero trigger, which never fires.
func TestZeroFailures(t *testing.T) {
	p, err := NewPlan(Config{Seed: 1, NumRanks: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "" {
		t.Fatalf("victims %q for an empty plan", p)
	}
	for _, plan := range []*Plan{p, nil} {
		for r := 0; r < 4; r++ {
			if tr := plan.Trigger(nil, r); tr.Step != 0 || tr.Hook != nil {
				t.Fatalf("rank %d of an empty plan has trigger %+v", r, tr)
			}
		}
	}
}

func TestTooManyFailures(t *testing.T) {
	if _, err := NewPlan(Config{Seed: 1, NumRanks: 4}, []Event{{Step: 1, Failures: 4}}); err == nil {
		t.Fatal("4 failures among 4 ranks accepted (rank 0 protected)")
	}
	if _, err := NewPlan(Config{Seed: 1, NumRanks: 4}, []Event{{Step: 1, Failures: 2}, {AfterOps: 3, Failures: 2}}); err == nil {
		t.Fatal("2 step and 2 op victims among 3 eligible ranks accepted")
	}
}

func TestConflictConstraint(t *testing.T) {
	// 8 ranks, grid = rank/2 (4 grids); grids 1 and 2 conflict.
	gridOf := func(r int) int { return r / 2 }
	conflicts := [][2]int{{1, 2}}
	for seed := int64(0); seed < 100; seed++ {
		p, err := NewPlan(Config{
			Seed: seed, NumRanks: 8, GridOf: gridOf, Conflicts: conflicts,
		}, []Event{{Step: 1, Failures: 1}, {AfterOps: 4, Failures: 1}})
		if err != nil {
			t.Fatal(err)
		}
		v := victims(p)
		grids := map[int]bool{}
		for _, r := range v {
			grids[gridOf(r)] = true
		}
		if grids[1] && grids[2] {
			t.Fatalf("seed %d: victims %v hit conflicting grids", seed, v)
		}
	}
}

// TestPollKillsVictimAtStep: a rank that polls its step trigger every step
// dies at exactly that step.
func TestPollKillsVictimAtStep(t *testing.T) {
	plan, err := NewPlan(Config{Seed: 3, NumRanks: 4}, []Event{{Step: 7, Failures: 1}})
	if err != nil {
		t.Fatal(err)
	}
	victim := victims(plan)[0]
	rep, err := mpi.Run(mpi.Options{NProcs: 4, Entry: func(proc *mpi.Proc) {
		tr := plan.Trigger(proc, proc.World().Rank())
		for step := 1; step <= 10; step++ {
			if tr.Step == step {
				if step != 7 {
					t.Errorf("victim polled its death at step %d", step)
				}
				proc.Kill()
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != victim {
		t.Fatalf("failed = %v, want [%d]", rep.Failed, victim)
	}
}

// TestPollBeforeStepIsSafe: an operation trigger kills at its count — from
// the run start, or from the shrink call — and not one operation earlier.
func TestPollBeforeStepIsSafe(t *testing.T) {
	plan, err := NewPlan(Config{Seed: 3, NumRanks: 3}, []Event{
		{AfterOps: 3, Failures: 1}, {AfterOps: 2, DuringRecovery: true, Failures: 1}})
	if err != nil {
		t.Fatal(err)
	}
	fires := func(h mpi.OpHook, op string) (killed bool) {
		defer func() { killed = recover() != nil }()
		h(op)
		return false
	}
	for _, r := range victims(plan) {
		h := plan.Trigger(nil, r).Hook
		want := []string{mpi.OpSend, mpi.OpRecv, mpi.OpSend}
		if plan.victims[r].DuringRecovery {
			want = []string{mpi.OpSend, mpi.OpSend, mpi.OpShrink, mpi.OpAgree}
		}
		for i, op := range want {
			if got := fires(h, op); got != (i == len(want)-1) {
				t.Fatalf("rank %d (%s): operation %d %s killed = %v", r, plan.victims[r], i+1, op, got)
			}
		}
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
	p, err := NewPlan(Config{Seed: 99, NumRanks: 100}, []Event{{Step: 1, Failures: 6}})
	if err != nil {
		t.Fatal(err)
	}
	v := victims(p)
	want := make([]string, len(v))
	for i, r := range v {
		want[i] = fmt.Sprintf("%d@step 1", r)
	}
	if len(v) != 6 || p.String() != strings.Join(want, " ") {
		t.Fatalf("plan %s, want 6 victims in ascending order", p)
	}
}

func TestNodePlan(t *testing.T) {
	hostOf := func(r int) int { return r / 4 }
	for seed := int64(0); seed < 30; seed++ {
		p, err := NewPlan(Config{Seed: seed, NumRanks: 12, HostOf: hostOf}, []Event{{Step: 10, Host: true}})
		if err != nil {
			t.Fatal(err)
		}
		v := victims(p)
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
			if s := p.Trigger(nil, r).Step; s != 10 {
				t.Fatalf("seed %d: victim %d dies at step %d, want 10", seed, r, s)
			}
		}
	}
}

func TestNodePlanDeterministic(t *testing.T) {
	cfg := Config{Seed: 5, NumRanks: 9, HostOf: func(r int) int { return r / 3 }}
	a, _ := NewPlan(cfg, []Event{{Step: 1, Host: true}})
	b, _ := NewPlan(cfg, []Event{{Step: 1, Host: true}})
	if a.String() != b.String() {
		t.Fatalf("plans differ: %s vs %s", a, b)
	}
}

func TestNodePlanNoCandidateHost(t *testing.T) {
	// Every rank on one host: the host holding rank 0 cannot fail.
	cfg := Config{Seed: 1, NumRanks: 4, HostOf: func(int) int { return 0 }}
	if _, err := NewPlan(cfg, []Event{{Step: 1, Host: true}}); err == nil {
		t.Fatal("single-host cluster accepted for node failure")
	}
	cfg.HostOf = nil
	if _, err := NewPlan(cfg, []Event{{Step: 1, Host: true}}); err == nil {
		t.Fatal("host event without a host lookup accepted")
	}
}

func TestScheduleCrossEventConflicts(t *testing.T) {
	gridOf := func(r int) int { return r / 2 } // 2 ranks per grid, grids 0..5
	conflicts := [][2]int{{1, 4}, {2, 5}}
	for seed := int64(0); seed < 60; seed++ {
		p, err := NewPlan(Config{
			Seed: seed, NumRanks: 12, GridOf: gridOf, Conflicts: conflicts,
		}, []Event{{Step: 5, Failures: 1}, {Step: 20, Failures: 1}, {Step: 40, Failures: 1}})
		if err != nil {
			t.Fatal(err)
		}
		hit := map[int]bool{}
		for _, r := range victims(p) {
			hit[gridOf(r)] = true
		}
		for _, c := range conflicts {
			if hit[c[0]] && hit[c[1]] {
				t.Fatalf("seed %d: conflicting pair %v hit across events (victims %s)", seed, c, p)
			}
		}
	}
}

func TestScheduleBasics(t *testing.T) {
	p, err := NewPlan(Config{Seed: 3, NumRanks: 20}, []Event{
		{Step: 5, Failures: 2}, {Step: 15, Failures: 3}, {AfterOps: 9, Failures: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(victims(p)) != 7 {
		t.Fatalf("victims = %s", p)
	}
	count := map[string]int{}
	for _, r := range victims(p) {
		tr := p.Trigger(nil, r)
		switch {
		case tr.Step != 0:
			count[fmt.Sprint("step ", tr.Step)]++
		case tr.Hook != nil:
			count["op"]++
		default:
			t.Fatalf("victim %d has no trigger", r)
		}
	}
	if count["step 5"] != 2 || count["step 15"] != 3 || count["op"] != 2 {
		t.Fatalf("event sizes %v", count)
	}
	if tr := p.Trigger(nil, 0); tr.Step != 0 || tr.Hook != nil {
		t.Fatal("rank 0 has a trigger")
	}
}

// TestScheduleValidation: NewPlan refuses what Check refuses, and Event
// renders every trigger and victim set.
func TestScheduleValidation(t *testing.T) {
	cfg := Config{Seed: 1, NumRanks: 3, HostOf: func(r int) int { return r }}
	for _, c := range []struct {
		name   string
		events []Event
	}{
		{"decreasing steps", []Event{{Step: 10, Failures: 1}, {Step: 5, Failures: 1}}},
		{"repeated step", []Event{{Step: 5, Failures: 1}, {Step: 5, Failures: 1}}},
		{"overdraw", []Event{{Step: 1, Failures: 3}}},
		{"negative step", []Event{{Step: -1, Failures: 1}}},
		{"no trigger", []Event{{Failures: 1}}},
		{"two triggers", []Event{{Step: 2, AfterOps: 3, Failures: 1}}},
		{"no victims", []Event{{Step: 2}}},
		{"negative failures", []Event{{Step: 2, Failures: -1}}},
		{"host with ranks", []Event{{Step: 2, Host: true, Failures: 1}}},
		{"two hosts", []Event{{Step: 2, Host: true}, {AfterOps: 2, Host: true}}},
		{"host and step ranks", []Event{{Step: 2, Host: true}, {Step: 4, Failures: 1}}},
	} {
		if p, err := NewPlan(cfg, c.events); err == nil {
			t.Errorf("%s accepted: %s", c.name, p)
		}
	}
	for e, want := range map[Event]string{
		{Step: 5, Failures: 2}:                           "kill 2@step 5",
		{AfterOps: 7, Failures: 1}:                       "kill 1@op 7",
		{AfterOps: 3, DuringRecovery: true, Failures: 1}: "kill 1@shrink+3ops",
		{Step: 4, Host: true}:                            "node@step 4",
	} {
		if got := e.String(); got != want {
			t.Errorf("%+v renders %q, want %q", e, got, want)
		}
	}
}

// pinnedVictims is the victim set the single-event draw picks for a grid
// of seeds, world sizes and failure counts, with the conflict table below
// (nil = the constraints cannot be met), and — for host rows — the ranks of
// the one host a whole-node event draws, on four-slot hosts. It pins the
// draws core.Run makes: a change to the sampler or the host draw moves
// every fault-injected result, so it must show here first.
var pinnedVictims = []struct {
	seed            int64
	ranks, failures int
	host            bool
	victims         []int
}{
	{0, 5, 1, false, []int{3}},
	{0, 5, 2, false, []int{2, 3}},
	{0, 5, 3, false, []int{2, 3, 4}},
	{0, 5, 4, false, nil},
	{0, 19, 1, false, []int{1}},
	{0, 19, 2, false, []int{1, 14}},
	{0, 19, 3, false, []int{8, 17, 18}},
	{0, 19, 4, false, []int{3, 7, 12, 13}},
	{0, 76, 1, false, []int{25}},
	{0, 76, 2, false, []int{25, 40}},
	{0, 76, 3, false, []int{25, 29, 40}},
	{0, 76, 4, false, []int{3, 47, 66, 68}},
	{0, 304, 1, false, []int{214}},
	{0, 304, 2, false, []int{214, 217}},
	{0, 304, 3, false, []int{173, 214, 217}},
	{0, 304, 4, false, []int{173, 214, 217, 239}},
	{1, 5, 1, false, []int{2}},
	{1, 5, 2, false, []int{2, 4}},
	{1, 5, 3, false, []int{2, 3, 4}},
	{1, 5, 4, false, nil},
	{1, 19, 1, false, []int{6}},
	{1, 19, 2, false, []int{6, 16}},
	{1, 19, 3, false, []int{6, 12, 16}},
	{1, 19, 4, false, []int{5, 7, 8, 9}},
	{1, 76, 1, false, []int{57}},
	{1, 76, 2, false, []int{13, 57}},
	{1, 76, 3, false, []int{13, 48, 57}},
	{1, 76, 4, false, []int{19, 26, 32, 66}},
	{1, 304, 1, false, []int{66}},
	{1, 304, 2, false, []int{66, 184}},
	{1, 304, 3, false, []int{30, 66, 184}},
	{1, 304, 4, false, []int{30, 66, 184, 189}},
	{2, 5, 1, false, []int{3}},
	{2, 5, 2, false, []int{1, 3}},
	{2, 5, 3, false, []int{2, 3, 4}},
	{2, 5, 4, false, nil},
	{2, 19, 1, false, []int{17}},
	{2, 19, 2, false, []int{7, 17}},
	{2, 19, 3, false, []int{7, 13, 17}},
	{2, 19, 4, false, []int{7, 13, 15, 17}},
	{2, 76, 1, false, []int{62}},
	{2, 76, 2, false, []int{37, 62}},
	{2, 76, 3, false, []int{37, 43, 62}},
	{2, 76, 4, false, []int{36, 40, 52, 62}},
	{2, 304, 1, false, []int{293}},
	{2, 304, 2, false, []int{46, 293}},
	{2, 304, 3, false, []int{46, 145, 293}},
	{2, 304, 4, false, []int{18, 46, 145, 293}},
	{3, 5, 1, false, []int{1}},
	{3, 5, 2, false, []int{1, 2}},
	{3, 5, 3, false, []int{1, 2, 3}},
	{3, 5, 4, false, nil},
	{3, 19, 1, false, []int{5}},
	{3, 19, 2, false, []int{5, 12}},
	{3, 19, 3, false, []int{1, 5, 12}},
	{3, 19, 4, false, []int{1, 5, 6, 12}},
	{3, 76, 1, false, []int{59}},
	{3, 76, 2, false, []int{3, 59}},
	{3, 76, 3, false, []int{3, 22, 59}},
	{3, 76, 4, false, []int{42, 43, 70, 73}},
	{3, 304, 1, false, []int{185}},
	{3, 304, 2, false, []int{185, 204}},
	{3, 304, 3, false, []int{185, 204, 232}},
	{3, 304, 4, false, []int{93, 124, 206, 264}},
	// Whole-host events: every rank of one drawn host (four-slot blocks;
	// rank 0's host is protected, so a one-host world cannot fail).
	{0, 4, 0, true, nil},
	{0, 9, 0, true, []int{4, 5, 6, 7}},
	{0, 19, 0, true, []int{12, 13, 14, 15}},
	{0, 76, 0, true, []int{4, 5, 6, 7}},
	{0, 304, 0, true, []int{100, 101, 102, 103}},
	{1, 4, 0, true, nil},
	{1, 9, 0, true, []int{8}},
	{1, 19, 0, true, []int{8, 9, 10, 11}},
	{1, 76, 0, true, []int{24, 25, 26, 27}},
	{1, 304, 0, true, []int{228, 229, 230, 231}},
	{2, 4, 0, true, nil},
	{2, 9, 0, true, []int{4, 5, 6, 7}},
	{2, 19, 0, true, []int{12, 13, 14, 15}},
	{2, 76, 0, true, []int{68, 69, 70, 71}},
	{2, 304, 0, true, []int{248, 249, 250, 251}},
	{3, 4, 0, true, nil},
	{3, 9, 0, true, []int{4, 5, 6, 7}},
	{3, 19, 0, true, []int{4, 5, 6, 7}},
	{3, 76, 0, true, []int{20, 21, 22, 23}},
	{3, 304, 0, true, []int{236, 237, 238, 239}},
}

func pinnedConfig(seed int64, ranks int) Config {
	return Config{
		Seed: seed, NumRanks: ranks,
		GridOf:    func(r int) int { return r % 11 },
		Conflicts: [][2]int{{0, 7}, {1, 8}, {2, 9}, {3, 10}, {1, 4}, {2, 5}, {3, 6}, {0, 1}},
	}
}

// TestScheduleReproducesPinnedVictims: a one-event plan — ranks drawn by
// the sampler, or for host rows a whole host — draws exactly the pinned
// victims, and fails exactly where they cannot be placed.
func TestScheduleReproducesPinnedVictims(t *testing.T) {
	for _, c := range pinnedVictims {
		cfg := pinnedConfig(c.seed, c.ranks)
		e := Event{Step: 9, Failures: c.failures}
		if c.host {
			cfg.HostOf = func(r int) int { return r / 4 }
			e = Event{Step: 9, Host: true}
		}
		p, err := NewPlan(cfg, []Event{e})
		if c.victims == nil {
			if err == nil {
				t.Errorf("seed %d ranks %d failures %d host %v: placed %s, want an error", c.seed, c.ranks, c.failures, c.host, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("seed %d ranks %d failures %d host %v: %v", c.seed, c.ranks, c.failures, c.host, err)
			continue
		}
		if got := victims(p); !slices.Equal(got, c.victims) {
			t.Errorf("seed %d ranks %d failures %d host %v: victims %v, want %v", c.seed, c.ranks, c.failures, c.host, got, c.victims)
		}
		for _, r := range c.victims {
			if s := p.Trigger(nil, r).Step; s != 9 {
				t.Errorf("seed %d: victim %d dies at step %d, want 9", c.seed, r, s)
			}
		}
	}
}

// pinnedOpPlans is the plan two operation-granularity events draw — a kill
// at the third operation and one at the fifth counted from the shrink call
// — alone, or after a two-victim step event at step 9 whose victims they
// must avoid ("" = the constraints cannot be met). Each victim reads
// "rank@trigger", ascending by rank.
var pinnedOpPlans = []struct {
	seed     int64
	ranks    int
	withStep bool
	plan     string
}{
	{0, 3, false, "1@shrink+5ops 2@op 3"},
	{0, 3, true, ""},
	{0, 5, false, "1@shrink+5ops 2@op 3"},
	{0, 5, true, ""},
	{0, 19, false, "5@shrink+5ops 6@op 3"},
	{0, 19, true, "1@step 9 7@shrink+5ops 9@op 3 14@step 9"},
	{0, 76, false, "41@shrink+5ops 63@op 3"},
	{0, 76, true, "25@step 9 40@step 9 41@shrink+5ops 63@op 3"},
	{0, 304, false, "128@shrink+5ops 219@op 3"},
	{0, 304, true, "128@shrink+5ops 214@step 9 217@step 9 219@op 3"},
	{1, 3, false, "1@shrink+5ops 2@op 3"},
	{1, 3, true, ""},
	{1, 5, false, "3@shrink+5ops 4@op 3"},
	{1, 5, true, ""},
	{1, 19, false, "6@op 3 17@shrink+5ops"},
	{1, 19, true, "5@op 3 6@step 9 8@shrink+5ops 16@step 9"},
	{1, 76, false, "3@op 3 27@shrink+5ops"},
	{1, 76, true, "13@step 9 32@shrink+5ops 50@op 3 57@step 9"},
	{1, 304, false, "11@op 3 81@shrink+5ops"},
	{1, 304, true, "11@op 3 66@step 9 81@shrink+5ops 184@step 9"},
	{2, 3, false, "1@op 3 2@shrink+5ops"},
	{2, 3, true, ""},
	{2, 5, false, "2@shrink+5ops 4@op 3"},
	{2, 5, true, ""},
	{2, 19, false, "7@op 3 14@shrink+5ops"},
	{2, 19, true, "7@step 9 12@shrink+5ops 17@step 9 18@op 3"},
	{2, 76, false, "34@op 3 50@shrink+5ops"},
	{2, 76, true, "5@shrink+5ops 37@step 9 50@op 3 62@step 9"},
	{2, 304, false, "218@shrink+5ops 259@op 3"},
	{2, 304, true, "46@step 9 83@shrink+5ops 96@op 3 293@step 9"},
	{3, 3, false, "1@op 3 2@shrink+5ops"},
	{3, 3, true, ""},
	{3, 5, false, "3@op 3 4@shrink+5ops"},
	{3, 5, true, ""},
	{3, 19, false, "3@shrink+5ops 7@op 3"},
	{3, 19, true, "3@shrink+5ops 5@step 9 7@op 3 12@step 9"},
	{3, 76, false, "7@op 3 30@shrink+5ops"},
	{3, 76, true, "3@step 9 7@op 3 30@shrink+5ops 59@step 9"},
	{3, 304, false, "10@op 3 180@shrink+5ops"},
	{3, 304, true, "10@op 3 180@shrink+5ops 185@step 9 204@step 9"},
}

// TestOpEventsReproducePinnedPlans: operation-granularity victims are
// drawn from the Seed+7919 stream, after and apart from the step victims.
func TestOpEventsReproducePinnedPlans(t *testing.T) {
	events := []Event{{AfterOps: 3, Failures: 1}, {AfterOps: 5, DuringRecovery: true, Failures: 1}}
	for _, c := range pinnedOpPlans {
		evs := events
		if c.withStep {
			evs = append([]Event{{Step: 9, Failures: 2}}, events...)
		}
		p, err := NewPlan(pinnedConfig(c.seed, c.ranks), evs)
		got := ""
		if err == nil {
			got = p.String()
		}
		if got != c.plan {
			t.Errorf("seed %d ranks %d with step %v: plan %q (err %v), want %q", c.seed, c.ranks, c.withStep, got, err, c.plan)
		}
	}
}
