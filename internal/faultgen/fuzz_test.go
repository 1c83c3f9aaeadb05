package faultgen

import (
	"reflect"
	"testing"
)

// fuzzGridOf is the synthetic layout the fuzz harnesses use: ranks are dealt
// round-robin onto nGrids sub-grids.
func fuzzGridOf(nGrids int) func(rank int) int {
	return func(rank int) int {
		if nGrids <= 0 {
			return -1
		}
		return rank % nGrids
	}
}

// fuzzConflicts decodes a bitmask into conflict pairs (g, g+1).
func fuzzConflicts(mask uint16, nGrids int) [][2]int {
	var out [][2]int
	for g := 0; g+1 < nGrids && g < 16; g++ {
		if mask&(1<<g) != 0 {
			out = append(out, [2]int{g, g + 1})
		}
	}
	return out
}

// fuzzEvents decodes the fuzz arguments into two events: a step event (or,
// when s2 is 3 mod 4, a host event at step s1) and, by s2 mod 4, a second
// step event or an operation event counted from the run start or from the
// shrink call.
func fuzzEvents(s1, f1, s2, f2 int) []Event {
	e1 := Event{Step: s1, Failures: f1}
	e2 := Event{AfterOps: s2, Failures: f2}
	switch (s2%4 + 4) % 4 {
	case 0:
		e2 = Event{Step: s2, Failures: f2}
	case 2:
		e2.DuringRecovery = true
	case 3:
		e1 = Event{Step: s1, Host: true}
	}
	return []Event{e1, e2}
}

// FuzzSchedule checks the failure plan against its contract on arbitrary
// mixed step, operation and host events: NewPlan must return quickly (no
// livelock on unsatisfiable or degenerate configurations), and every plan
// it does return must protect rank 0, give each event exactly its victims
// (so operation victims are disjoint from step and host victims), honour
// the conflict table across all events, and be a pure function of the
// seed.
func FuzzSchedule(f *testing.F) {
	f.Add(int64(42), 16, 7, uint16(0), 10, 2, 20, 1)
	f.Add(int64(1), 19, 7, uint16(0x7f), 1, 3, 2, 3)    // heavy conflicts
	f.Add(int64(7), 2, 1, uint16(1), 5, 1, 6, 1)        // 2 ranks: second event unsatisfiable
	f.Add(int64(0), 8, 4, uint16(0), 10, 7, 20, 7)      // more victims than ranks
	f.Add(int64(-3), 0, 0, uint16(0), 0, 0, 0, 0)       // degenerate world
	f.Add(int64(99), 64, 8, uint16(0xffff), 3, 2, 3, 2) // host event and an op event
	f.Add(int64(5), 32, 7, uint16(2), 100, -1, 200, 1)  // negative failure count
	f.Fuzz(func(t *testing.T, seed int64, numRanks, nGrids int, mask uint16,
		s1, f1, s2, f2 int) {
		if numRanks > 1024 || numRanks < -1024 {
			t.Skip("world size out of scope")
		}
		conflicts := fuzzConflicts(mask, nGrids)
		cfg := Config{
			Seed:      seed,
			NumRanks:  numRanks,
			GridOf:    fuzzGridOf(nGrids),
			Conflicts: conflicts,
			HostOf:    func(r int) int { return r / 4 },
		}
		events := fuzzEvents(s1, f1, s2, f2)
		plan, err := NewPlan(cfg, events)
		if err != nil {
			return // rejecting is always allowed; hanging or panicking is not
		}

		conflict := buildConflictTable(conflicts)
		perEvent := map[Event]int{}
		vs := victims(plan)
		for i, r := range vs {
			if r < 1 || r >= numRanks {
				t.Fatalf("victim %d outside [1, %d)", r, numRanks)
			}
			e := plan.victims[r]
			perEvent[e]++
			if tr := plan.Trigger(nil, r); (tr.Step != 0) != (e.Step > 0) || (tr.Hook != nil) != (e.Step == 0) {
				t.Fatalf("victim %d of %s resolves to trigger %+v", r, e, tr)
			}
			for _, o := range vs[:i] {
				if e.Host && plan.victims[o].Host {
					continue // a host dies whole, conflicts or not
				}
				g, h := cfg.GridOf(r), cfg.GridOf(o)
				if conflict[[2]int{g, h}] || conflict[[2]int{h, g}] {
					t.Fatalf("victims %d and %d hit conflicting grids %d and %d (%s)", r, o, g, h, plan)
				}
			}
		}
		for _, e := range events {
			want := e.Failures
			if e.Host {
				host := -1
				for _, r := range vs {
					if plan.victims[r].Host {
						host = r / 4
					}
				}
				if host <= 0 {
					t.Fatalf("host event killed host %d: %s", host, plan)
				}
				want = min(numRanks, 4*host+4) - 4*host
			}
			if perEvent[e] != want {
				t.Fatalf("%s has %d victims, want %d (%s)", e, perEvent[e], want, plan)
			}
		}

		replay, err := NewPlan(cfg, events)
		if err != nil {
			t.Fatalf("replay with identical inputs errored: %v", err)
		}
		if !reflect.DeepEqual(plan.victims, replay.victims) {
			t.Fatalf("replay diverged: %s vs %s", plan, replay)
		}
	})
}

// FuzzPickGrids checks the simulated-loss grid picker: fast rejection of
// impossible requests (negative n, n beyond the candidate set, unsatisfiable
// conflicts) and, on success, n distinct candidates with no conflicting pair
// — deterministically for a given seed.
func FuzzPickGrids(f *testing.F) {
	f.Add(int64(3), 2, uint8(10), uint16(0))
	f.Add(int64(11), 5, uint8(10), uint16(0x3ff)) // every adjacent pair conflicts
	f.Add(int64(0), -1, uint8(4), uint16(0))      // negative request
	f.Add(int64(8), 9, uint8(4), uint16(0))       // more grids than candidates
	f.Add(int64(21), 0, uint8(0), uint16(0))      // empty candidate set
	f.Fuzz(func(t *testing.T, seed int64, n int, numCandidates uint8, mask uint16) {
		candidates := make([]int, numCandidates)
		for i := range candidates {
			candidates[i] = i
		}
		conflicts := fuzzConflicts(mask, len(candidates))
		chosen, err := PickGrids(seed, n, candidates, conflicts)
		if err != nil {
			return
		}
		if len(chosen) != n {
			t.Fatalf("picked %d grids, want %d", len(chosen), n)
		}
		conflict := buildConflictTable(conflicts)
		seen := map[int]bool{}
		for _, g := range chosen {
			if g < 0 || g >= len(candidates) {
				t.Fatalf("grid %d outside the candidate set", g)
			}
			if seen[g] {
				t.Fatalf("grid %d picked twice: %v", g, chosen)
			}
			seen[g] = true
			for other := range seen {
				if other != g && (conflict[[2]int{g, other}] || conflict[[2]int{other, g}]) {
					t.Fatalf("conflicting grids %d and %d both picked", g, other)
				}
			}
		}
		replay, err := PickGrids(seed, n, candidates, conflicts)
		if err != nil {
			t.Fatalf("replay errored: %v", err)
		}
		for i := range chosen {
			if chosen[i] != replay[i] {
				t.Fatalf("replay diverged: %v vs %v", chosen, replay)
			}
		}
	})
}
