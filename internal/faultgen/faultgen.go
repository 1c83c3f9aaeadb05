// Package faultgen injects process failures into the simulated application,
// mirroring the paper's failure generator, which "aborts single or multiple
// random MPI processes together by the system call kill(getpid(), SIGKILL)
// at some point before the combination of the sub-grid solutions".
//
// Victim selection honours the paper's constraints: process 0 never fails
// (it is used for controlling purposes), and for the Resampling and Copying
// technique no two victims may hit a pair of sub-grids that recover from
// each other (Fig. 1's pairs 0-7, 1-8, 2-9, 3-10 and 1-4, 2-5, 3-6).
package faultgen

import (
	"fmt"
	"math/rand"
	"slices"

	"ftsg/internal/mpi"
)

// Plan maps doomed world ranks to the solver step at which they die
// (possibly different steps for different victims, when built from a
// multi-event schedule). Plans are built deterministically from a seed, so
// every simulated process derives the same plan without communication.
type Plan struct {
	victims map[int]int // rank -> death step
}

// Victims returns the victim ranks in ascending order.
func (p *Plan) Victims() []int {
	out := make([]int, 0, len(p.victims))
	for r := range p.victims {
		out = append(out, r)
	}
	for i := 1; i < len(out); i++ { // insertion sort; victim lists are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// DeathStep returns the step at which a victim dies (0, false for
// non-victims).
func (p *Plan) DeathStep(rank int) (int, bool) {
	if p == nil {
		return 0, false
	}
	s, ok := p.victims[rank]
	return s, ok
}

// Poll kills the calling process if it is a victim and its death step has
// been reached. Call once per solver step. Replacement processes must not
// poll (their predecessor already died).
func (p *Plan) Poll(proc *mpi.Proc, rank, step int) {
	if p == nil {
		return
	}
	if at, ok := p.victims[rank]; ok && step >= at {
		proc.Kill()
	}
}

// Config describes how to draw a failure plan.
type Config struct {
	// Seed makes the plan deterministic across all simulated processes.
	Seed int64
	// NumRanks is the world size; victims are drawn from 1..NumRanks-1
	// (rank 0 is protected).
	NumRanks int
	// GridOf maps a rank to its sub-grid ID, and Conflicts lists pairs of
	// sub-grids that must not fail simultaneously (nil = no constraint).
	GridOf    func(rank int) int
	Conflicts [][2]int
}

// maxAttempts bounds the rejection sampling: a draw that hits a
// conflicting grid pair restarts its attempt, and this many failed attempts
// mean the constraints cannot be met.
const maxAttempts = 10000

// sampler draws victims from ranks 1..n-1 (rank 0 is protected) under the
// conflict constraint. It is the one rejection-sampling step of Schedule
// and NewOpPlan.
type sampler struct {
	rng      *rand.Rand
	n        int
	gridOf   func(rank int) int
	conflict map[[2]int]bool
}

func newSampler(cfg Config) *sampler {
	return &sampler{
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		n:        cfg.NumRanks,
		gridOf:   cfg.GridOf,
		conflict: buildConflictTable(cfg.Conflicts),
	}
}

// draw picks a uniformly random rank for which taken is false. When the
// rank's sub-grid conflicts with one already in hit it reports false, and
// the caller restarts its attempt; otherwise the grid joins hit.
func (s *sampler) draw(taken func(rank int) bool, hit map[int]bool) (int, bool) {
	r := 1 + s.rng.Intn(s.n-1)
	for taken(r) {
		r = 1 + s.rng.Intn(s.n-1)
	}
	if s.gridOf != nil {
		g := s.gridOf(r)
		for other := range hit {
			if s.conflict[[2]int{g, other}] || s.conflict[[2]int{other, g}] {
				return 0, false
			}
		}
		hit[g] = true
	}
	return r, true
}

// Event is one failure event of a multi-event schedule.
type Event struct {
	// Step is the solver step at which this event's victims die.
	Step int
	// Failures is the number of processes aborted together in this event.
	Failures int
}

// Schedule builds a failure plan from one or more events at increasing
// steps: each event kills a fresh set of victims, distinct from every
// earlier event's, with rank 0 protected. It errors when the constraints
// cannot be satisfied (e.g. more victims requested than eligible ranks).
// Conflicting grid pairs are avoided across ALL events, not just within
// one: techniques that only detect failures at the end of the run (RC, AC)
// see every event's victims at once, so a pair split across events is
// still a simultaneous loss from the recovery's point of view.
func Schedule(cfg Config, events []Event) (*Plan, error) {
	if len(events) == 0 {
		return &Plan{victims: map[int]int{}}, nil
	}
	all := make(map[int]int)
	s := newSampler(cfg)
	totalNeeded := 0
	for _, e := range events {
		if e.Failures < 0 {
			return nil, fmt.Errorf("faultgen: negative failure count %d", e.Failures)
		}
		totalNeeded += e.Failures
		// Checked inside the loop so partial sums can never overflow: any
		// partial sum at or above NumRanks errors out before the next add.
		if totalNeeded >= cfg.NumRanks {
			return nil, fmt.Errorf("faultgen: %d failures scheduled with %d ranks", totalNeeded, cfg.NumRanks)
		}
	}
	placedGrids := make(map[int]bool)
	for ei, e := range events {
		if ei > 0 && e.Step <= events[ei-1].Step {
			return nil, fmt.Errorf("faultgen: schedule steps must increase (%d after %d)", e.Step, events[ei-1].Step)
		}
		placed := false
		for attempt := 0; attempt < maxAttempts && !placed; attempt++ {
			victims := make(map[int]bool, e.Failures)
			taken := func(r int) bool {
				_, gone := all[r]
				return gone || victims[r]
			}
			hitGrids := make(map[int]bool)
			for g := range placedGrids {
				hitGrids[g] = true
			}
			ok := true
			for ok && len(victims) < e.Failures {
				var r int
				if r, ok = s.draw(taken, hitGrids); ok {
					victims[r] = true
				}
			}
			if ok {
				for r := range victims {
					all[r] = e.Step
				}
				placedGrids = hitGrids
				placed = true
			}
		}
		if !placed {
			return nil, fmt.Errorf("faultgen: could not place event %d under constraints", ei)
		}
	}
	return &Plan{victims: all}, nil
}

// NodePlan builds a whole-node failure plan: every rank of one randomly
// chosen host dies together at the given step, modelling the node-failure
// scenario of the paper's future work. The host running rank 0 is protected
// (rank 0 controls the application). It errors when no other host runs any
// rank.
func NodePlan(seed int64, step, numRanks int, hostOf func(rank int) int) (*Plan, error) {
	ranksByHost := map[int][]int{}
	for r := 0; r < numRanks; r++ {
		h := hostOf(r)
		ranksByHost[h] = append(ranksByHost[h], r)
	}
	protected := hostOf(0)
	var candidates []int
	for h := range ranksByHost {
		if h != protected {
			candidates = append(candidates, h)
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("faultgen: no host without rank 0 to fail")
	}
	slices.Sort(candidates) // deterministic order before drawing
	rng := rand.New(rand.NewSource(seed))
	host := candidates[rng.Intn(len(candidates))]
	victims := make(map[int]int, len(ranksByHost[host]))
	for _, r := range ranksByHost[host] {
		victims[r] = step
	}
	return &Plan{victims: victims}, nil
}

// PickGrids draws n distinct sub-grid IDs from candidates, honouring the
// same conflict constraint — the paper's simulated-failure mode (Figs. 9 and
// 10 assume whole grids are lost without killing processes).
func PickGrids(seed int64, n int, candidates []int, conflicts [][2]int) ([]int, error) {
	if n < 0 || n > len(candidates) {
		return nil, fmt.Errorf("faultgen: %d grids requested from %d candidates", n, len(candidates))
	}
	rng := rand.New(rand.NewSource(seed))
	conflict := buildConflictTable(conflicts)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		perm := rng.Perm(len(candidates))
		var chosen []int
		for _, idx := range perm {
			if len(chosen) == n {
				break
			}
			g := candidates[idx]
			bad := false
			for _, c := range chosen {
				if conflict[[2]int{g, c}] || conflict[[2]int{c, g}] {
					bad = true
					break
				}
			}
			if bad {
				continue
			}
			chosen = append(chosen, g)
		}
		if len(chosen) == n {
			return chosen, nil
		}
	}
	return nil, fmt.Errorf("faultgen: could not pick %d grids under constraints", n)
}

func buildConflictTable(pairs [][2]int) map[[2]int]bool {
	t := make(map[[2]int]bool, len(pairs))
	for _, p := range pairs {
		t[p] = true
	}
	return t
}
