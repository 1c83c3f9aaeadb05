// Package faultgen injects process failures into the simulated application,
// mirroring the paper's failure generator, which "aborts single or multiple
// random MPI processes together by the system call kill(getpid(), SIGKILL)
// at some point before the combination of the sub-grid solutions".
//
// A fault is one Event: a trigger (a solver step, or a count of the
// victim's own MPI operations) plus a victim set (ranks drawn at random, or
// every rank of one drawn host). NewPlan draws the victims of a list of
// events; each rank resolves its own part once, as a Trigger.
//
// Victim selection honours the paper's constraints: process 0 never fails
// (it is used for controlling purposes), and for the Resampling and Copying
// technique no two victims may hit a pair of sub-grids that recover from
// each other (Fig. 1's pairs 0-7, 1-8, 2-9, 3-10 and 1-4, 2-5, 3-6).
package faultgen

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"

	"ftsg/internal/mpi"
)

// Event is one fault: a trigger plus a victim set.
type Event struct {
	// Step, when >= 1, kills the victims at that solver step. With Step 0
	// they die at the entry of their AfterOps-th MPI operation instead
	// (inside a barrier, a halo exchange, a gather, ...), counted from the
	// run start — or, with DuringRecovery, from their shrink call, which
	// counts as operation 1, so a small AfterOps lands the death inside an
	// in-progress repair (spawn, merge, agree, split): the pathology whose
	// cost the paper's Table I measures.
	Step, AfterOps int
	DuringRecovery bool
	// Failures ranks are drawn as victims; with Host, every rank of one
	// drawn host dies instead (the node failure of the paper's future
	// work), and Failures stays 0.
	Failures int
	Host     bool
}

// String renders the event as "kill 2@step 5", "kill 1@op 7",
// "kill 1@shrink+3ops" or "node@step 4".
func (e Event) String() string {
	if e.Host {
		return "node@" + e.trigger()
	}
	return fmt.Sprintf("kill %d@%s", e.Failures, e.trigger())
}

func (e Event) trigger() string {
	switch {
	case e.Step > 0:
		return fmt.Sprintf("step %d", e.Step)
	case e.DuringRecovery:
		return fmt.Sprintf("shrink+%dops", e.AfterOps)
	}
	return fmt.Sprintf("op %d", e.AfterOps)
}

// Check reports the first reason NewPlan refuses events for their shape
// alone: a trigger that is neither a step nor an operation count >= 1, a
// victim set that is neither ranks nor a host, step triggers that do not
// increase, more than one host event, or a host event next to a step-
// triggered rank event (the two draws are independent and could collide).
func Check(events []Event) error {
	prev, hosts, stepRanks := 0, 0, 0
	for i, e := range events {
		switch {
		case e.Step < 0:
			return fmt.Errorf("faultgen: event %d at step %d", i, e.Step)
		case e.Step == 0 && e.AfterOps < 1:
			return fmt.Errorf("faultgen: event %d: operation count %d < 1", i, e.AfterOps)
		case e.Step > 0 && (e.AfterOps != 0 || e.DuringRecovery):
			return fmt.Errorf("faultgen: event %d has both a step and an operation trigger", i)
		case e.Host && e.Failures != 0:
			return fmt.Errorf("faultgen: event %d: a host event draws no ranks", i)
		case !e.Host && e.Failures < 1:
			return fmt.Errorf("faultgen: event %d has %d failures", i, e.Failures)
		case e.Step > 0 && e.Step <= prev:
			return fmt.Errorf("faultgen: step triggers must increase (%d after %d)", e.Step, prev)
		}
		if e.Step > 0 {
			prev = e.Step
		}
		switch {
		case e.Host:
			hosts++
		case e.Step > 0:
			stepRanks++
		}
	}
	if hosts > 1 {
		return fmt.Errorf("faultgen: %d host events, at most one", hosts)
	}
	if hosts > 0 && stepRanks > 0 {
		return fmt.Errorf("faultgen: a host event and step events are mutually exclusive")
	}
	return nil
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
	// HostOf maps a rank to its host index; only a host event reads it.
	HostOf func(rank int) int
}

// opSeedOffset moves the operation-triggered victims onto their own random
// stream (same seed, different stream), decorrelated from the step draw.
const opSeedOffset = 7919

// Plan maps doomed world ranks to the event each dies in. Plans are drawn
// deterministically from a seed, so every simulated process derives the
// same plan without communication.
type Plan struct {
	victims map[int]Event
}

// NewPlan draws the victims of events. Rank 0 is never drawn, and no rank
// dies twice. Three random streams keep every draw independent of the
// others' events: step-triggered ranks come from Seed, drawn event by
// event with conflicting grid pairs avoided across ALL events (techniques
// that only detect failures at the end of the run, RC and AC, see every
// event's victims at once, so a pair split across events is still a
// simultaneous loss); the host comes from its own Seed stream, never rank
// 0's host; operation-triggered ranks come from Seed+7919, all together,
// excluding the step and host victims and avoiding conflicts with their
// grids. It errors when Check does or the constraints cannot be met.
func NewPlan(cfg Config, events []Event) (*Plan, error) {
	if err := Check(events); err != nil {
		return nil, err
	}
	p := &Plan{victims: map[int]Event{}}
	var ops []Event
	grids := map[int]bool{}
	steps := newSampler(cfg, cfg.Seed)
	for _, e := range events {
		var err error
		switch {
		case e.Host:
			err = p.drawHost(cfg, e)
		case e.Step > 0:
			err = p.place(steps, []Event{e}, grids)
		default:
			ops = append(ops, e)
		}
		if err != nil {
			return nil, err
		}
	}
	if len(ops) == 0 {
		return p, nil
	}
	if cfg.GridOf != nil {
		for r := range p.victims {
			if g := cfg.GridOf(r); g >= 0 {
				grids[g] = true
			}
		}
	}
	if err := p.place(newSampler(cfg, cfg.Seed+opSeedOffset), ops, grids); err != nil {
		return nil, err
	}
	return p, nil
}

// String lists the victims in ascending rank order as "rank@trigger".
func (p *Plan) String() string {
	ranks := make([]int, 0, len(p.victims))
	for r := range p.victims {
		ranks = append(ranks, r)
	}
	slices.Sort(ranks)
	out := make([]string, len(ranks))
	for i, r := range ranks {
		out[i] = fmt.Sprintf("%d@%s", r, p.victims[r].trigger())
	}
	return strings.Join(out, " ")
}

// maxAttempts bounds the rejection sampling: a draw that hits a
// conflicting grid pair restarts its attempt, and this many failed attempts
// mean the constraints cannot be met.
const maxAttempts = 10000

// sampler draws victims from ranks 1..n-1 (rank 0 is protected) under the
// conflict constraint: the one rejection-sampling step of place.
type sampler struct {
	rng      *rand.Rand
	n        int
	gridOf   func(rank int) int
	conflict map[[2]int]bool
}

func newSampler(cfg Config, seed int64) *sampler {
	return &sampler{
		rng:      rand.New(rand.NewSource(seed)),
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

// place draws the victims of events in order, among the ranks no earlier
// draw took, as one attempt: a draw that hits a conflict with grids (or
// with this attempt's own victims) restarts the whole attempt. On success
// the victims join the plan and their grids join grids.
func (p *Plan) place(s *sampler, events []Event, grids map[int]bool) error {
	need, avail := 0, s.n-1-len(p.victims)
	for _, e := range events { // per event, so partial sums cannot overflow
		if need += e.Failures; need > avail {
			return fmt.Errorf("faultgen: %d failures with %d eligible ranks", need, max(avail, 0))
		}
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		victims := make(map[int]Event, need)
		taken := func(r int) bool {
			_, dup := victims[r]
			_, gone := p.victims[r]
			return dup || gone
		}
		hit := maps.Clone(grids)
		ok := true
		for _, e := range events {
			for k := 0; ok && k < e.Failures; k++ {
				var r int
				if r, ok = s.draw(taken, hit); ok {
					victims[r] = e
				}
			}
		}
		if ok {
			maps.Copy(p.victims, victims)
			maps.Copy(grids, hit)
			return nil
		}
	}
	return fmt.Errorf("faultgen: could not place %v under constraints", events)
}

// drawHost kills every rank of one host other than rank 0's, drawn
// uniformly from the hosts in ascending order.
func (p *Plan) drawHost(cfg Config, e Event) error {
	if cfg.HostOf == nil {
		return fmt.Errorf("faultgen: a host event needs Config.HostOf")
	}
	ranksByHost := map[int][]int{}
	for r := 0; r < cfg.NumRanks; r++ {
		h := cfg.HostOf(r)
		ranksByHost[h] = append(ranksByHost[h], r)
	}
	protected := cfg.HostOf(0)
	var candidates []int
	for h := range ranksByHost {
		if h != protected {
			candidates = append(candidates, h)
		}
	}
	if len(candidates) == 0 {
		return fmt.Errorf("faultgen: no host without rank 0 to fail")
	}
	slices.Sort(candidates) // deterministic order before drawing
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, r := range ranksByHost[candidates[rng.Intn(len(candidates))]] {
		p.victims[r] = e
	}
	return nil
}

// Trigger is one rank's part in a plan, resolved once when the rank takes
// its seat. The zero value, every non-victim's, never fires.
type Trigger struct {
	// Step is the solver step at which the rank dies (0 = none).
	Step int
	// Hook kills the rank at its counted MPI operation (nil = none). It
	// keeps its count across SetOpHook arm/disarm cycles, so the caller can
	// blank out program phases whose peers cannot tolerate a mid-operation
	// death without resetting the count. Install it only on proc.
	Hook mpi.OpHook
}

// Trigger resolves rank's fault; proc is the rank's own process.
func (p *Plan) Trigger(proc *mpi.Proc, rank int) Trigger {
	if p == nil {
		return Trigger{}
	}
	e, ok := p.victims[rank]
	switch {
	case !ok:
		return Trigger{}
	case e.Step > 0:
		return Trigger{Step: e.Step}
	}
	n := 0
	counting := !e.DuringRecovery
	return Trigger{Hook: func(op string) {
		if !counting {
			if op != mpi.OpShrink {
				return
			}
			counting = true // the shrink itself is operation 1
		}
		n++
		if n >= e.AfterOps {
			proc.Kill()
		}
	}}
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
