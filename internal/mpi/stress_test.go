package mpi

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentGroupTraffic stresses communicator isolation: the world is
// split into four groups, each runs its own mixed collective/point-to-point
// workload concurrently, with world-wide barriers interleaved. Any tag or
// rendezvous crosstalk between communicators corrupts the checked sums.
func TestConcurrentGroupTraffic(t *testing.T) {
	const nprocs = 16
	runWorld(t, nprocs, func(p *Proc) {
		world := p.World()
		color := world.Rank() % 4
		sub, err := world.Split(color, world.Rank())
		must(t, err)
		for round := 0; round < 15; round++ {
			// Group-local allreduce: check against the closed form.
			sum, err := Allreduce(sub, []int{sub.Rank() + round}, Sum[int])
			must(t, err)
			n := sub.Size()
			want := n*(n-1)/2 + n*round
			if sum[0] != want {
				t.Errorf("round %d color %d: allreduce %d, want %d", round, color, sum[0], want)
				return
			}
			// Group-local ring shift.
			right := (sub.Rank() + 1) % n
			left := (sub.Rank() - 1 + n) % n
			must(t, Send(sub, right, 7, []int{color*1000 + round}))
			v, _, err := Recv[int](sub, left, 7)
			must(t, err)
			if v[0] != color*1000+round {
				t.Errorf("round %d color %d: ring got %d", round, color, v[0])
				return
			}
			// Periodic world-wide synchronisation across the groups.
			if round%5 == 4 {
				must(t, world.Barrier())
			}
		}
	})
}

// TestManyCommunicators creates a deep cascade of split communicators and
// checks traffic on the leaves still routes correctly.
func TestManyCommunicators(t *testing.T) {
	runWorld(t, 8, func(p *Proc) {
		c := p.World()
		comms := []*Comm{c}
		for depth := 0; depth < 5; depth++ {
			leaf := comms[len(comms)-1]
			next, err := leaf.Split(0, leaf.Rank())
			must(t, err)
			comms = append(comms, next)
		}
		// Interleave sends on every level with distinct payloads; receive
		// in reverse order to force cross-communicator matching.
		if c.Rank() == 0 {
			for i, cm := range comms {
				must(t, SendOne(cm, 1, 3, i*11))
			}
		}
		if c.Rank() == 1 {
			for i := len(comms) - 1; i >= 0; i-- {
				v, _, err := RecvOne[int](comms[i], 0, 3)
				must(t, err)
				if v != i*11 {
					t.Errorf("level %d received %d, want %d", i, v, i*11)
					return
				}
			}
		}
	})
}

// TestRandomisedP2PSoak fires a randomized but reproducible message soak
// between all pairs and verifies every payload.
func TestRandomisedP2PSoak(t *testing.T) {
	const nprocs = 6
	const msgs = 40
	// Precompute a global schedule all ranks agree on.
	rng := rand.New(rand.NewSource(99))
	type msg struct{ from, to, tag, val int }
	var schedule []msg
	for i := 0; i < msgs; i++ {
		m := msg{from: rng.Intn(nprocs), tag: rng.Intn(5), val: rng.Int() % 100000}
		for {
			m.to = rng.Intn(nprocs)
			if m.to != m.from {
				break
			}
		}
		schedule = append(schedule, m)
	}
	var mu sync.Mutex
	received := 0
	runWorld(t, nprocs, func(p *Proc) {
		c := p.World()
		me := c.Rank()
		for _, m := range schedule {
			if m.from == me {
				must(t, SendOne(c, m.to, m.tag, m.val))
			}
			if m.to == me {
				v, _, err := RecvOne[int](c, m.from, m.tag)
				must(t, err)
				if v != m.val {
					t.Errorf("message %+v: got %d", m, v)
					return
				}
				mu.Lock()
				received++
				mu.Unlock()
			}
		}
		must(t, c.Barrier())
	})
	if received != msgs {
		t.Fatalf("received %d of %d messages", received, msgs)
	}
}
