package mpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ftsg/internal/metrics"
	"ftsg/internal/topo"
	"ftsg/internal/vtime"
)

// These tests pin the hierarchical collectives (coll_hier.go) against the
// flat reference algorithms: same results on every shape (the differential
// property test), the documented hop counts on the paper's cluster, and the
// same no-deadlock/error-surfacing behaviour with dead members.

// collShape is one cluster/communicator configuration for the differential
// test.
type collShape struct {
	n, hosts, slots, racks int
	machine                func() *vtime.Machine
	big                    bool // include a past-cutover Allreduce/Allgather
}

// runCollScript runs the full collective exercise on one world and returns
// the per-rank observation trace. Reductions use integers so the result is
// independent of fold association order; the trace therefore must be
// byte-identical between the hierarchical and flat algorithms.
func runCollScript(t *testing.T, s collShape, flat bool) map[int][]float64 {
	t.Helper()
	var mu sync.Mutex
	trace := make(map[int][]float64)
	cl := topo.NewRacked(s.hosts, s.slots, s.racks)
	_, err := Run(Options{
		NProcs:          s.n,
		Machine:         s.machine(),
		Cluster:         cl,
		FlatCollectives: flat,
		Entry: func(p *Proc) {
			c := p.World()
			n, me := c.Size(), c.Rank()
			var obs []float64
			last := p.Now()
			rec := func(vals ...float64) {
				now := p.Now()
				if now < last {
					t.Errorf("rank %d: virtual clock went backwards: %g -> %g", me, last, now)
				}
				last = now
				obs = append(obs, vals...)
			}

			must(t, c.Barrier())
			rec()

			// Bcast from a mid-communicator root.
			r0 := (n / 3) % n
			var bd []int64
			if me == r0 {
				bd = []int64{101, 202, 303}
			}
			bout, err := Bcast(c, r0, bd)
			must(t, err)
			rec(float64(len(bout)), float64(bout[0]), float64(bout[2]))

			// Reduce (Sum and MaxOp) to the last rank.
			r1 := n - 1
			rs, err := Reduce(c, r1, []int64{int64(me), 7, int64(me * me)}, Sum[int64])
			must(t, err)
			if me == r1 {
				rec(float64(rs[0]), float64(rs[1]), float64(rs[2]))
			} else if rs != nil {
				t.Errorf("rank %d: non-root Reduce result not nil", me)
			}
			rm, err := Reduce(c, 0, []int64{int64((me*13 + 5) % n)}, MaxOp[int64])
			must(t, err)
			if me == 0 {
				rec(float64(rm[0]))
			}
			ss, err := Reduce(c, r0, []int64{int64(me + 1)}, Sum[int64])
			must(t, err)
			if me == r0 {
				rec(float64(ss[0]))
			}

			// Small Allreduce.
			ar, err := Allreduce(c, []int64{int64(me), 1, int64(2 * me)}, Sum[int64])
			must(t, err)
			rec(float64(ar[0]), float64(ar[1]), float64(ar[2]))

			if s.big {
				// Past-cutover Allreduce: exercises the leader ring.
				m := collRingCutover/8 + 17
				big := make([]int64, m)
				for k := range big {
					big[k] = int64(me + k)
				}
				abig, err := Allreduce(c, big, Sum[int64])
				must(t, err)
				rec(float64(abig[0]), float64(abig[m/2]), float64(abig[m-1]))
			}

			// Gather with unequal piece lengths.
			piece := make([]float64, me%3+1)
			for k := range piece {
				piece[k] = float64(me) + float64(k)/8
			}
			gout, err := Gather(c, r1, piece)
			must(t, err)
			if me == r1 {
				for r, pr := range gout {
					rec(float64(len(pr)))
					rec(pr...)
					ReleaseBuf(pr) // pieces must be individually releasable
					_ = r
				}
			}

			// Allgather of equal pieces.
			ag, err := Allgather(c, []float64{float64(me), float64(me) * 0.5, -1})
			must(t, err)
			for _, pr := range ag {
				rec(pr...)
			}

			var bigAg [][]float64
			if s.big {
				// Past-cutover Allgather: a large payload still takes the leader tree.
				m := collRingCutover/8/n + 3
				pieceB := make([]float64, m)
				for k := range pieceB {
					pieceB[k] = float64(me*m + k)
				}
				bigAg, err = Allgather(c, pieceB)
				must(t, err)
				for _, pr := range bigAg {
					rec(pr[0], pr[m-1])
				}
			}

			must(t, c.Barrier())
			rec(p.Now() * 0) // trailing sentinel keeps the traces aligned

			mu.Lock()
			trace[me] = obs
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("shape %+v flat=%v: %v", s, flat, err)
	}
	return trace
}

// TestHierDifferential runs every collective on a spread of cluster shapes
// — single-host degenerate, non-power-of-two sizes, partially filled last
// hosts, multiple racks, randomized shapes — once with the hierarchical
// algorithms and once with FlatCollectives, and demands identical per-rank
// results.
func TestHierDifferential(t *testing.T) {
	gen := func() *vtime.Machine { return vtime.Generic() }
	shapes := []collShape{
		{n: 5, hosts: 1, slots: 8, racks: 1, machine: gen},             // single host: hierarchy disabled
		{n: 13, hosts: 4, slots: 4, racks: 1, machine: gen},            // ragged last host
		{n: 16, hosts: 4, slots: 4, racks: 2, machine: gen},            // two racks
		{n: 24, hosts: 5, slots: 5, racks: 3, machine: gen, big: true}, // non-power-of-two everywhere
		{n: 9, hosts: 3, slots: 3, racks: 1, machine: gen},             // tiny nodes
		{n: 24, hosts: 2, slots: 12, racks: 1, machine: vtime.OPL},     // two OPL nodes
		{n: 40, hosts: 4, slots: 12, racks: 2, machine: vtime.Raijin, big: true},
	}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 6; i++ {
		slots := rng.Intn(9) + 1
		n := rng.Intn(40) + 2
		hosts := (n + slots - 1) / slots
		racks := rng.Intn(hosts) + 1
		shapes = append(shapes, collShape{n: n, hosts: hosts, slots: slots, racks: racks, machine: gen})
	}
	for _, s := range shapes {
		s := s
		t.Run(fmt.Sprintf("n%d_h%d_s%d_r%d", s.n, s.hosts, s.slots, s.racks), func(t *testing.T) {
			hier := runCollScript(t, s, false)
			flat := runCollScript(t, s, true)
			if t.Failed() {
				return
			}
			for r := 0; r < s.n; r++ {
				if !reflect.DeepEqual(hier[r], flat[r]) {
					t.Errorf("rank %d: hierarchical and flat traces differ:\n hier: %v\n flat: %v", r, hier[r], flat[r])
				}
			}
		})
	}
}

// TestHierHopCountsPinned pins the message-count split of the hierarchical
// Barrier and small Allreduce on the paper's OPL cluster at n=64 (six
// 12-slot hosts: 12+12+12+12+12+4).
//
//	Barrier:    fan-in 58 + fan-out 58 intra; 3 dissemination rounds over
//	            6 leaders = 18 inter
//	Allreduce:  reduce 58 + bcast 58 intra; 5 + 5 tree edges over 6
//	            leaders = 10 inter
func TestHierHopCountsPinned(t *testing.T) {
	reg := metrics.New()
	_, err := Run(Options{NProcs: 64, Machine: vtime.OPL(), Metrics: reg, Entry: func(p *Proc) {
		c := p.World()
		must(t, c.Barrier())
		out, err := Allreduce(c, []int64{int64(c.Rank())}, Sum[int64])
		must(t, err)
		if out[0] != 64*63/2 {
			t.Errorf("rank %d: allreduce = %d", c.Rank(), out[0])
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]int64{
		"coll.barrier.intra":   116,
		"coll.barrier.inter":   18,
		"coll.barrier.xrack":   0,
		"coll.allreduce.intra": 116,
		"coll.allreduce.inter": 10,
		"coll.allreduce.xrack": 0,
	}
	for name, want := range pins {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// The global tier split must cover exactly the collective traffic.
	intra := reg.Counter("mpi.sent.intra").Value()
	inter := reg.Counter("mpi.sent.inter").Value()
	xrack := reg.Counter("mpi.sent.xrack").Value()
	total := reg.Counter("mpi.sent.messages").Value()
	if intra+inter+xrack != total {
		t.Errorf("tier split %d+%d+%d != total %d", intra, inter, xrack, total)
	}
	if intra != 232 || inter != 28 || xrack != 0 {
		t.Errorf("global split = %d/%d/%d, want 232/28/0", intra, inter, xrack)
	}
}

// TestHierXRackHops checks that cross-rack traffic is classified as such:
// 4 hosts in 2 racks, one rank per host, a single Bcast from rank 0. The
// binomial over 4 leaders sends 0->2 (cross-rack), 0->1 (intra-rack),
// 2->3 (intra-rack).
func TestHierXRackHops(t *testing.T) {
	reg := metrics.New()
	cl := topo.NewRacked(4, 1, 2)
	_, err := Run(Options{NProcs: 4, Machine: vtime.OPL(), Cluster: cl, Metrics: reg, Entry: func(p *Proc) {
		c := p.World()
		var data []int
		if c.Rank() == 0 {
			data = []int{42}
		}
		out, err := Bcast(c, 0, data)
		must(t, err)
		if out[0] != 42 {
			t.Errorf("rank %d: bcast got %v", c.Rank(), out)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("coll.bcast.xrack").Value(); got != 1 {
		t.Errorf("coll.bcast.xrack = %d, want 1", got)
	}
	if got := reg.Counter("coll.bcast.inter").Value(); got != 2 {
		t.Errorf("coll.bcast.inter = %d, want 2", got)
	}
	if got := reg.Counter("coll.bcast.intra").Value(); got != 0 {
		t.Errorf("coll.bcast.intra = %d, want 0", got)
	}
}

// TestCommTopoBuiltOnce lines every rank of a multi-host world up behind a
// start barrier and releases them together into the first collective of
// their fresh world communicator: the node decomposition must be built
// exactly once, not once per rank that found the cache empty. Each world
// gives the herd one chance, so the test runs several.
func TestCommTopoBuiltOnce(t *testing.T) {
	const n, worlds = 4096, 8
	for i := 0; i < worlds; i++ {
		builds, stop := countTopoBuilds()
		var arrived sync.WaitGroup
		arrived.Add(n)
		start := make(chan struct{})
		go func() {
			arrived.Wait()
			close(start)
		}()
		_, err := Run(Options{NProcs: n, Machine: vtime.OPL(), Entry: func(p *Proc) {
			arrived.Done()
			<-start
			must(t, p.World().Barrier())
		}})
		stop()
		if err != nil {
			t.Fatal(err)
		}
		if got := builds.Load(); got != 1 {
			t.Errorf("world %d: communicator's topology built %d times, want 1", i, got)
		}
	}
}

// TestTieredCostOrdering checks the cost model actually differentiates the
// tiers: the same Allreduce is strictly cheaper in virtual time on one
// OPL host than split across six, and strictly cheaper across six hosts in
// one rack than across six racks.
func TestTieredCostOrdering(t *testing.T) {
	run := func(hosts, slots, racks int) float64 {
		rep, err := Run(Options{
			NProcs:  12,
			Machine: vtime.OPL(),
			Cluster: topo.NewRacked(hosts, slots, racks),
			Entry: func(p *Proc) {
				buf := make([]float64, 512)
				for k := 0; k < 4; k++ {
					if _, err := Allreduce(p.World(), buf, Sum[float64]); err != nil {
						t.Error(err)
						return
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxVirtualTime
	}
	oneHost := run(1, 12, 1)
	oneRack := run(6, 2, 1)
	sixRacks := run(6, 2, 6)
	if !(oneHost < oneRack) {
		t.Errorf("single-host allreduce (%g) not cheaper than six-host (%g)", oneHost, oneRack)
	}
	if !(oneRack < sixRacks) {
		t.Errorf("one-rack allreduce (%g) not cheaper than six-rack (%g)", oneRack, sixRacks)
	}
}

// Hierarchical dead-member coverage: the same harness as
// coll_failure_test.go, but on a 3-host cluster (Generic, 8 slots: 8+8+4)
// so the two-level algorithms run, with victims chosen to hit the
// interesting roles — node leader, non-leader member, and rank 0.
func TestHierCollectivesWithDeadMember(t *testing.T) {
	const n = 20
	victims := []int{0, 8, 10, 19} // leader of node 0/1, a non-leader, the tail
	ops := []struct {
		name string
		body func(p *Proc, c *Comm) error
	}{
		{"barrier", func(p *Proc, c *Comm) error { return c.Barrier() }},
		{"bcast", func(p *Proc, c *Comm) error {
			var d []int
			if c.Rank() == 1 {
				d = []int{9}
			}
			_, err := Bcast(c, 1, d)
			return err
		}},
		{"reduce", func(p *Proc, c *Comm) error {
			_, err := Reduce(c, 2, []int{c.Rank()}, Sum[int])
			return err
		}},
		{"allreduce", func(p *Proc, c *Comm) error {
			_, err := Allreduce(c, []int{1}, Sum[int])
			return err
		}},
		{"allreduce-ring", func(p *Proc, c *Comm) error {
			big := make([]int64, collRingCutover/8+1)
			_, err := Allreduce(c, big, Sum[int64])
			return err
		}},
		{"gather", func(p *Proc, c *Comm) error {
			_, err := Gather(c, 0, []int{c.Rank(), c.Rank()})
			return err
		}},
		{"allgather", func(p *Proc, c *Comm) error {
			_, err := Allgather(c, []int{c.Rank()})
			return err
		}},
	}
	for _, op := range ops {
		for _, v := range victims {
			t.Run(fmt.Sprintf("%s/victim%d", op.name, v), func(t *testing.T) {
				collectiveFailureHarness(t, n, v, op.body)
			})
		}
	}
}

// TestWhichAllreduceTheRingSizeTakes pins the tree-or-ring decision for a
// 40 KiB float64 Allreduce over the world communicator on the paper's
// cluster (12 slots per host), read from the world's cached node
// decomposition: past collRingCutover the ring runs only while each of the
// L leaders' chunks keeps collRingChunkFloor bytes, which 40 KiB does up to
// 40 leaders. So a 1024- or 4096-rank world times the tree, not the ring.
func TestWhichAllreduceTheRingSizeTakes(t *testing.T) {
	const bytes = 5120 * 8
	for _, tc := range []struct {
		ranks, leaders int
		ring           bool
	}{
		{64, 6, true}, {256, 22, true}, {480, 40, true},
		{492, 41, false}, {1024, 86, false}, {4096, 342, false},
	} {
		var leaders int
		_, err := Run(Options{NProcs: tc.ranks, Machine: vtime.OPL(), Entry: func(p *Proc) {
			if p.WorldRank() == 0 {
				leaders = len(p.World().hierTopo().leaders)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if leaders != tc.leaders {
			t.Errorf("%d ranks: %d node leaders, want %d", tc.ranks, leaders, tc.leaders)
		}
		if got := useRing(bytes, leaders); got != tc.ring {
			t.Errorf("%d ranks (%d leaders): 40 KiB Allreduce takes the ring = %v, want %v", tc.ranks, leaders, got, tc.ring)
		}
	}
}
