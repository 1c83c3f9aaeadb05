package mpi

import (
	"math/rand"
	"sync"
	"testing"
)

// MaxOp is the MPI_MAX reduction operator.
func MaxOp[T Number](a, b T) T {
	if a > b {
		return a
	}
	return b
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	var mu sync.Mutex
	times := map[int]float64{}
	runWorld(t, 8, func(p *Proc) {
		c := p.World()
		p.Compute(float64(c.Rank())) // rank r is r seconds "behind"
		must(t, c.Barrier())
		mu.Lock()
		times[c.Rank()] = p.Now()
		mu.Unlock()
	})
	// Everyone must leave the barrier no earlier than the slowest entrant.
	for r, tm := range times {
		if tm < 7.0 {
			t.Errorf("rank %d left barrier at %g, before slowest entrant", r, tm)
		}
		if tm > 7.1 {
			t.Errorf("rank %d left barrier at %g, implausibly late", r, tm)
		}
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		var mu sync.Mutex
		got := map[int][]int{}
		runWorld(t, n, func(p *Proc) {
			c := p.World()
			var data []int
			if c.Rank() == 2%n {
				data = []int{10, 20, 30}
			}
			out, err := Bcast(c, 2%n, data)
			must(t, err)
			mu.Lock()
			got[c.Rank()] = out
			mu.Unlock()
		})
		for r := 0; r < n; r++ {
			if len(got[r]) != 3 || got[r][0] != 10 || got[r][2] != 30 {
				t.Fatalf("n=%d rank %d got %v", n, r, got[r])
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		var root []float64
		runWorld(t, n, func(p *Proc) {
			c := p.World()
			data := []float64{float64(c.Rank()), 1}
			out, err := Reduce(c, 0, data, Sum[float64])
			must(t, err)
			if c.Rank() == 0 {
				root = out
			}
		})
		wantSum := float64(n*(n-1)) / 2
		if root[0] != wantSum || root[1] != float64(n) {
			t.Fatalf("n=%d Reduce = %v, want [%g %d]", n, root, wantSum, n)
		}
	}
}

func TestReduceNonRootGetsNil(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		c := p.World()
		out, err := Reduce(c, 1, []int{c.Rank()}, Sum[int])
		must(t, err)
		if c.Rank() != 1 && out != nil {
			t.Errorf("rank %d got non-nil reduce result", c.Rank())
		}
		if c.Rank() == 1 && (len(out) != 1 || out[0] != 6) {
			t.Errorf("root got %v", out)
		}
	})
}

func TestAllreduceMinMax(t *testing.T) {
	runWorld(t, 6, func(p *Proc) {
		c := p.World()
		mn, err := Allreduce(c, []int{c.Rank() + 10}, MinOp[int])
		must(t, err)
		mx, err := Allreduce(c, []int{c.Rank() + 10}, MaxOp[int])
		must(t, err)
		if mn[0] != 10 || mx[0] != 15 {
			t.Errorf("rank %d: min %d max %d", c.Rank(), mn[0], mx[0])
		}
	})
}

func TestGather(t *testing.T) {
	runWorld(t, 5, func(p *Proc) {
		c := p.World()
		all, err := Gather(c, 0, []int{c.Rank() * c.Rank()})
		must(t, err)
		if c.Rank() == 0 {
			for r := 0; r < 5; r++ {
				if len(all[r]) != 1 || all[r][0] != r*r {
					t.Errorf("gather[%d] = %v", r, all[r])
				}
			}
		}
	})
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{1, 3, 4, 9} {
		runWorld(t, n, func(p *Proc) {
			c := p.World()
			all, err := Allgather(c, []int{c.Rank(), -c.Rank()})
			must(t, err)
			if len(all) != n {
				t.Errorf("n=%d: got %d pieces", n, len(all))
				return
			}
			for r := 0; r < n; r++ {
				if all[r][0] != r || all[r][1] != -r {
					t.Errorf("n=%d rank %d: piece %d = %v", n, c.Rank(), r, all[r])
				}
			}
		})
	}
}

func TestConsecutiveCollectivesDoNotCrossTalk(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		c := p.World()
		for i := 0; i < 20; i++ {
			out, err := Bcast(c, i%4, []int{i})
			must(t, err)
			if out[0] != i {
				t.Errorf("iteration %d: bcast returned %d", i, out[0])
				return
			}
			s, err := Allreduce(c, []int{i}, Sum[int])
			must(t, err)
			if s[0] != 4*i {
				t.Errorf("iteration %d: allreduce returned %d", i, s[0])
				return
			}
		}
	})
}

func TestSplitByParity(t *testing.T) {
	var mu sync.Mutex
	type info struct{ size, rank int }
	got := map[int]info{}
	runWorld(t, 7, func(p *Proc) {
		c := p.World()
		sub, err := c.Split(c.Rank()%2, c.Rank())
		must(t, err)
		mu.Lock()
		got[c.Rank()] = info{sub.Size(), sub.Rank()}
		mu.Unlock()
		// The new communicator must work for collectives.
		s, err := Allreduce(sub, []int{1}, Sum[int])
		must(t, err)
		if s[0] != sub.Size() {
			t.Errorf("rank %d: allreduce on split comm = %d, want %d", c.Rank(), s[0], sub.Size())
		}
	})
	for r := 0; r < 7; r++ {
		wantSize := 4 // evens: 0,2,4,6
		if r%2 == 1 {
			wantSize = 3
		}
		if got[r].size != wantSize {
			t.Errorf("rank %d split size = %d, want %d", r, got[r].size, wantSize)
		}
		if got[r].rank != r/2 {
			t.Errorf("rank %d split rank = %d, want %d", r, got[r].rank, r/2)
		}
	}
}

// TestSplitKeyReordering is the key-selection mechanism of the paper's
// Fig. 7: keys reorder ranks within the new communicator.
func TestSplitKeyReordering(t *testing.T) {
	var mu sync.Mutex
	got := map[int]int{}
	runWorld(t, 5, func(p *Proc) {
		c := p.World()
		// Reverse the communicator with descending keys.
		sub, err := c.Split(0, c.Size()-c.Rank())
		must(t, err)
		mu.Lock()
		got[c.Rank()] = sub.Rank()
		mu.Unlock()
	})
	for r := 0; r < 5; r++ {
		if got[r] != 4-r {
			t.Errorf("old rank %d -> new rank %d, want %d", r, got[r], 4-r)
		}
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		c := p.World()
		color := 0
		if c.Rank() == 3 {
			color = Undefined
		}
		sub, err := c.Split(color, 0)
		must(t, err)
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("undefined color returned a communicator")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("split size = %d, want 3", sub.Size())
		}
	})
}

// TestSplitGivesAFreshContext: traffic on a communicator Split returns is
// not visible on its parent, even between the same two ranks with the same
// tag.
func TestSplitGivesAFreshContext(t *testing.T) {
	runWorld(t, 3, func(p *Proc) {
		c := p.World()
		d, err := c.Split(0, c.Rank())
		must(t, err)
		if d.Size() != c.Size() || d.Rank() != c.Rank() {
			t.Errorf("split size/rank mismatch")
		}
		if c.Rank() == 0 {
			must(t, SendOne(d, 1, 9, 1))
			must(t, SendOne(c, 1, 9, 2))
		}
		if c.Rank() == 1 {
			v, _, err := RecvOne[int](c, 0, 9)
			must(t, err)
			if v != 2 {
				t.Errorf("parent comm received the split's traffic: %d", v)
			}
			v, _, err = RecvOne[int](d, 0, 9)
			must(t, err)
			if v != 1 {
				t.Errorf("split comm received %d", v)
			}
		}
	})
}

func TestCollectivesRejectIntercomm(t *testing.T) {
	runWorld(t, 1, func(p *Proc) {
		if pc := p.Parent(); pc != nil {
			// Child just participates in the merge check below via Agree.
			if _, err := Bcast(pc, 0, []int{1}); err == nil {
				t.Error("Bcast on intercomm succeeded at child")
			}
			_, err := pc.Agree(1)
			must(t, err)
			return
		}
		c := p.World()
		inter, err := c.SpawnMultiple(1, []string{""}, 0)
		must(t, err)
		if err := inter.Barrier(); err == nil {
			t.Error("Barrier on intercomm succeeded")
		}
		if _, err := Reduce(inter, 0, []int{1}, Sum[int]); err == nil {
			t.Error("Reduce on intercomm succeeded")
		}
		if _, err := inter.Split(0, 0); err == nil {
			t.Error("Split on intercomm succeeded")
		}
		_, err = inter.Agree(1)
		must(t, err)
	})
}

// TestCollectivesAgainstSerialReference: random inputs through Reduce and
// Allreduce must match a serial reference computation.
func TestCollectivesAgainstSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(7)
		m := 1 + rng.Intn(5)
		inputs := make([][]float64, n)
		for r := range inputs {
			inputs[r] = make([]float64, m)
			for i := range inputs[r] {
				inputs[r][i] = rng.NormFloat64()
			}
		}
		sum := make([]float64, m)
		for _, in := range inputs {
			for i, v := range in {
				sum[i] += v
			}
		}

		root := n - 1
		var mu sync.Mutex
		results := make(map[int][]float64)
		var reduced []float64
		runWorld(t, n, func(p *Proc) {
			c := p.World()
			all, err := Allreduce(c, inputs[c.Rank()], Sum[float64])
			must(t, err)
			red, err := Reduce(c, root, inputs[c.Rank()], Sum[float64])
			must(t, err)
			mu.Lock()
			results[c.Rank()] = all
			if c.Rank() == root {
				reduced = red
			}
			mu.Unlock()
		})
		for i := 0; i < m; i++ {
			for r := 0; r < n; r++ {
				if !almostEq(results[r][i], sum[i]) {
					t.Fatalf("trial %d rank %d: allreduce[%d] = %g, want %g", trial, r, i, results[r][i], sum[i])
				}
			}
			if !almostEq(reduced[i], sum[i]) {
				t.Fatalf("trial %d: reduce[%d] at root = %g, want %g", trial, i, reduced[i], sum[i])
			}
		}
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if b > m {
		m = b
	} else if -b > m {
		m = -b
	}
	return d <= 1e-12*(1+m)
}
