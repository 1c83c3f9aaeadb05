package mpi

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func TestAlltoall(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		runWorld(t, n, func(p *Proc) {
			c := p.World()
			parts := make([][]int, n)
			for r := range parts {
				// Distinct payload per (sender, receiver) pair, with
				// varying lengths to exercise the v-variant.
				parts[r] = make([]int, r+1)
				for i := range parts[r] {
					parts[r][i] = c.Rank()*1000 + r*10 + i
				}
			}
			got, err := Alltoall(c, parts)
			must(t, err)
			for r := 0; r < n; r++ {
				if len(got[r]) != c.Rank()+1 {
					t.Errorf("n=%d rank %d: piece from %d has length %d", n, c.Rank(), r, len(got[r]))
					continue
				}
				for i, v := range got[r] {
					if v != r*1000+c.Rank()*10+i {
						t.Errorf("n=%d rank %d: piece from %d = %v", n, c.Rank(), r, got[r])
						break
					}
				}
			}
		})
	}
}

func TestAlltoallWrongPartCount(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		if c.Rank() == 0 {
			if _, err := Alltoall(c, [][]int{{1}}); !errors.Is(err, ErrType) {
				t.Errorf("wrong part count: %v", err)
			}
		}
	})
}

func TestScanInclusive(t *testing.T) {
	for _, n := range []int{1, 4, 7} {
		runWorld(t, n, func(p *Proc) {
			c := p.World()
			out, err := Scan(c, []int{c.Rank() + 1, 1}, Sum[int])
			must(t, err)
			r := c.Rank()
			wantA := (r + 1) * (r + 2) / 2 // 1+2+...+(r+1)
			if out[0] != wantA || out[1] != r+1 {
				t.Errorf("n=%d rank %d: scan = %v, want [%d %d]", n, r, out, wantA, r+1)
			}
		})
	}
}

func TestExscanExclusive(t *testing.T) {
	runWorld(t, 5, func(p *Proc) {
		c := p.World()
		out, err := Exscan(c, []int{c.Rank() + 1}, Sum[int])
		must(t, err)
		r := c.Rank()
		if r == 0 {
			if out != nil {
				t.Errorf("rank 0 exscan = %v, want nil", out)
			}
			return
		}
		want := r * (r + 1) / 2 // 1+2+...+r
		if len(out) != 1 || out[0] != want {
			t.Errorf("rank %d: exscan = %v, want %d", r, out, want)
		}
	})
}

func TestReduceScatterBlock(t *testing.T) {
	const n = 4
	runWorld(t, n, func(p *Proc) {
		c := p.World()
		data := make([]float64, n*2)
		for i := range data {
			data[i] = float64(c.Rank()*100 + i)
		}
		out, err := ReduceScatterBlock(c, data, Sum[float64])
		must(t, err)
		// Elementwise sum over ranks: sum_r (100r + i) = 100*6 + 4i.
		r := c.Rank()
		for j := 0; j < 2; j++ {
			i := r*2 + j
			want := float64(600 + 4*i)
			if out[j] != want {
				t.Errorf("rank %d block[%d] = %g, want %g", r, j, out[j], want)
			}
		}
	})
}

func TestReduceScatterBlockIndivisible(t *testing.T) {
	runWorld(t, 3, func(p *Proc) {
		c := p.World()
		if c.Rank() == 0 {
			if _, err := ReduceScatterBlock(c, []int{1, 2}, Sum[int]); !errors.Is(err, ErrType) {
				t.Errorf("indivisible length: %v", err)
			}
		}
	})
}

func TestScanDetectsFailure(t *testing.T) {
	var mu sync.Mutex
	sawError := false
	runWorld(t, 5, func(p *Proc) {
		c := p.World()
		if c.Rank() == 2 {
			p.Kill()
		}
		if _, err := Scan(c, []int{1}, Sum[int]); err != nil {
			if !errors.Is(err, ErrProcFailed) {
				t.Errorf("scan error class: %v", err)
			}
			mu.Lock()
			sawError = true
			mu.Unlock()
		}
	})
	if !sawError {
		t.Fatal("no rank observed the failure in Scan")
	}
}

// TestScanLengthMismatchIsNotAFailure: a rank whose contribution has the
// wrong length leaves the prefix chain with ErrType, and the next rank learns
// of it at once as a mismatch, not as the death of a rank that is still
// alive. Rank 2 stays in the world until rank 3's message arrives, so a rank
// 3 that waited for rank 2 to exit would stall it.
func TestScanLengthMismatchIsNotAFailure(t *testing.T) {
	cases := []struct {
		name  string
		event bool
		scan  func(f *Fiber, c *Comm, data []int, k func(error))
	}{
		{"Scan", false, func(_ *Fiber, c *Comm, data []int, k func(error)) {
			_, err := Scan(c, data, Sum[int])
			k(err)
		}},
		{"Exscan", false, func(_ *Fiber, c *Comm, data []int, k func(error)) {
			_, err := Exscan(c, data, Sum[int])
			k(err)
		}},
		{"FiberScan", true, func(f *Fiber, c *Comm, data []int, k func(error)) {
			FiberScan(f, c, data, Sum[int], func(_ []int, err error) { k(err) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := make([]error, 4)
			runOnPath(t, Options{NProcs: 4, EventWorkers: 4, Watchdog: stallFails(t)}, tc.event, func(p *Proc, o pathOps) {
				c := p.World()
				me := c.Rank()
				data := []int{1}
				if me == 2 {
					data = []int{1, 2, 3}
				}
				tc.scan(o.f, c, data, func(err error) {
					errs[me] = err
					switch me {
					case 2:
						o.recv(c, 3, 9, func(err error) { must(t, err) })
					case 3:
						must(t, Send(c, 2, 9, []int{0}))
					}
				})
			})
			for r, err := range errs {
				switch {
				case r < 2 && err != nil:
					t.Errorf("rank %d: %v", r, err)
				case r >= 2 && (!errors.Is(err, ErrType) || errors.Is(err, ErrProcFailed)):
					t.Errorf("rank %d: error %v, want a mismatch (ErrType) that is not MPI_ERR_PROC_FAILED", r, err)
				}
			}
		})
	}
}

// TestCollectivesAgainstSerialReference: random inputs through
// Reduce/Allreduce/Scan must match a serial reference computation.
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
		// Serial references.
		sum := make([]float64, m)
		for _, in := range inputs {
			for i, v := range in {
				sum[i] += v
			}
		}
		prefixes := make([][]float64, n)
		acc := make([]float64, m)
		for r := 0; r < n; r++ {
			for i := range acc {
				acc[i] += inputs[r][i]
			}
			prefixes[r] = append([]float64(nil), acc...)
		}

		var mu sync.Mutex
		results := make(map[int][2][]float64)
		runWorld(t, n, func(p *Proc) {
			c := p.World()
			all, err := Allreduce(c, inputs[c.Rank()], Sum[float64])
			must(t, err)
			scan, err := Scan(c, inputs[c.Rank()], Sum[float64])
			must(t, err)
			mu.Lock()
			results[c.Rank()] = [2][]float64{all, scan}
			mu.Unlock()
		})
		for r := 0; r < n; r++ {
			got := results[r]
			for i := 0; i < m; i++ {
				if !almostEq(got[0][i], sum[i]) {
					t.Fatalf("trial %d rank %d: allreduce[%d] = %g, want %g", trial, r, i, got[0][i], sum[i])
				}
				if !almostEq(got[1][i], prefixes[r][i]) {
					t.Fatalf("trial %d rank %d: scan[%d] = %g, want %g", trial, r, i, got[1][i], prefixes[r][i])
				}
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
