package mpi

import (
	"errors"
	"sync"
	"testing"
)

// These tests pin down the failure behaviour of every collective: with a
// dead member no surviving rank may deadlock, and the paper's detection
// idiom — the collective followed by a barrier — must surface
// MPI_ERR_PROC_FAILED at some rank. (The collective alone may legally
// complete everywhere: an eager send to a victim that dies after delivery
// succeeds, and a leaf victim is depended on by nobody. That non-uniformity
// is exactly why the paper follows up with a barrier, Section II-B.)

func collectiveFailureHarness(t *testing.T, n, victim int, body func(p *Proc, c *Comm) error) {
	t.Helper()
	var mu sync.Mutex
	errs := 0
	runWorld(t, n, func(p *Proc) {
		c := p.World()
		if c.Rank() == victim {
			p.Kill()
		}
		err := body(p, c)
		if err == nil {
			err = c.Barrier() // the paper's detection step
		}
		if err != nil {
			if !errors.Is(err, ErrProcFailed) {
				t.Errorf("rank %d: wrong error class: %v", c.Rank(), err)
			}
			mu.Lock()
			errs++
			mu.Unlock()
		}
	})
	if errs == 0 {
		t.Fatal("no surviving rank observed the failure")
	}
}

func TestBcastWithDeadMember(t *testing.T) {
	collectiveFailureHarness(t, 8, 5, func(p *Proc, c *Comm) error {
		_, err := Bcast(c, 0, []int{1, 2, 3})
		return err
	})
}

func TestBcastWithDeadRoot(t *testing.T) {
	collectiveFailureHarness(t, 8, 0, func(p *Proc, c *Comm) error {
		var data []int
		if c.Rank() == 0 {
			data = []int{1}
		}
		_, err := Bcast(c, 0, data)
		return err
	})
}

func TestReduceWithDeadMember(t *testing.T) {
	collectiveFailureHarness(t, 8, 3, func(p *Proc, c *Comm) error {
		_, err := Reduce(c, 0, []float64{1}, Sum[float64])
		return err
	})
}

func TestAllreduceWithDeadMember(t *testing.T) {
	collectiveFailureHarness(t, 8, 6, func(p *Proc, c *Comm) error {
		_, err := Allreduce(c, []float64{1}, Sum[float64])
		return err
	})
}

func TestGatherWithDeadMember(t *testing.T) {
	collectiveFailureHarness(t, 6, 4, func(p *Proc, c *Comm) error {
		_, err := Gather(c, 0, []int{c.Rank()})
		return err
	})
}

func TestAllgatherWithDeadMember(t *testing.T) {
	collectiveFailureHarness(t, 6, 1, func(p *Proc, c *Comm) error {
		_, err := Allgather(c, []int{c.Rank()})
		return err
	})
}

// TestSplitWithDeadMember: communicator management fails cleanly on a
// broken communicator (failOnDeath rendezvous semantics).
func TestSplitWithDeadMember(t *testing.T) {
	collectiveFailureHarness(t, 5, 3, func(p *Proc, c *Comm) error {
		sub, err := c.Split(0, c.Rank())
		if err == nil && sub == nil {
			t.Errorf("rank %d: nil comm without error", c.Rank())
		}
		return err
	})
}

// TestReduceLengthMismatchIsNotAFailure: a rank whose contribution has the
// wrong length makes its parent in the reduction tree leave with ErrType, and
// the parent's own parent learns of it at once as a mismatch, not as the death
// of a rank that is still alive. On four ranks rooted at 0 (flat binomial
// tree), rank 3 sends its odd buffer to rank 2, and rank 0 awaits rank 2.
// Rank 2 stays in the world until rank 0's message arrives, so a rank 0 that
// waited for rank 2 to exit would stall it.
func TestReduceLengthMismatchIsNotAFailure(t *testing.T) {
	cases := []struct {
		name   string
		event  bool
		reduce func(f *Fiber, c *Comm, data []int, k func(error))
	}{
		{"Reduce", false, func(_ *Fiber, c *Comm, data []int, k func(error)) {
			_, err := Reduce(c, 0, data, Sum[int])
			k(err)
		}},
		{"FiberReduce", true, func(f *Fiber, c *Comm, data []int, k func(error)) {
			FiberReduce(f, c, 0, data, Sum[int], func(_ []int, err error) { k(err) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := make([]error, 4)
			opts := Options{NProcs: 4, EventWorkers: 4, FlatCollectives: true, Watchdog: stallFails()}
			runOnPath(t, opts, tc.event, func(p *Proc, o pathOps) {
				c := p.World()
				me := c.Rank()
				data := []int{1}
				if me == 3 {
					data = []int{1, 2, 3}
				}
				tc.reduce(o.f, c, data, func(err error) {
					errs[me] = err
					switch me {
					case 2:
						o.recv(c, 0, 9, func(err error) { must(t, err) })
					case 0:
						must(t, Send(c, 2, 9, []int{0}))
					}
				})
			})
			for r, err := range errs {
				switch {
				case r%2 == 1 && err != nil:
					t.Errorf("rank %d: %v", r, err)
				case r%2 == 0 && (!errors.Is(err, ErrType) || errors.Is(err, ErrProcFailed)):
					t.Errorf("rank %d: error %v, want a mismatch (ErrType) that is not MPI_ERR_PROC_FAILED", r, err)
				}
			}
		})
	}
}
