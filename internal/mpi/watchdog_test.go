package mpi

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ftsg/internal/vtime"
)

// TestWatchdogDetectsDeadlock drives a textbook receive-receive deadlock and
// checks that the watchdog aborts the job: the blocked receives fail, and
// Run returns a *StallError whose dump shows both ranks' blocked operation.
func TestWatchdogDetectsDeadlock(t *testing.T) {
	_, err := Run(Options{
		NProcs:   2,
		Machine:  vtime.OPL(),
		Watchdog: Watchdog{Timeout: 50 * time.Millisecond},
		Entry: func(p *Proc) {
			c := p.World()
			// Both ranks receive from each other; nobody sends first.
			other := 1 - c.Rank()
			_, _, err := Recv[int](c, other, 7)
			if !errors.Is(err, ErrProcFailed) {
				t.Errorf("rank %d: expected ErrProcFailed after watchdog abort, got %v", c.Rank(), err)
			}
		},
	})
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("Run returned %v, want a *StallError", err)
	}
	for _, want := range []string{"no transport progress", "recv comm=0", "tag=7", "wakes abort: "} {
		if !strings.Contains(stall.Dump, want) {
			t.Errorf("dump missing %q:\n%s", want, stall.Dump)
		}
	}
}

// TestAbortReturnsFirstCause has one rank abort while its peers block in a
// receive and a barrier: the blocked receive fails, every process unwinds at
// its next operation (the barrier ranks possibly inside the barrier), and Run
// returns the first abort's cause — a second rank's later Abort does not
// replace it.
func TestAbortReturnsFirstCause(t *testing.T) {
	for _, event := range []bool{false, true} {
		first := errors.New("rank 1 gives up")
		opts := Options{NProcs: 4, EventWorkers: 4}
		prog := func(p *Proc, o pathOps) {
			c := p.World()
			switch c.Rank() {
			case 1:
				// Abort only once every peer is blocked, so the abort is
				// what ends their operations.
				spinUntil(t, "the peers to block", func() bool { return receivers(p.st.w) == 3 })
				p.Abort(first)
			case 2:
				o.recv(c, 1, 5, func(err error) {
					if !errors.Is(err, ErrProcFailed) {
						t.Errorf("rank 2: receive got %v, want ErrProcFailed", err)
					}
					p.Abort(errors.New("rank 2 gives up too"))
				})
			default:
				o.barrier(c, func(err error) {
					if !errors.Is(err, ErrProcFailed) {
						t.Errorf("rank %d: barrier got %v, want ErrProcFailed", c.Rank(), err)
					}
					o.barrier(c, func(error) { t.Errorf("rank %d ran an operation after the abort", c.Rank()) })
				})
			}
		}
		if event {
			opts.EventEntry = func(p *Proc, f *Fiber) { prog(p, pathOps{f}) }
		} else {
			opts.Entry = func(p *Proc) { prog(p, pathOps{}) }
		}
		if rep, err := Run(opts); err != first || rep != nil {
			t.Errorf("event=%v: Run = %v, %v; want nil and the first abort's cause", event, rep, err)
		}
	}
}

// receivers counts the processes that have published a receive.
func receivers(w *World) int {
	n := 0
	for _, q := range w.snapshot() {
		if receiving(q) {
			n++
		}
	}
	return n
}

// TestWatchdogQuietOnCleanRun checks the watchdog never fires on a healthy
// run: Run returns no error.
func TestWatchdogQuietOnCleanRun(t *testing.T) {
	runWorldWatched(t, 8, Watchdog{Timeout: time.Minute},
		func(p *Proc) {
			c := p.World()
			sum, err := Allreduce(c, []int{c.Rank()}, Sum[int])
			must(t, err)
			if sum[0] != 28 {
				t.Errorf("allreduce got %d", sum[0])
			}
		})
}

// TestOpHookObservesProgramOrder checks the hook sees this process's
// operations in program order, including the ops inside a collective.
func TestOpHookObservesProgramOrder(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		var ops []string
		p.SetOpHook(func(op string) { ops = append(ops, op) })
		if c.Rank() == 0 {
			must(t, SendOne(c, 1, 3, 42))
			_, _, err := RecvOne[int](c, 1, 4)
			must(t, err)
		} else {
			v, _, err := RecvOne[int](c, 0, 3)
			must(t, err)
			must(t, SendOne(c, 0, 4, v))
		}
		must(t, c.Barrier())
		p.SetOpHook(nil)
		if len(ops) < 3 {
			t.Errorf("rank %d: hook saw too few ops: %v", c.Rank(), ops)
		}
		want := []string{OpSend, OpRecv}
		if c.Rank() == 1 {
			want = []string{OpRecv, OpSend}
		}
		for i, w := range want {
			if ops[i] != w {
				t.Errorf("rank %d: op %d = %q, want %q (all: %v)", c.Rank(), i, ops[i], w, ops)
			}
		}
	})
}

// TestOpHookKillInsideBarrier kills a rank at its first operation inside a
// barrier: the survivors must observe MPI_ERR_PROC_FAILED, not hang, and the
// outcome must be identical on every run (the hook follows program order).
func TestOpHookKillInsideBarrier(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		var failedAt []int
		rep := runWorld(t, 8, func(p *Proc) {
			c := p.World()
			if c.Rank() == 5 {
				n := 0
				p.SetOpHook(func(op string) {
					n++
					if n == 2 { // die mid-barrier, after the first dissemination round
						p.Kill()
					}
				})
			}
			err := c.Barrier()
			if c.Rank() == 5 {
				t.Error("rank 5 should have died inside the barrier")
				return
			}
			if err == nil {
				err = c.Barrier() // detection: the follow-up barrier must see it
			}
			_ = err
		})
		if len(rep.Failed) != 1 || rep.Failed[0] != 5 {
			t.Fatalf("trial %d: failed = %v, want [5]", trial, rep.Failed)
		}
		failedAt = rep.Failed
		_ = failedAt
	}
}

// TestOpHookKillInsideShrink kills a rank exactly at its shrink call — a
// failure during recovery itself. The survivors' shrink must still complete
// (ignoreDeath) and exclude the victim.
func TestOpHookKillInsideShrink(t *testing.T) {
	rep := runWorld(t, 6, func(p *Proc) {
		c := p.World()
		if c.Rank() == 2 {
			p.Kill()
		}
		_ = c.Barrier() // detect
		if c.Rank() == 4 {
			p.SetOpHook(func(op string) {
				if op == OpShrink {
					p.Kill()
				}
			})
		}
		shrunk, err := c.Shrink()
		must(t, err)
		if shrunk.Size() != 4 {
			t.Errorf("rank %d: shrunk size %d, want 4", c.Rank(), shrunk.Size())
		}
	})
	if len(rep.Failed) != 2 {
		t.Fatalf("failed = %v, want two victims", rep.Failed)
	}
}
