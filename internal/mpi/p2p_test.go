package mpi

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// runWorld runs entry on n ranks with the fail-fast watchdog: a hang panics
// with the per-rank blocked-op/mailbox dump after 30s of no transport
// progress instead of riding out the 10-minute package timeout.
func runWorld(t *testing.T, n int, entry func(p *Proc)) *Report {
	t.Helper()
	return runWorldWatched(t, n, Watchdog{Timeout: 30 * time.Second}, entry)
}

// runWorldWatched is runWorld with an explicit watchdog configuration.
func runWorldWatched(t *testing.T, n int, wd Watchdog, entry func(p *Proc)) *Report {
	t.Helper()
	rep, err := Run(Options{NProcs: n, Entry: entry, Watchdog: wd})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// must fails the whole test run from inside a rank goroutine.
func must(t testing.TB, err error) {
	if err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Options{NProcs: 0, Entry: func(*Proc) {}}); err == nil {
		t.Error("NProcs=0 accepted")
	}
	if _, err := Run(Options{NProcs: 2}); err == nil {
		t.Error("nil entry accepted")
	}
}

func TestSendRecvBasic(t *testing.T) {
	got := make([]float64, 3)
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		switch c.Rank() {
		case 0:
			must(t, Send(c, 1, 7, []float64{1.5, 2.5, 3.5}))
		case 1:
			data, st, err := Recv[float64](c, 0, 7)
			must(t, err)
			copy(got, data)
			if st.Source != 0 || st.Tag != 7 || st.Bytes != 24 {
				t.Errorf("status = %+v", st)
			}
		}
	})
	if got[0] != 1.5 || got[2] != 3.5 {
		t.Fatalf("received %v", got)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		if c.Rank() == 0 {
			buf := []int{42}
			must(t, Send(c, 1, 0, buf))
			buf[0] = -1 // mutate after send; receiver must still see 42
			must(t, c.Barrier())
		} else {
			must(t, c.Barrier())
			v, _, err := RecvOne[int](c, 0, 0)
			must(t, err)
			if v != 42 {
				t.Errorf("receiver saw mutated buffer: %d", v)
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		if c.Rank() == 0 {
			must(t, SendOne(c, 1, 5, "five"))
			must(t, SendOne(c, 1, 3, "three"))
		} else {
			// Receive out of send order by tag.
			v3, _, err := RecvOne[string](c, 0, 3)
			must(t, err)
			v5, _, err := RecvOne[string](c, 0, 5)
			must(t, err)
			if v3 != "three" || v5 != "five" {
				t.Errorf("tag matching wrong: %q %q", v3, v5)
			}
		}
	})
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				must(t, SendOne(c, 1, 4, i))
			}
		} else {
			for i := 0; i < 10; i++ {
				v, _, err := RecvOne[int](c, 0, 4)
				must(t, err)
				if v != i {
					t.Errorf("message %d arrived out of order: %d", i, v)
				}
			}
		}
	})
}

// TestNegativeUserTagRejected: every negative tag is reserved, -1 too —
// there is no wildcard tag. The peer's message is queued before the receives
// with tag -1, and must still be there after them.
func TestNegativeUserTagRejected(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		if c.Rank() == 1 {
			must(t, SendOne(c, 0, 0, 7))
			return
		}
		for _, tag := range []int{-5, -1} {
			if err := SendOne(c, 1, tag, 0); !errors.Is(err, ErrComm) {
				t.Errorf("Send with tag %d: %v", tag, err)
			}
		}
		spinUntil(t, "the peer's message to be queued", func() bool { return queued(c, 1, 0) })
		if _, _, err := Recv[int](c, 1, -5); !errors.Is(err, ErrComm) {
			t.Errorf("Recv with negative tag: %v", err)
		}
		if _, _, err := Recv[int](c, 1, -1); !errors.Is(err, ErrComm) {
			t.Errorf("Recv with tag -1: %v", err)
		}
		var buf [1]int
		if _, err := RecvInto(c, 1, -1, buf[:]); !errors.Is(err, ErrComm) {
			t.Errorf("RecvInto with tag -1: %v", err)
		}
		if v, _, err := RecvOne[int](c, 1, 0); err != nil || v != 7 {
			t.Errorf("the peer's message after the rejected receives = %d, %v", v, err)
		}
	})
}

func TestTypeMismatch(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		if c.Rank() == 0 {
			must(t, SendOne(c, 1, 0, 3.14))
		} else {
			_, _, err := Recv[int](c, 0, 0)
			if !errors.Is(err, ErrType) {
				t.Errorf("datatype mismatch not reported: %v", err)
			}
		}
	})
}

// TestInvalidRank: a rank outside the group is ErrComm, -1 too — there is no
// wildcard source. The peer's message is queued before the receives from -1,
// and must still be there after them.
func TestInvalidRank(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		if c.Rank() == 1 {
			must(t, SendOne(c, 0, 0, 7))
			return
		}
		if err := SendOne(c, 99, 0, 1); !errors.Is(err, ErrComm) {
			t.Errorf("Send to invalid rank: %v", err)
		}
		spinUntil(t, "the peer's message to be queued", func() bool { return queued(c, 1, 0) })
		if _, _, err := Recv[int](c, -7, 0); !errors.Is(err, ErrComm) {
			t.Errorf("Recv from invalid rank: %v", err)
		}
		if _, _, err := Recv[int](c, -1, 0); !errors.Is(err, ErrComm) {
			t.Errorf("Recv from rank -1: %v", err)
		}
		var buf [1]int
		if _, err := RecvInto(c, -1, 0, buf[:]); !errors.Is(err, ErrComm) {
			t.Errorf("RecvInto from rank -1: %v", err)
		}
		if _, _, err := RecvOne[int](c, -1, 0); !errors.Is(err, ErrComm) {
			t.Errorf("RecvOne from rank -1: %v", err)
		}
		if v, _, err := RecvOne[int](c, 1, 0); err != nil || v != 7 {
			t.Errorf("the peer's message after the rejected receives = %d, %v", v, err)
		}
	})
}

// TestVirtualClockMessageLatency checks that a receive synchronises the
// receiver's clock to send time plus alpha + bytes*beta.
func TestVirtualClockMessageLatency(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		m := p.Machine()
		c := p.World()
		if c.Rank() == 0 {
			p.Compute(1.0)
			must(t, Send(c, 1, 0, make([]float64, 1000)))
		} else {
			data, _, err := Recv[float64](c, 0, 0)
			must(t, err)
			if len(data) != 1000 {
				t.Errorf("len = %d", len(data))
			}
			want := 1.0 + m.SendOverhead + m.PtToPt(8000) + m.RecvOverhead
			if diff := p.Now() - want; diff < 0 || diff > 1e-12 {
				t.Errorf("receiver clock = %.9f, want %.9f", p.Now(), want)
			}
		}
	})
}

// TestVirtualClockReceiverLater checks the other ordering: if the receiver
// is already past the arrival time, its clock only pays the receive
// overhead.
func TestVirtualClockReceiverLater(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		if c.Rank() == 0 {
			must(t, SendOne(c, 1, 0, 1))
		} else {
			p.Compute(5.0)
			_, _, err := RecvOne[int](c, 0, 0)
			must(t, err)
			want := 5.0 + p.Machine().RecvOverhead
			if diff := p.Now() - want; diff < 0 || diff > 1e-12 {
				t.Errorf("receiver clock = %.9f, want %.9f", p.Now(), want)
			}
		}
	})
}

func TestReportMaxVirtualTime(t *testing.T) {
	rep := runWorld(t, 3, func(p *Proc) {
		p.Compute(float64(p.WorldRank()))
	})
	if rep.MaxVirtualTime != 2.0 {
		t.Fatalf("MaxVirtualTime = %g, want 2", rep.MaxVirtualTime)
	}
	if len(rep.Failed) != 0 || rep.Spawned != 0 {
		t.Fatalf("unexpected report %+v", rep)
	}
}

func TestComputeCells(t *testing.T) {
	runWorld(t, 1, func(p *Proc) {
		p.ComputeCells(1000, 2.0)
		want := 1000 * p.Machine().CellCost * 2.0
		if p.Now() != want {
			t.Errorf("ComputeCells clock = %g, want %g", p.Now(), want)
		}
	})
}

func TestSendRecvOnIntercommAddressesRemoteGroup(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		if pc := p.Parent(); pc != nil {
			v, _, err := RecvOne[int](pc, 0, 1)
			must(t, err)
			must(t, SendOne(pc, 0, 2, v+198))
			return
		}
		c := p.World()
		color := Undefined
		if c.Rank() == 0 {
			color = 0
		}
		sub, err := c.Split(color, 0)
		must(t, err)
		if sub == nil {
			return
		}
		inter, err := sub.SpawnMultiple(1, []string{""}, 0)
		must(t, err)
		// Rank 0 of the remote (child) group.
		must(t, SendOne(inter, 0, 1, 123))
		v, _, err := RecvOne[int](inter, 0, 2)
		must(t, err)
		if v != 321 {
			t.Errorf("parent received %d", v)
		}
	})
}

func TestSpawnedChildSeesParent(t *testing.T) {
	var childWorldSize, childRank int
	rep, err := Run(Options{NProcs: 1, Entry: func(p *Proc) {
		if pc := p.Parent(); pc != nil {
			childWorldSize = p.World().Size()
			childRank = pc.Rank()
			v, _, err := RecvOne[int](pc, 0, 1)
			must(t, err)
			must(t, SendOne(pc, 0, 2, v+198))
			return
		}
		c := p.World()
		inter, err := c.SpawnMultiple(1, []string{""}, 0)
		must(t, err)
		must(t, SendOne(inter, 0, 1, 123))
		v, _, err := RecvOne[int](inter, 0, 2)
		must(t, err)
		if v != 321 {
			t.Errorf("reply = %d", v)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spawned != 1 {
		t.Fatalf("Spawned = %d", rep.Spawned)
	}
	if childWorldSize != 1 || childRank != 0 {
		t.Fatalf("child cohort size %d rank %d", childWorldSize, childRank)
	}
}

// TestMergeTableReclaimed checks a merge instance's interned entry is
// deleted once every member of both groups has merged, so repeated repairs
// do not keep every merged communicator reachable for the life of the
// World.
func TestMergeTableReclaimed(t *testing.T) {
	const rounds = 3
	var world atomic.Pointer[World]
	_, err := Run(Options{NProcs: 4, Entry: func(p *Proc) {
		world.Store(p.st.w)
		if pc := p.Parent(); pc != nil {
			_, err := pc.IntercommMerge(true)
			must(t, err)
			return
		}
		c := p.World()
		for i := 0; i < rounds; i++ {
			inter, err := c.SpawnMultiple(1, []string{""}, 0)
			must(t, err)
			_, err = inter.IntercommMerge(false)
			must(t, err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(world.Load().mergeTable); n != 0 {
		t.Errorf("merge table holds %d entries after %d completed merges, want 0", n, rounds)
	}
}
