package mpi

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// Tests of RecvInto, its two delivery routes (queued in the mailbox, or
// copied by the sender straight into the parked receiver's buffer) and the
// open-addressed match table under the mailbox.

// parkedInto reports whether the process is parked in RecvInto with its
// buffer published.
func parkedInto(st *procState) bool { return st.intoSet.Load() }

// parkedRecv reports whether the process has registered a blocked receive.
func parkedRecv(st *procState) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.waitSh != nil
}

// queued reports whether a message a receive of (src, tag) on c would match
// waits in the caller's mailbox.
func queued(c *Comm, src, tag int) bool {
	st := c.p.st
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.mb.peek(c.sh.id, src, tag) != nil
}

// queueOnly sends data to dest the way sendEnv does once its lock-free peek
// has read "no buffer published": straight to enqueue, whatever the receiver
// has published since. With the receiver already parked this is exactly the
// stale-peek interleaving.
func queueOnly[T any](c *Comm, dest, tag int, data []T) {
	st := c.p.st
	env := getEnv()
	env.commID, env.src, env.tag = c.sh.id, c.rank, tag
	env.bytes = len(data) * elemSize[T]()
	env.arrival = st.clock.Now()
	copyIn(env, st, data)
	st.w.proc(c.sh.members[dest]).enqueue(env)
}

// TestRecvIntoFIFOAcrossRoutes sends 10 000 sequence-numbered messages on each
// of two signatures, every one by a randomly chosen route — the ordinary Send
// (direct delivery when the receiver is parked, the queue otherwise), the
// queue forced while the receiver is parked with its buffer published (the
// stale peek: the sender decided before the receiver parked), or the queue
// forced at once — and demands per-signature order at the receiver. One
// processor makes the dangerous interleaving certain rather than likely: the
// sender queues message i past the published buffer and sends i+1 before the
// woken receiver has run, so without the retraction in enqueue i+1 is copied
// into the buffer and overtakes i.
func TestRecvIntoFIFOAcrossRoutes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 10000
	tags := [2]int{1, 2}
	var directs, parks uint64
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		if c.Rank() == 1 {
			var buf [1]int
			for i := 0; i < n; i++ {
				for _, tag := range tags {
					stt, err := RecvInto(c, 0, tag, buf[:])
					if err != nil || buf[0] != i || stt.Tag != tag || stt.Source != 0 || stt.Bytes != elemSize[int]() {
						t.Errorf("tag %d: message %d arrived as %d (status %+v, err %v)", tag, i, buf[0], stt, err)
						return
					}
				}
			}
			st := p.st
			st.mu.Lock()
			directs, parks = st.directs, st.parks
			st.mu.Unlock()
			return
		}
		dst := p.st.w.proc(1)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < n && !t.Failed(); i++ {
			for _, tag := range tags {
				switch rng.Intn(4) {
				case 0:
					for k := 0; k < 100 && !parkedInto(dst); k++ {
						runtime.Gosched()
					}
					queueOnly(c, 1, tag, []int{i})
				case 1:
					queueOnly(c, 1, tag, []int{i})
				case 2:
					for k := 0; k < 100 && !parkedInto(dst); k++ {
						runtime.Gosched()
					}
					must(t, Send(c, 1, tag, []int{i}))
				default:
					must(t, Send(c, 1, tag, []int{i}))
				}
			}
		}
	})
	t.Logf("receiver: %d parks, %d direct deliveries of %d messages", parks, directs, 2*n)
	if directs == 0 || directs == 2*n {
		t.Errorf("%d of %d messages delivered directly: the test must exercise both routes", directs, 2*n)
	}
}

// bothRoutes runs prog on two ranks twice: with the message queued before the
// receiver asks for it, and with the receiver parked in RecvInto before the
// sender sends. send runs on rank 0 and recv on rank 1.
func bothRoutes(t *testing.T, send, recv func(c *Comm, route string)) {
	t.Helper()
	for _, route := range []string{"queued", "parked"} {
		runWorld(t, 2, func(p *Proc) {
			c := p.World()
			if c.Rank() == 0 {
				if route == "parked" {
					spinUntil(t, "the receiver to park", func() bool { return parkedRecv(p.st.w.proc(1)) })
				}
				send(c, route)
				must(t, c.Barrier())
				return
			}
			if route == "queued" {
				spinUntil(t, "the message to be queued", func() bool {
					c.p.st.mu.Lock()
					defer c.p.st.mu.Unlock()
					return c.p.st.mb.q.n > 0
				})
			}
			recv(c, route)
			must(t, c.Barrier())
		})
	}
}

func TestRecvIntoDelivers(t *testing.T) {
	bothRoutes(t, func(c *Comm, _ string) {
		must(t, Send(c, 1, 7, []float64{1.5, 2.5, 3.5}))
	}, func(c *Comm, route string) {
		buf := []float64{-1, -1, -1, -1}
		stt, err := RecvInto(c, 0, 7, buf)
		must(t, err)
		if stt != (Status{Source: 0, Tag: 7, Bytes: 24}) || buf[0] != 1.5 || buf[1] != 2.5 || buf[2] != 3.5 || buf[3] != -1 {
			t.Errorf("%s: status %+v buf %v", route, stt, buf)
		}
	})
}

func TestRecvIntoZeroLength(t *testing.T) {
	for _, buf := range [][]int{nil, {}, {5}} {
		bothRoutes(t, func(c *Comm, _ string) {
			must(t, Send(c, 1, 3, []int{}))
		}, func(c *Comm, route string) {
			stt, err := RecvInto(c, 0, 3, buf)
			must(t, err)
			if stt != (Status{Source: 0, Tag: 3}) || (len(buf) == 1 && buf[0] != 5) {
				t.Errorf("%s: status %+v buf %v", route, stt, buf)
			}
		})
	}
}

// TestRecvIntoTruncate: a message longer than the buffer is consumed and
// reported, the buffer untouched, and the next message is unaffected — on
// either route (a parked receiver's sender falls back to the queue).
func TestRecvIntoTruncate(t *testing.T) {
	bothRoutes(t, func(c *Comm, _ string) {
		must(t, Send(c, 1, 4, []int{1, 2, 3}))
		must(t, Send(c, 1, 4, []int{8, 9}))
	}, func(c *Comm, route string) {
		buf := []int{-1, -1}
		if _, err := RecvInto(c, 0, 4, buf); !errors.Is(err, ErrTruncate) {
			t.Errorf("%s: got %v, want ErrTruncate", route, err)
		}
		if buf[0] != -1 || buf[1] != -1 {
			t.Errorf("%s: truncated receive wrote the buffer: %v", route, buf)
		}
		_, err := RecvInto(c, 0, 4, buf)
		must(t, err)
		if buf[0] != 8 || buf[1] != 9 {
			t.Errorf("%s: message after the truncated one: %v", route, buf)
		}
	})
}

func TestRecvIntoTypeMismatch(t *testing.T) {
	bothRoutes(t, func(c *Comm, _ string) {
		must(t, Send(c, 1, 4, []int32{1, 2}))
	}, func(c *Comm, route string) {
		buf := []float32{-1, -1}
		if _, err := RecvInto(c, 0, 4, buf); !errors.Is(err, ErrType) {
			t.Errorf("%s: got %v, want ErrType", route, err)
		}
		if buf[0] != -1 || buf[1] != -1 {
			t.Errorf("%s: mismatched receive wrote the buffer: %v", route, buf)
		}
	})
}

func TestRecvIntoRejectsReservedTag(t *testing.T) {
	runWorld(t, 1, func(p *Proc) {
		if _, err := RecvInto(p.World(), 0, -5, []int{0}); !errors.Is(err, ErrComm) {
			t.Errorf("got %v, want ErrComm", err)
		}
	})
}

func TestRecvIntoOnIntercomm(t *testing.T) {
	for _, route := range []string{"queued", "parked"} {
		runWorld(t, 1, func(p *Proc) {
			if pc := p.Parent(); pc != nil {
				var buf [1]int
				if route == "queued" {
					spinUntil(t, "the message to be queued", func() bool { return queued(pc, 0, 1) })
				}
				stt, err := RecvInto(pc, 0, 1, buf[:])
				must(t, err)
				if buf[0] != 123 || stt.Source != 0 {
					t.Errorf("%s: child received %d, status %+v", route, buf[0], stt)
				}
				return
			}
			inter, err := p.World().SpawnMultiple(1, []string{""}, 0)
			must(t, err)
			if route == "parked" {
				spinUntil(t, "the child to park", func() bool {
					ps := p.st.w.snapshot()
					return len(ps) == 2 && parkedInto(ps[1])
				})
			}
			must(t, SendOne(inter, 0, 1, 123))
		})
	}
}

// TestRecvIntoParkedFailureParity parks a receiver and ends the park by each
// control-plane event that can: its source's death, a revocation by its
// source, and a collective abort by its source followed by the message
// (which an ordinary receive ignores). RecvInto must return what Recv
// returns, at the same virtual time.
func TestRecvIntoParkedFailureParity(t *testing.T) {
	type outcome struct {
		err  string
		val  int
		time float64
	}
	scenarios := []struct {
		name string
		act  func(p *Proc, c *Comm)
	}{
		{"source death", func(p *Proc, c *Comm) { p.Kill() }},
		{"revoke by source", func(p *Proc, c *Comm) { _ = c.Revoke() }},
		{"abort then message", func(p *Proc, c *Comm) {
			abortCollective(c, internalTag(kindBarrier, 0), ErrProcFailed)
			must(t, Send(c, 1, 6, []int{77}))
		}},
	}
	for _, sc := range scenarios {
		var got [2]outcome
		for k, into := range []bool{false, true} {
			runWorld(t, 2, func(p *Proc) {
				c := p.World()
				if c.Rank() == 0 {
					p.Compute(1e-3)
					spinUntil(t, "the receiver to park", func() bool { return parkedRecv(p.st.w.proc(1)) })
					sc.act(p, c)
					return
				}
				o := &got[k]
				o.val = -1
				var err error
				if into {
					buf := []int{-1}
					_, err = RecvInto(c, 0, 6, buf)
					o.val = buf[0]
					buf[0] = -2 // the caller's again
				} else {
					var data []int
					if data, _, err = Recv[int](c, 0, 6); err == nil {
						o.val = data[0]
					}
				}
				if err != nil {
					o.err = err.Error()
				}
				o.time = p.Now()
			})
		}
		if got[0] != got[1] {
			t.Errorf("%s: Recv %+v, RecvInto %+v", sc.name, got[0], got[1])
		}
		if sc.name != "abort then message" && got[1].err == "" {
			t.Errorf("%s: RecvInto returned no error", sc.name)
		}
	}
}

// TestRecvIntoNoWriteAfterReturn races a parked RecvInto's source — which
// sends and then kills itself — and a third rank's death against the
// receiver's park, so the message lands on either route and the receiver is
// woken by a delivery, a death, or both. The receive must succeed whatever
// the order (the source sent before it died), and the receiver overwrites
// its buffer the moment RecvInto returns: had the sender still been able to
// reach the buffer, the race detector would pair its copy with that write.
func TestRecvIntoNoWriteAfterReturn(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 30
	}
	direct := 0
	for round := 0; round < rounds && !t.Failed(); round++ {
		runWorld(t, 3, func(p *Proc) {
			c := p.World()
			switch c.Rank() {
			case 0:
				for i := 0; i < round%17; i++ {
					runtime.Gosched()
				}
				p.Kill()
			case 2:
				for i := 0; i < (round*5)%23; i++ {
					runtime.Gosched()
				}
				must(t, Send(c, 1, 8, []int{7, 7, 7, 7}))
				p.Kill()
			case 1:
				buf := make([]int, 4)
				_, err := RecvInto(c, 2, 8, buf)
				got := [4]int(buf)
				for i := range buf {
					buf[i] = -1
				}
				must(t, err)
				if got != [4]int{7, 7, 7, 7} {
					t.Errorf("round %d: received %v", round, got)
				}
				st := c.p.st
				st.mu.Lock()
				direct += int(st.directs)
				st.mu.Unlock()
				for i := range buf {
					if buf[i] != -1 {
						t.Errorf("round %d: buffer written after RecvInto returned: %v", round, buf)
					}
				}
			}
		})
	}
	t.Logf("%d rounds: %d delivered straight into the buffer", rounds, direct)
}

// tableOracle is the match table's reference: every queued element in arrival
// order, searched linearly.
type tableOracle struct {
	sigs [][3]int    // comm, src, tag per element
	envs []*envelope // the element itself
}

func (o *tableOracle) take(sig [3]int) *envelope {
	for i, s := range o.sigs {
		if s == sig {
			env := o.envs[i]
			o.sigs = append(o.sigs[:i], o.sigs[i+1:]...)
			o.envs = append(o.envs[:i], o.envs[i+1:]...)
			return env
		}
	}
	return nil
}

// TestMailboxAgainstOracle drives pushes and takes at random
// over enough signatures to grow the table several times and empty it again,
// comparing every result with a linear scan in arrival order.
func TestMailboxAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var mb mailbox
	var o tableOracle
	randSig := func(spread int) [3]int {
		tag := rng.Intn(spread)
		if rng.Intn(4) == 0 {
			tag = internalTag(kindBarrier, rng.Intn(spread))
		}
		return [3]int{rng.Intn(3), rng.Intn(spread), tag}
	}
	emptied := 0
	for step := 0; step < 60000; step++ {
		// The spread breathes, so the table fills to hundreds of signatures
		// and drains back to a handful.
		spread := 2 + (step/1500%8)*6
		pushBias := 5
		drain := step/6000%2 == 1
		if drain {
			pushBias = 2
		}
		if rng.Intn(8) < pushBias {
			s := randSig(spread)
			env := &envelope{commID: s[0], src: s[1], tag: s[2]}
			mb.push(env)
			o.sigs = append(o.sigs, s)
			o.envs = append(o.envs, env)
			continue
		}
		// Half the takes name a queued signature, and every take of a
		// draining phase does, so the table empties again.
		want := randSig(spread)
		if len(o.sigs) > 0 && (drain || rng.Intn(2) == 0) {
			want = o.sigs[rng.Intn(len(o.sigs))]
		}
		oracle := o.take(want)
		if peek := mb.peek(want[0], want[1], want[2]); peek != oracle {
			t.Fatalf("step %d: peek %v: got %p, oracle %p", step, want, peek, oracle)
		}
		if env := mb.take(want[0], want[1], want[2]); env != oracle {
			t.Fatalf("step %d: take %v: got %p, oracle %p", step, want, env, oracle)
		}
		if len(o.sigs) == 0 {
			if mb.q.n != 0 {
				t.Fatalf("step %d: %d slots occupied with nothing queued", step, mb.q.n)
			}
			emptied++
		}
	}
	queues := map[[3]int]bool{}
	for _, s := range o.sigs {
		queues[s] = true
	}
	seen := 0
	mb.q.each(func(s *matchSlot) {
		seen++
		if !queues[[3]int{s.comm, s.src, s.tag}] {
			t.Errorf("slot for %d/%d/%d has no queued message", s.comm, s.src, s.tag)
		}
	})
	if seen != len(queues) || mb.q.n != seen {
		t.Errorf("each visited %d slots, table counts %d, oracle has %d signatures", seen, mb.q.n, len(queues))
	}
	if emptied == 0 {
		t.Errorf("the mailbox never drained")
	}
	t.Logf("final table: %d slots for %d signatures; drained %d times", len(mb.q.slots), mb.q.n, emptied)
}

// TestMatchTableDeletionWrapsTheEnd builds the probe chain that starts in the
// table's last slot and continues at slot 0, deletes from it in every order,
// and checks the survivors stay reachable and the chain closes up.
func TestMatchTableDeletionWrapsTheEnd(t *testing.T) {
	const size = 8
	var keys [][3]int // signatures whose home is the last slot
	for tag := 0; len(keys) < 4; tag++ {
		if sigHash(0, 0, tag)&(size-1) == size-1 {
			keys = append(keys, [3]int{0, 0, tag})
		}
	}
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 0, 3, 2}, {2, 0, 1, 3}, {1, 3, 0, 2}}
	for _, perm := range perms {
		var tb matchTable
		tb.slots = make([]matchSlot, size)
		for _, k := range keys {
			tb.slot(k[0], k[1], k[2]).head = &envelope{tag: k[2]}
		}
		if len(tb.slots) != size || tb.find(0, 0, keys[0][2]) != size-1 || tb.find(0, 0, keys[3][2]) != 2 {
			t.Fatalf("chain not laid out across the table end: %d slots, first at %d, last at %d",
				len(tb.slots), tb.find(0, 0, keys[0][2]), tb.find(0, 0, keys[3][2]))
		}
		gone := map[int]bool{}
		for _, d := range perm {
			tb.del(tb.find(0, 0, keys[d][2]))
			gone[d] = true
			for k, key := range keys {
				i := tb.find(0, 0, key[2])
				if gone[k] != (i < 0) {
					t.Fatalf("order %v after deleting %d: key %d found at %d", perm, d, k, i)
				}
				if i >= 0 && tb.slots[i].head.tag != key[2] {
					t.Fatalf("order %v: slot %d holds tag %d, want %d", perm, i, tb.slots[i].head.tag, key[2])
				}
			}
		}
		if tb.n != 0 {
			t.Errorf("order %v: %d slots left occupied", perm, tb.n)
		}
		for i := range tb.slots {
			if tb.slots[i] != (matchSlot{}) {
				t.Errorf("order %v: slot %d not cleared", perm, i)
			}
		}
	}
}
