package mpi

import (
	"fmt"
	"sort"
	"sync"
)

// This file exposes the watchdog's stall evidence as an on-demand, structured
// snapshot: what stallDump used to render straight to text is now
// World.Snapshot(), so a live run can be introspected over HTTP
// (/debug/ranks) without waiting for the timeout path to fire. The watchdog
// renders its dump from the same snapshot.

// RendezvousSnapshot is one unresolved collective rendezvous: how many of
// the expected members have arrived at the (comm, op, seq) meeting point.
type RendezvousSnapshot struct {
	Comm    int    `json:"comm"`
	Op      string `json:"op"`
	Seq     int    `json:"seq"`
	Arrived int    `json:"arrived"`
	Members int    `json:"members"`
}

// QueueSnapshot is one (comm, src, tag) mailbox match queue and its depth —
// messages delivered but not yet received.
type QueueSnapshot struct {
	Comm  int `json:"comm"`
	Src   int `json:"src"`
	Tag   int `json:"tag"`
	Depth int `json:"depth"`
}

// RankSnapshot is one process's blocked-operation and mailbox state.
type RankSnapshot struct {
	WorldRank int  `json:"world_rank"`
	Alive     bool `json:"alive"`
	// Blocked describes the receive the process is parked in, or
	// "none recorded (running, parked in a rendezvous, or exited)" — compute
	// stretches, rendezvous parks and exited processes are indistinguishable
	// from outside without perturbing the run.
	Blocked string          `json:"blocked"`
	Mailbox int             `json:"mailbox_total"`
	Queues  []QueueSnapshot `json:"queues,omitempty"`
	// Parked reports that the rank is a parked continuation on the
	// event-driven path — the same blocked state a sleeping goroutine would
	// be in, held as a registered completion instead of a stack.
	Parked bool `json:"parked,omitempty"`
	// Parks counts the times the rank's blocking receives went to sleep,
	// EmptyWakes those parks whose wake resolved nothing (the receive parked
	// again) and DirectRecvs the messages a sender copied straight into a
	// RecvInto buffer. EmptyWakes/Parks is the spurious-wake ratio. All three
	// depend on scheduling and are excluded from every determinism
	// fingerprint.
	Parks       uint64 `json:"parks,omitempty"`
	EmptyWakes  uint64 `json:"empty_wakes,omitempty"`
	DirectRecvs uint64 `json:"direct_recvs,omitempty"`
}

// WakeSnapshot is the wake work one kind of control-plane event (abort,
// quiesce, departure, rendezvous) has done so far: events that found no
// sleeper they could concern and skipped it (World.mayWake), walks over a
// communicator's members or every process, reads of an aborter's namer
// list, the blocked-op descriptors those examined and the processes they
// woke. Examined per event is what a wake costs. The counts depend on
// scheduling and are excluded from every determinism fingerprint.
type WakeSnapshot struct {
	Event    string `json:"event"`
	Skipped  uint64 `json:"skipped"`
	Walks    uint64 `json:"walks"`
	Lists    uint64 `json:"lists"`
	Examined uint64 `json:"examined"`
	Woken    uint64 `json:"woken"`
}

// WorldSnapshot is a point-in-time view of one World: the failure record,
// unresolved rendezvous, the control plane's wake work and every process's
// blocked state. It reads only epoch-safe state (the process table,
// liveness flags, mailbox queues under each process's mutex, atomic
// counters), so taking one never perturbs virtual time.
type WorldSnapshot struct {
	Failed  []int                `json:"failed"`
	Spawned int                  `json:"spawned"`
	Pending []RendezvousSnapshot `json:"pending_rendezvous,omitempty"`
	Wakes   []WakeSnapshot       `json:"wakes"`
	Ranks   []RankSnapshot       `json:"ranks"`
	// RanksParked and GoroutinesPeak mirror the mpi.ranks.parked and
	// mpi.goroutines.peak gauges for event-driven worlds (both 0 on the
	// goroutine path until the final peak sample).
	RanksParked    int `json:"ranks_parked,omitempty"`
	GoroutinesPeak int `json:"goroutines_peak,omitempty"`
}

// Snapshot captures the world's current blocked-operation state. It takes
// World.state and then each process's mutex one at a time, respecting the
// lock hierarchy, and is safe to call at any point of a run — including from
// a goroutine outside the world (the watchdog, an HTTP handler).
func (w *World) Snapshot() WorldSnapshot {
	var out WorldSnapshot

	w.state.RLock()
	out.Failed = append([]int{}, w.failed...)
	out.Spawned = w.spawned
	for key, r := range w.rvzTable { // unresolved instances only
		out.Pending = append(out.Pending, RendezvousSnapshot{
			Comm: key.comm, Op: key.op, Seq: key.seq,
			Arrived: r.arrived, Members: len(r.members),
		})
	}
	w.state.RUnlock()

	sort.Slice(out.Pending, func(i, j int) bool {
		a, c := out.Pending[i], out.Pending[j]
		if a.Comm != c.Comm {
			return a.Comm < c.Comm
		}
		if a.Op != c.Op {
			return a.Op < c.Op
		}
		return a.Seq < c.Seq
	})

	for ev := range w.wakes {
		c := &w.wakes[ev]
		out.Wakes = append(out.Wakes, WakeSnapshot{Event: wakeEventNames[ev],
			Skipped: c.skipped.Load(), Walks: c.walks.Load(), Lists: c.lists.Load(),
			Examined: c.examined.Load(), Woken: c.woken.Load()})
	}
	out.RanksParked = int(w.parkedNow.Load())
	out.GoroutinesPeak = int(w.goroPeak.Load())
	for _, st := range w.snapshot() {
		st.mu.Lock()
		rs := RankSnapshot{WorldRank: st.wrank, Alive: st.alive.Load(), Parked: st.cont != nil,
			Parks: st.parks, EmptyWakes: st.emptyWakes, DirectRecvs: st.directs}
		switch {
		case st.waitSh != nil:
			rs.Blocked = fmt.Sprintf("recv comm=%d src=%d tag=%d", st.waitSh.id, st.waitSrc, st.waitTag)
		case st.cont != nil:
			rs.Blocked = "parked continuation (rendezvous or custom await)"
		default:
			rs.Blocked = "none recorded (running, parked in a rendezvous, or exited)"
		}
		st.mb.q.each(func(s *matchSlot) {
			n := 0
			for e := s.head; e != nil; e = e.next {
				n++
			}
			rs.Mailbox += n
			rs.Queues = append(rs.Queues, QueueSnapshot{Comm: s.comm, Src: s.src, Tag: s.tag, Depth: n})
		})
		st.mu.Unlock()
		sort.Slice(rs.Queues, func(i, j int) bool {
			a, c := rs.Queues[i], rs.Queues[j]
			if a.Comm != c.Comm {
				return a.Comm < c.Comm
			}
			if a.Src != c.Src {
				return a.Src < c.Src
			}
			return a.Tag < c.Tag
		})
		out.Ranks = append(out.Ranks, rs)
	}
	return out
}

// Introspection is a registry of live Worlds, the bridge between runs and
// the telemetry HTTP server: Run attaches its World for the duration of the
// job (Options.Introspect), and /debug/ranks snapshots whatever is attached
// at that instant. Many worlds may be live at once (a sweep); they appear in
// attach order. The zero value is ready to use and a nil *Introspection is
// inert.
type Introspection struct {
	mu     sync.Mutex
	worlds []*World
}

func (in *Introspection) attach(w *World) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.worlds = append(in.worlds, w)
	in.mu.Unlock()
}

func (in *Introspection) detach(w *World) {
	if in == nil {
		return
	}
	in.mu.Lock()
	for i, x := range in.worlds {
		if x == w {
			in.worlds = append(in.worlds[:i], in.worlds[i+1:]...)
			break
		}
	}
	in.mu.Unlock()
}

// Snapshots captures every attached world's state, in attach order. The
// result is never nil, so it renders as [] rather than null in JSON.
func (in *Introspection) Snapshots() []WorldSnapshot {
	out := []WorldSnapshot{}
	if in == nil {
		return out
	}
	in.mu.Lock()
	worlds := append([]*World(nil), in.worlds...)
	in.mu.Unlock()
	for _, w := range worlds {
		out = append(out, w.Snapshot())
	}
	return out
}
