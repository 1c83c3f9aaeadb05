package mpi

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file implements the deadlock watchdog: a wall-clock monitor that
// declares the run stalled when no transport progress happens for a full
// timeout interval and aborts it with every rank's blocked-operation and
// mailbox state as the cause, so a hang fails fast with a diagnosis instead
// of riding out the test binary's 10-minute timeout.
//
// Progress is observed through the wakeup epochs of the sharded transport:
// every event that can unblock a process (message delivery, death, revoke,
// collective abort, rendezvous resolution) bumps the target's epoch, so a
// job in which every epoch is frozen across an interval — while some process
// is still alive — is either deadlocked or in a pure-compute stretch longer
// than the timeout. The monitor reads only epoch counters (under each
// process's mutex), the process table and liveness flags, so it never races
// with owner-only state such as the virtual clocks. The event-driven path
// needs no special handling: parked continuations are woken by the same
// epoch bumps, and the stall dump renders their blocked-receive
// descriptors (and a parked marker) through the same World.Snapshot the
// goroutine path uses.

// Watchdog configures stall detection for a Run. The zero value disables it.
type Watchdog struct {
	// Timeout is the wall-clock interval with no transport progress after
	// which the job is declared stalled and aborted: Run returns a
	// *StallError. Stalls are reported no earlier than one and no later
	// than two intervals after progress stops.
	Timeout time.Duration
}

// StallError is the cause of a job the watchdog aborted. Its text is the
// stall dump: every rank's blocked operation and mailbox state, and every
// unresolved rendezvous.
type StallError struct {
	Dump string
}

func (e *StallError) Error() string { return e.Dump }

// watch monitors the job until done closes, aborting it when a full interval
// passes with no epoch progress while some process is alive.
func (w *World) watch(cfg Watchdog, done <-chan struct{}) {
	tick := time.NewTicker(cfg.Timeout)
	defer tick.Stop()
	var last []uint64
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		sig, anyAlive := w.progressSignature()
		if !anyAlive {
			// Every process has exited or died; Run is about to return.
			return
		}
		if last != nil && equalEpochs(sig, last) {
			w.abort(&StallError{Dump: w.stallDump(cfg.Timeout)})
			return
		}
		last = sig
	}
}

// progressSignature samples every process's wakeup epoch and liveness, and
// reports whether any process is still alive. A departure wakes only the
// processes it concerns — possibly none — so it is folded in as progress of
// its own (the low bit); spawn growing the process table changes the
// signature's length, which counts too.
func (w *World) progressSignature() ([]uint64, bool) {
	ps := w.snapshot()
	sig := make([]uint64, len(ps))
	anyAlive := false
	for i, st := range ps {
		sig[i] = st.epochNow() << 1
		if st.alive.Load() {
			sig[i] |= 1
			anyAlive = true
		}
	}
	return sig, anyAlive
}

func equalEpochs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stallDump renders the per-rank blocked-operation and mailbox state, every
// unresolved rendezvous and the wake work of each control-plane event kind —
// the evidence needed to diagnose a deadlock.
// The state itself comes from World.Snapshot (introspect.go), which the
// /debug/ranks endpoint also serves; this is just its text rendering.
func (w *World) stallDump(timeout time.Duration) string {
	snap := w.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "mpi: watchdog: no transport progress for %v\n", timeout)
	fmt.Fprintf(&b, "failed (world ranks, in order): %v; spawned: %d\n", snap.Failed, snap.Spawned)
	for _, r := range snap.Pending {
		fmt.Fprintf(&b, "rendezvous comm=%d op=%s seq=%d: %d/%d arrived\n",
			r.Comm, r.Op, r.Seq, r.Arrived, r.Members)
	}
	for _, x := range snap.Wakes {
		fmt.Fprintf(&b, "wakes %s: skipped=%d walks=%d lists=%d examined=%d woken=%d\n",
			x.Event, x.Skipped, x.Walks, x.Lists, x.Examined, x.Woken)
	}
	for _, rs := range snap.Ranks {
		sigs := make([]string, 0, len(rs.Queues))
		for _, q := range rs.Queues {
			sigs = append(sigs, fmt.Sprintf("comm=%d src=%d tag=%d x%d", q.Comm, q.Src, q.Tag, q.Depth))
		}
		sort.Strings(sigs)
		fmt.Fprintf(&b, "world rank %3d alive=%-5v blocked=%s parks=%d empty-wakes=%d direct=%d mailbox=%d",
			rs.WorldRank, rs.Alive, rs.Blocked, rs.Parks, rs.EmptyWakes, rs.DirectRecvs, rs.Mailbox)
		if len(sigs) > 0 {
			fmt.Fprintf(&b, " [%s]", strings.Join(sigs, "; "))
		}
		b.WriteByte('\n')
	}
	return strings.TrimSuffix(b.String(), "\n")
}
