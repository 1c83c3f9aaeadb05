package mpi

import (
	"cmp"
	"fmt"
	"slices"
)

// Undefined mirrors MPI_UNDEFINED for Split colors: the caller receives no
// new communicator.
const Undefined = -1

// Split partitions the intracommunicator by color, ordering ranks within
// each new communicator by (key, old rank) — exactly MPI_Comm_split. The
// paper uses it with carefully chosen keys to restore the pre-failure rank
// order on the reconstructed communicator (Fig. 3 line 24, Fig. 5 line 25,
// Fig. 7). Callers passing a negative color receive (nil, nil).
func (c *Comm) Split(color, key int) (*Comm, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Split on intercommunicator: %w", ErrComm))
	}
	return c.splitHandle(runRendezvous(c, OpSplit, failOnDeath, false, rvzInput{a: color, b: key}, buildSplit))
}

// splitResult is buildSplit's shared result: the handles of every
// communicator the split created, one array over all of them, and each
// member's index into it by member position (-1 for a member that passed a
// negative color). So the array holds only the members that receive a
// communicator.
type splitResult struct {
	handles []Comm
	at      []int32
}

// splitHandle completes a Split from its rendezvous outcome: the caller's
// handle (nil when it passed a negative color), or the error, fired.
func (c *Comm) splitHandle(res any, err error) (*Comm, error) {
	if err != nil {
		return nil, c.fire(err)
	}
	sr := res.(*splitResult)
	if i := sr.at[c.rank]; i >= 0 {
		return c.adopt(&sr.handles[i]), nil
	}
	return nil, nil
}

// buildSplit sorts the members by (color, key, old rank) and cuts one
// communicator per color run, so communicator ids are handed out in
// ascending color order — the same on every run.
func buildSplit(w *World, r *rendezvous) (any, float64) {
	type member struct {
		color, key int
		pos        int // position in r.members == old rank (intracommunicator)
	}
	ms := make([]member, 0, r.arrived)
	for pos := range r.slots {
		if s := &r.slots[pos]; s.here && s.a >= 0 {
			ms = append(ms, member{s.a, s.b, pos})
		}
	}
	slices.SortFunc(ms, func(x, y member) int {
		if c := cmp.Compare(x.color, y.color); c != 0 {
			return c
		}
		if c := cmp.Compare(x.key, y.key); c != 0 {
			return c
		}
		return cmp.Compare(x.pos, y.pos)
	})
	res := &splitResult{handles: make([]Comm, len(ms)), at: make([]int32, len(r.members))}
	for pos := range res.at {
		res.at[pos] = -1
	}
	// Every group is cut from one array; groups are immutable once
	// published, and each is capped at its own end.
	groups := make([]int, len(ms))
	for lo := 0; lo < len(ms); {
		hi := lo
		for hi < len(ms) && ms[hi].color == ms[lo].color {
			hi++
		}
		ranks := groups[lo:hi:hi]
		for i, m := range ms[lo:hi] {
			ranks[i] = r.members[m.pos]
		}
		sh := w.newCommLocked(ranks, nil)
		for i, m := range ms[lo:hi] {
			res.handles[lo+i] = Comm{sh: sh, rank: i}
			res.at[m.pos] = int32(lo + i)
		}
		lo = hi
	}
	return res, logCost(w, len(r.members))
}

// logCost models the latency of a communicator-management collective as a
// logarithmic number of message rounds (reads only immutable machine
// fields).
func logCost(w *World, n int) float64 {
	rounds := 0
	for p := 1; p < n; p <<= 1 {
		rounds++
	}
	return float64(rounds+1) * (w.machine.Alpha + w.machine.SendOverhead + w.machine.RecvOverhead)
}
