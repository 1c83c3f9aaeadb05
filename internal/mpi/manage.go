package mpi

import (
	"cmp"
	"fmt"
	"slices"
)

// Undefined mirrors MPI_UNDEFINED for Split colors: the caller receives no
// new communicator.
const Undefined = -1

type splitInput struct {
	color, key int
}

// Split partitions the intracommunicator by color, ordering ranks within
// each new communicator by (key, old rank) — exactly MPI_Comm_split. The
// paper uses it with carefully chosen keys to restore the pre-failure rank
// order on the reconstructed communicator (Fig. 3 line 24, Fig. 5 line 25,
// Fig. 7). Callers passing a negative color receive (nil, nil).
func (c *Comm) Split(color, key int) (*Comm, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Split on intercommunicator: %w", ErrComm))
	}
	in := splitInput{color: color, key: key}
	res, err := runRendezvous(c, OpSplit, failOnDeath, false, in, buildSplit)
	if err != nil {
		return nil, c.fire(err)
	}
	return c.adopt(res.([]commRank)[c.rank]), nil
}

// buildSplit sorts the members by (color, key, old rank) and cuts one
// communicator per color run, so communicator ids are handed out in
// ascending color order — the same on every run.
func buildSplit(w *World, r *rendezvous) (any, float64) {
	type member struct {
		splitInput
		pos int // position in r.members == old rank (intracommunicator)
	}
	ms := make([]member, 0, r.arrived)
	for pos := range r.slots {
		if s := &r.slots[pos]; s.here {
			if in := s.input.(splitInput); in.color >= 0 {
				ms = append(ms, member{in, pos})
			}
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
	out := make([]commRank, len(r.members))
	for lo := 0; lo < len(ms); {
		hi := lo
		for hi < len(ms) && ms[hi].color == ms[lo].color {
			hi++
		}
		ranks := make([]int, hi-lo)
		for i, m := range ms[lo:hi] {
			ranks[i] = r.members[m.pos]
		}
		sh := w.newCommLocked(ranks, nil)
		for i, m := range ms[lo:hi] {
			out[m.pos] = commRank{sh, i}
		}
		lo = hi
	}
	return out, logCost(w, len(r.members))
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
