package mpi

import (
	"slices"
	"sync"
)

// Group is an ordered set of world ranks (no duplicates), mirroring
// MPI_Group. Groups are immutable value types — Comm.Group hands out the
// communicator's own list — and the algebra below implements the calls the
// paper's failed-process-list procedure uses (Fig. 6): MPI_Group_compare,
// MPI_Group_difference and MPI_Group_translate_ranks.
type Group []int

// Comparison results for Compare, mirroring MPI_IDENT / MPI_SIMILAR /
// MPI_UNEQUAL.
type GroupRelation int

const (
	GroupIdent GroupRelation = iota
	GroupSimilar
	GroupUnequal
)

func (r GroupRelation) String() string {
	switch r {
	case GroupIdent:
		return "MPI_IDENT"
	case GroupSimilar:
		return "MPI_SIMILAR"
	default:
		return "MPI_UNEQUAL"
	}
}

// Size returns the number of processes in the group.
func (g Group) Size() int { return len(g) }

// Rank returns the rank of world process w in the group, or -1
// (MPI_UNDEFINED) if w is not a member.
func (g Group) Rank(w int) int {
	for i, x := range g {
		if x == w {
			return i
		}
	}
	return -1
}

// Compare mirrors MPI_Group_compare.
func (g Group) Compare(h Group) GroupRelation {
	if len(g) != len(h) {
		return GroupUnequal
	}
	if slices.Equal(g, h) {
		return GroupIdent
	}
	in := markOf(g)
	defer in.release()
	for _, x := range h {
		if !in.has(x) {
			return GroupUnequal
		}
	}
	return GroupSimilar
}

// Difference mirrors MPI_Group_difference: members of g not in h, in g's
// order. When h is an in-order subsequence of g — the shrunken group against
// the broken one, paper Fig. 6 — one merge pass finds the answer and
// allocates only the result.
func (g Group) Difference(h Group) Group {
	var out Group
	j := 0
	for _, x := range g {
		if j < len(h) && h[j] == x {
			j++
		} else {
			out = append(out, x)
		}
	}
	if j == len(h) {
		return out
	}
	// h is not a subsequence of g: the pass above kept members of h.
	in := markOf(h)
	defer in.release()
	out = out[:0]
	for _, x := range g {
		if !in.has(x) {
			out = append(out, x)
		}
	}
	return out
}

// TranslateRanks mirrors MPI_Group_translate_ranks: for each rank r in g,
// the corresponding rank in h (or -1 = MPI_UNDEFINED when absent). Each
// search resumes where the last hit left off, so translating ranks whose
// processes appear in h in the same order costs one pass over h in total.
func (g Group) TranslateRanks(ranks []int, h Group) []int {
	out := make([]int, len(ranks))
	next := 0
	for i, r := range ranks {
		out[i] = -1
		if r < 0 || r >= len(g) {
			continue
		}
		for n := 0; n < len(h); n++ {
			j := next + n
			if j >= len(h) {
				j -= len(h)
			}
			if h[j] == g[r] {
				out[i], next = j, j+1
				break
			}
		}
	}
	return out
}

// rankMark is a reusable dense membership mark over the value range of one
// group: stamp[x-lo] == gen marks x as a member, and bumping gen clears the
// whole mark in O(1). World ranks are dense, so the range is about the
// group's size; the marks are pooled, so the general (non-subsequence) case
// of the algebra above allocates nothing once warm.
type rankMark struct {
	lo    int
	stamp []uint32
	gen   uint32
}

var rankMarks = sync.Pool{New: func() any { return new(rankMark) }}

// markOf returns a mark holding exactly the members of h. Release it when
// done.
func markOf(h Group) *rankMark {
	m := rankMarks.Get().(*rankMark)
	if len(h) == 0 {
		m.stamp = m.stamp[:0]
		return m
	}
	lo, hi := h[0], h[0]
	for _, x := range h {
		lo, hi = min(lo, x), max(hi, x)
	}
	if n := hi - lo + 1; n > cap(m.stamp) {
		m.stamp, m.gen = make([]uint32, n), 0
	} else {
		m.stamp = m.stamp[:n]
	}
	if m.gen++; m.gen == 0 { // wrapped: old stamps could alias
		clear(m.stamp[:cap(m.stamp)])
		m.gen = 1
	}
	m.lo = lo
	for _, x := range h {
		m.stamp[x-lo] = m.gen
	}
	return m
}

func (m *rankMark) has(x int) bool {
	i := x - m.lo
	return i >= 0 && i < len(m.stamp) && m.stamp[i] == m.gen
}

func (m *rankMark) release() { rankMarks.Put(m) }
