package mpi

import "slices"

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
	for _, x := range h {
		if g.Rank(x) < 0 {
			return GroupUnequal
		}
	}
	return GroupSimilar
}

// Difference mirrors MPI_Group_difference: members of g not in h, in g's
// order, in a result sized once. When h is an in-order subsequence of g —
// the shrunken group against the broken one, paper Fig. 6 — one merge pass
// proves it and the result is the len(g)-len(h) members the pass skipped.
func (g Group) Difference(h Group) Group {
	j := 0
	for _, x := range g {
		if j < len(h) && h[j] == x {
			j++
		}
	}
	if j == len(h) {
		if len(g) == len(h) {
			return nil
		}
		out := make(Group, 0, len(g)-len(h))
		j = 0
		for _, x := range g {
			if j < len(h) && h[j] == x {
				j++
			} else {
				out = append(out, x)
			}
		}
		return out
	}
	// h is not a subsequence of g: count, then collect, the members of g
	// that h lacks.
	n := 0
	for _, x := range g {
		if h.Rank(x) < 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make(Group, 0, n)
	for _, x := range g {
		if h.Rank(x) < 0 {
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
