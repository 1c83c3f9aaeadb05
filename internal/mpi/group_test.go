package mpi

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGroupCompare(t *testing.T) {
	cases := []struct {
		g, h Group
		want GroupRelation
	}{
		{Group{1, 2, 3}, Group{1, 2, 3}, GroupIdent},
		{Group{1, 2, 3}, Group{3, 2, 1}, GroupSimilar},
		{Group{1, 2, 3}, Group{1, 2}, GroupUnequal},
		{Group{1, 2, 3}, Group{1, 2, 4}, GroupUnequal},
		{Group{}, Group{}, GroupIdent},
	}
	for _, c := range cases {
		if got := c.g.Compare(c.h); got != c.want {
			t.Errorf("Compare(%v, %v) = %v, want %v", c.g, c.h, got, c.want)
		}
	}
}

func TestGroupDifference(t *testing.T) {
	g := Group{0, 1, 2, 3, 4}
	h := Group{1, 3}
	d := g.Difference(h)
	want := Group{0, 2, 4}
	if d.Compare(want) != GroupIdent {
		t.Fatalf("Difference = %v, want %v", d, want)
	}
	if got := g.Difference(g); got.Size() != 0 {
		t.Fatalf("g \\ g = %v, want empty", got)
	}
}

func TestGroupTranslateRanks(t *testing.T) {
	// The exact idiom of the paper's Fig. 6: translate every rank of the
	// failed group into the old group to obtain the failed old ranks.
	oldGroup := Group{10, 11, 12, 13, 14, 15, 16} // world ranks of a comm
	shrunk := Group{10, 11, 12, 14, 16}           // after ranks 3,5 failed
	failedGroup := oldGroup.Difference(shrunk)    // world ranks {13, 15}
	tempRanks := []int{0, 1}
	failedOldRanks := failedGroup.TranslateRanks(tempRanks, oldGroup)
	if len(failedOldRanks) != 2 || failedOldRanks[0] != 3 || failedOldRanks[1] != 5 {
		t.Fatalf("failed old ranks = %v, want [3 5]", failedOldRanks)
	}
}

func TestGroupTranslateRanksUndefined(t *testing.T) {
	g := Group{7, 8}
	h := Group{8}
	out := g.TranslateRanks([]int{0, 1, 5, -1}, h)
	want := []int{-1, 0, -1, -1}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("TranslateRanks = %v, want %v", out, want)
		}
	}
}

func TestGroupRank(t *testing.T) {
	g := Group{5, 9, 2}
	if g.Rank(9) != 1 {
		t.Fatalf("Rank(9) = %d", g.Rank(9))
	}
	if g.Rank(7) != -1 {
		t.Fatalf("Rank(7) = %d, want -1", g.Rank(7))
	}
}

// Property: h partitions g into g \ h and the members of g that h holds.
func TestGroupPartitionProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		g := dedup(a)
		h := dedup(b)
		d := g.Difference(h)
		kept := 0
		for _, x := range g {
			inD, inH := d.Rank(x) >= 0, h.Rank(x) >= 0
			if inD == inH {
				return false
			}
			if inD {
				kept++
			}
		}
		return kept == d.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func dedup(xs []uint8) Group {
	seen := make(map[int]bool)
	var g Group
	for _, x := range xs {
		if !seen[int(x)] {
			seen[int(x)] = true
			g = append(g, int(x))
		}
	}
	return g
}

// The map-based group algebra the runtime used before the ordered-merge and
// dense-mark implementation, kept as the reference the differential test
// compares against.

func refDifference(g, h Group) Group {
	in := make(map[int]bool, len(h))
	for _, x := range h {
		in[x] = true
	}
	var out Group
	for _, x := range g {
		if !in[x] {
			out = append(out, x)
		}
	}
	return out
}

func refCompare(g, h Group) GroupRelation {
	if slices.Equal(g, h) {
		return GroupIdent
	}
	if len(g) != len(h) {
		return GroupUnequal
	}
	set := make(map[int]bool, len(g))
	for _, x := range g {
		set[x] = true
	}
	for _, x := range h {
		if !set[x] {
			return GroupUnequal
		}
	}
	return GroupSimilar
}

func refTranslateRanks(g Group, ranks []int, h Group) []int {
	out := make([]int, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= len(g) {
			out[i] = -1
			continue
		}
		out[i] = h.Rank(g[r])
	}
	return out
}

// TestGroupAlgebraDifferential compares every group operation with the
// map-based reference over the operand shapes that select different code
// paths: an in-order subsequence (what shrink produces), the same members
// permuted, partially overlapping and disjoint groups, and empty operands,
// in both argument orders.
func TestGroupAlgebraDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	subsequence := func(g Group) Group {
		var out Group
		for _, x := range g {
			if rng.Intn(3) > 0 {
				out = append(out, x)
			}
		}
		return out
	}
	permuted := func(g Group) Group {
		out := append(Group(nil), g...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	check := func(g, h Group) {
		t.Helper()
		if got, want := g.Difference(h), refDifference(g, h); !slices.Equal(got, want) {
			t.Fatalf("%v.Difference(%v) = %v, want %v", g, h, got, want)
		}
		if got, want := g.Compare(h), refCompare(g, h); got != want {
			t.Fatalf("%v.Compare(%v) = %v, want %v", g, h, got, want)
		}
		// Every rank of g, plus the out-of-range ones on either side, in
		// order and shuffled.
		ranks := make([]int, 0, len(g)+2)
		for r := -1; r <= len(g); r++ {
			ranks = append(ranks, r)
		}
		for pass := 0; pass < 2; pass++ {
			if got, want := g.TranslateRanks(ranks, h), refTranslateRanks(g, ranks, h); !slices.Equal(got, want) {
				t.Fatalf("%v.TranslateRanks(%v, %v) = %v, want %v", g, ranks, h, got, want)
			}
			rng.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		base := rng.Intn(1000)
		g := make(Group, n)
		for i, x := range rng.Perm(2 * n)[:n] {
			g[i] = base + x // distinct, not sorted
		}
		if trial%2 == 0 {
			slices.Sort(g) // communicator groups usually are
		}
		disjoint := make(Group, rng.Intn(10))
		for i := range disjoint {
			disjoint[i] = base + 2*n + i
		}
		sub := subsequence(g)
		for _, h := range []Group{
			sub, permuted(sub), permuted(g), g,
			append(subsequence(g), disjoint...), disjoint, nil,
		} {
			check(g, h)
			check(h, g)
		}
	}
}
