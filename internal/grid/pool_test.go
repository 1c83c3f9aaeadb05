package grid

import (
	"runtime"
	"testing"
)

// TestPooledGridsAreZeroedAndShaped checks what NewPooled promises whatever
// the pool hands back: the level's shape and all-zero values, also when the
// recycled grid was full of data.
func TestPooledGridsAreZeroedAndShaped(t *testing.T) {
	lv := Level{I: 3, J: 2}
	for round := 0; round < 3; round++ {
		g := NewPooled(lv)
		if g.Lv != lv || g.Nx != 9 || g.Ny != 5 || len(g.V) != 45 {
			t.Fatalf("round %d: level %v shape %dx%d with %d values", round, g.Lv, g.Nx, g.Ny, len(g.V))
		}
		for k, v := range g.V {
			if v != 0 {
				t.Fatalf("round %d: value %d is %v, want 0", round, k, v)
			}
			g.V[k] = float64(k + 1)
		}
		g.Free()
	}
	(*Grid)(nil).Free()
	(&Grid{Lv: Level{I: -1, J: 40}}).Free() // out of range: dropped, not filed
}

// TestAlternatingLevelsDoNotReallocate pins the one-list-per-level layout: a
// combine holds grids of several levels at once and frees them in whatever
// order it finishes with them, and a single mixed pool then handed a small
// grid to the next large request, which dropped it and allocated. Nothing is
// allocated after the first round.
func TestAlternatingLevelsDoNotReallocate(t *testing.T) {
	large, small := Level{I: 7, J: 4}, Level{I: 4, J: 3}
	round := func() {
		a, b := NewPooled(large), NewPooled(small)
		if cap(b.V) != len(b.V) {
			t.Errorf("a %v grid was served %d values of storage for its %d", small, cap(b.V), len(b.V))
		}
		b.Free() // the small grid is now the last one freed
		a.Free()
	}
	// AllocsPerRun's warm-up call is the first round; the one it measures is
	// the second.
	if n := testing.AllocsPerRun(1, round); n != 0 {
		t.Errorf("%v allocations in the second round, want 0", n)
	}
}

// TestFreedGridsSurviveCollections pins what the free lists are for: a run
// performs several garbage collections between two combines, and the second
// combine must still find the first one's grids. (A sync.Pool is empty after
// two collections.)
func TestFreedGridsSurviveCollections(t *testing.T) {
	lv := Level{I: 6, J: 5}
	g := NewPooled(lv)
	first := &g.V[0]
	g.Free()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	h := NewPooled(lv)
	defer h.Free()
	if &h.V[0] != first {
		t.Error("three collections after Free, NewPooled allocated instead of reusing the freed grid")
	}
}

// TestFreeStopsAtTheBudget checks the bound on what the lists pin: with
// keepBytes on the lists already, a freed grid is dropped for the GC.
func TestFreeStopsAtTheBudget(t *testing.T) {
	lv := Level{I: 5, J: 6}
	g := New(lv)
	gridPools.Lock()
	held := gridPools.bytes
	gridPools.bytes = keepBytes - 8*cap(g.V) + 1
	gridPools.Unlock()
	g.Free()
	gridPools.Lock()
	listed := len(gridPools.free[lv.I][lv.J])
	gridPools.bytes = held
	gridPools.Unlock()
	if listed != 0 {
		t.Errorf("a grid freed past the budget was kept (%d on the list)", listed)
	}
}
