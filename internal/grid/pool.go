package grid

import (
	"fmt"
	"sync"
)

// Grid-sized buffers dominate the allocation profile of the combination and
// recovery hot paths: every combine phase builds a full target grid and a
// scratch grid per contribution, and every recovery restriction builds a
// coarse copy. The pools below let those paths reuse backing arrays across
// calls (and across experiment runs in the parallel harness) instead of
// re-allocating per operation.

// maxLevel is the largest per-axis level New and NewPooled accept.
const maxLevel = 30

// keepBytes bounds the value storage the free lists hold between uses.
const keepBytes = 128 << 20

// gridPools recycles Grid headers together with their value slices, one
// free list per level: a recycled grid always fits the level that asks for it
// and is never larger, so a combine that holds grids of several sizes — the
// (10,4) diagonal, the (9,4) layer below it — never draws one too small and
// re-allocates, nor parks a large array under a small grid.
//
// The lists are plain stacks under one lock, not sync.Pools. A sync.Pool is
// emptied by two garbage collections, and a run allocates about that much
// between two combines: whether the next combine found the last one's target
// grids (8 MiB each at level 10) or allocated them all again was decided by
// where a collection happened to fall, and a run's allocation total flipped
// between two values tens of MiB apart. A list keeps what it is given until
// it is asked for it, up to keepBytes over all levels; past that a freed grid
// is left to the GC. Grids are requested once per gather or combine, not per
// step, so the lock is not contended.
var gridPools struct {
	sync.Mutex
	bytes int // value storage on the lists
	free  [maxLevel + 1][maxLevel + 1][]*Grid
}

func validLevel(lv Level) bool {
	return lv.I >= 0 && lv.J >= 0 && lv.I <= maxLevel && lv.J <= maxLevel
}

// NewPooled returns a zeroed grid of the given level drawn from the pool.
// It is equivalent to New, but the grid SHOULD be returned with Free once
// it is no longer referenced; a forgotten Free only costs the reuse.
func NewPooled(lv Level) *Grid {
	if !validLevel(lv) {
		panic(fmt.Sprintf("grid: invalid level %v", lv))
	}
	var g *Grid
	gridPools.Lock()
	if l := &gridPools.free[lv.I][lv.J]; len(*l) > 0 {
		last := len(*l) - 1
		g, (*l)[last] = (*l)[last], nil
		*l = (*l)[:last]
		gridPools.bytes -= 8 * cap(g.V)
	}
	gridPools.Unlock()
	nx, ny := (1<<lv.I)+1, (1<<lv.J)+1
	// The capacity test only guards against a grid whose V was replaced
	// between New and Free.
	if g == nil || cap(g.V) < nx*ny {
		return New(lv)
	}
	g.Lv, g.Nx, g.Ny = lv, nx, ny
	g.V = g.V[:nx*ny]
	clear(g.V)
	return g
}

// Free returns a pooled (or heap) grid's storage to the free list of its
// level. The grid must not be used afterwards.
func (g *Grid) Free() {
	if g == nil || !validLevel(g.Lv) {
		return
	}
	gridPools.Lock()
	if n := 8 * cap(g.V); gridPools.bytes+n <= keepBytes {
		gridPools.bytes += n
		l := &gridPools.free[g.Lv.I][g.Lv.J]
		*l = append(*l, g)
	}
	gridPools.Unlock()
}

// sampleScratch holds the per-column source index and x-weight tables of
// AccumulateSampled.
type sampleScratch struct {
	idx []int
	wt  []float64
}

var samplePool = sync.Pool{New: func() any { return new(sampleScratch) }}

func getSampleScratch(n int) *sampleScratch {
	sc := samplePool.Get().(*sampleScratch)
	if cap(sc.idx) < n {
		sc.idx = make([]int, n)
		sc.wt = make([]float64, n)
	}
	sc.idx = sc.idx[:n]
	sc.wt = sc.wt[:n]
	return sc
}

func putSampleScratch(sc *sampleScratch) { samplePool.Put(sc) }
