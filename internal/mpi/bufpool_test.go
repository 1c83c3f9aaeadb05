package mpi

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// noGC switches the collector off for a test: a collection empties the
// sync.Pools behind the buffer classes.
func noGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// oneP runs a test on a single processor: sync.Pool caches per processor, so
// with several a buffer released on one can be missed by a request on
// another, and an allocation pin would count the scheduler's placement.
func oneP(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestPingPongAllocatesNothing pins the copying send path's steady state: a
// 1 KiB Send/Recv/ReleaseBuf ping-pong recycles the same two buffers, so
// after a warm-up a round trip allocates nothing — not the payload copy, not
// an envelope, not a boxed pool entry.
func TestPingPongAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build's sync.Pool drops items at random")
	}
	noGC(t)
	oneP(t)
	const warm, trips = 16, 256
	var before, after runtime.MemStats
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		peer := 1 - c.Rank()
		msg := make([]float64, 128)
		trip := func() {
			if c.Rank() == 0 {
				must(t, Send(c, peer, 1, msg))
			}
			got, _, err := Recv[float64](c, peer, 1)
			must(t, err)
			ReleaseBuf(got)
			if c.Rank() == 1 {
				must(t, Send(c, peer, 1, msg))
			}
		}
		for i := 0; i < warm; i++ {
			trip()
		}
		// A trip ends with rank 0 holding the reply, so rank 1 is idle in
		// its next Recv while rank 0 reads the counters.
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		for i := 0; i < trips; i++ {
			trip()
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
	})
	if d := after.TotalAlloc - before.TotalAlloc; d >= trips {
		t.Errorf("%d round trips allocated %d bytes (%d objects), want none",
			trips, d, after.Mallocs-before.Mallocs)
	}
}

// TestMixedSizesDoNotThrash checks that sizes of different classes never
// evict each other: with a released 40 KiB accumulator pooled, a 48 KiB
// request neither takes it nor displaces it, and the next 40 KiB request gets
// it back. (The per-type pool this replaces handed the 40 KiB buffer to the
// 48 KiB request, found it too small and dropped it.)
func TestMixedSizesDoNotThrash(t *testing.T) {
	noGC(t)
	const n40, n48 = 40 << 10 / 8, 48 << 10 / 8
	ok := false
	for try := 0; try < 8 && !ok; try++ { // the race build drops some Puts
		a := getBuf[float64](n40)
		keep := a[:1:1]
		putBuf(a)
		b := getBuf[float64](n48)
		if sameArray(keep, b) {
			t.Fatal("a 48 KiB request was served the 40 KiB buffer")
		}
		ok = sameArray(keep, getBuf[float64](n40))
		putBuf(b)
	}
	if !ok {
		t.Error("the released 40 KiB buffer was not re-served to a 40 KiB request")
	}
	if c := cap(getBuf[float64](n40)); c != n40 {
		t.Errorf("a 40 KiB miss has capacity %d elements, want exactly %d", c, n40)
	}
}

// TestLargeBuffersSurviveCollections pins the kept tier: a run performs
// several garbage collections between two combines, and the second must
// still find the first one's megabyte buffers, which a sync.Pool alone has
// dropped by then. Small classes stay with their sync.Pool.
func TestLargeBuffersSurviveCollections(t *testing.T) {
	const n = 1 << 20 / 8
	a := getBuf[float64](n)
	keep := a[:1:1]
	putBuf(a)
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	b := getBuf[float64](n)
	defer putBuf(b)
	if !sameArray(keep, b) {
		t.Error("three collections after its release, a 1 MiB buffer was allocated again instead of re-served")
	}

	// Past the budget a release falls through to the class's sync.Pool.
	k := classCeil(n * 8)
	c := getBuf[float64](n)
	kept.Lock()
	held, listed := kept.bytes, len(kept.free[k])
	kept.bytes = keepBytes - classSize(k) + 1
	kept.Unlock()
	putBuf(c)
	kept.Lock()
	over := len(kept.free[k]) - listed
	kept.bytes = held
	kept.Unlock()
	if over != 0 {
		t.Errorf("a release past the budget was kept (%d more on the stack)", over)
	}
}

// TestPoolOperationsDoNotAllocate checks that recycling is free: the classes
// store bare pointers, so neither a hit nor a release boxes anything, at
// sizes on both sides of slabMax.
func TestPoolOperationsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build's sync.Pool drops items at random")
	}
	noGC(t)
	oneP(t)
	for _, n := range []int{16, 640} { // 128 B, 5 KiB
		putBuf(getBuf[float64](n))
		if a := testing.AllocsPerRun(1000, func() { putBuf(getBuf[float64](n)) }); a != 0 {
			t.Errorf("getBuf+putBuf of %d bytes: %v allocations per cycle, want 0", n*8, a)
		}
	}
}

// FuzzBufClasses checks the class arithmetic the pool's safety rests on: a
// request is served from a class at least its size, a released buffer joins
// a class at most its capacity, a buffer handed out at class size returns to
// the same class, and every class size keeps a slab carve 8-aligned.
func FuzzBufClasses(f *testing.F) {
	for _, n := range []int{minPooled, minPooled + 1, 80, 1000, 1024, 1025, slabMax - 1, slabMax,
		40 << 10, 48 << 10, 1<<30 - 1, 1 << 30, 1<<30 + 1, 1 << 40} {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, n int) {
		if n < minPooled {
			return
		}
		fl := classFloor(n)
		if fl < 0 || fl >= numClasses || classSize(fl) > n {
			t.Fatalf("classFloor(%d) = %d (size %d)", n, fl, classSize(fl))
		}
		if fl+1 < numClasses && classSize(fl+1) <= n {
			t.Fatalf("classFloor(%d) = %d is not the largest class that fits", n, fl)
		}
		ce := classCeil(n)
		if ce == numClasses {
			if n <= classSize(numClasses-1) {
				t.Fatalf("classCeil(%d) overflowed below the largest class", n)
			}
			return
		}
		size := classSize(ce)
		if size < n || (ce > 0 && classSize(ce-1) >= n) {
			t.Fatalf("classCeil(%d) = %d (size %d) is not the smallest class that fits", n, ce, size)
		}
		if classFloor(size) != ce {
			t.Fatalf("a class-%d buffer (%d bytes) returns to class %d", ce, size, classFloor(size))
		}
		if size%8 != 0 || size-n > n/4 {
			t.Fatalf("class size %d for a %d-byte request: unaligned or more than a quarter over", size, n)
		}
	})
}

// FuzzSlabCarve checks that whatever sizes a sender carves, every region is
// 8-aligned, inside its chunk and disjoint from the one before it.
func FuzzSlabCarve(f *testing.F) {
	f.Add([]byte{1, 7, 8, 9, 63, 64, 200, 255, 0, 3})
	f.Fuzz(func(t *testing.T, sizes []byte) {
		var s slab
		var chunks [][]byte // kept reachable, so no chunk reuses another's address
		var prevEnd uintptr
		for _, b := range sizes {
			n := 1 + int(b)*9 // up to 2296 bytes: crosses the first chunks
			p := uintptr(s.alloc(n))
			base := uintptr(unsafe.Pointer(unsafe.SliceData(s.buf)))
			if len(chunks) == 0 || unsafe.SliceData(chunks[len(chunks)-1]) != unsafe.SliceData(s.buf) {
				chunks = append(chunks, s.buf)
				prevEnd = base
			}
			if p%8 != 0 {
				t.Fatalf("carve of %d bytes at %#x is not 8-aligned", n, p)
			}
			if p < prevEnd || p+uintptr(n) > base+uintptr(len(s.buf)) {
				t.Fatalf("carve [%#x, +%d) overlaps its predecessor (end %#x) or leaves its chunk [%#x, +%d)",
					p, n, prevEnd, base, len(s.buf))
			}
			prevEnd = p + uintptr(n)
		}
	})
}
