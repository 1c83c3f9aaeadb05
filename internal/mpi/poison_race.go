//go:build race

package mpi

import (
	"sync"
	"unsafe"
	"weak"
)

// poison overwrites a buffer entering the pool, so a holder that released
// it too early reads 0xFF bytes (NaN as a float, -1 as an int) — a wrong
// value in a golden — and trips the race detector if it is still reading.
// Race builds only; the normal build's poison is empty.
func poison(p unsafe.Pointer, n int) {
	b := unsafe.Slice((*byte)(p), n)
	for i := range b {
		b[i] = 0xFF
	}
}

// lentArrays is the race build's registry of lent collective results, keyed
// by the address of their first element. Each entry holds a weak pointer,
// so the registry never keeps an array alive, and an address the GC has
// reclaimed and handed to a new buffer does not trip: its entry's pointer
// reads nil. Entries of reclaimed arrays are swept each time the registry
// has doubled.
var lentArrays struct {
	sync.Mutex
	m     map[uintptr]weak.Pointer[byte]
	sweep int // size at which the next sweep runs
}

// lent marks b as a collective's lent result (DESIGN.md §8, "Lend"): every
// member reads the one array and nobody releases it, so putBuf refuses it.
// Only buffers the pool would take are recorded; a lent array must be heap
// memory, which every collective result and Bcast root argument is.
func lent[T any](b []T) []T {
	if cap(b)*elemSize[T]() < minPooled || !pointerFreeKind(typeOf[T]()) {
		return b
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	wp := weak.Make((*byte)(p))
	l := &lentArrays
	l.Lock()
	defer l.Unlock()
	if len(l.m) >= l.sweep {
		for k, v := range l.m {
			if v.Value() == nil {
				delete(l.m, k)
			}
		}
		l.sweep = 2*len(l.m) + 1024
	}
	if l.m == nil {
		l.m = make(map[uintptr]weak.Pointer[byte])
	}
	l.m[uintptr(p)] = wp
	return b
}

// checkNotLent panics when p is the first element of a lent array that is
// still alive: releasing it would hand every member's result to the pool's
// next taker.
func checkNotLent(p unsafe.Pointer) {
	if isLent(uintptr(p)) {
		panic("mpi: ReleaseBuf of a lent collective result: what Bcast, Allreduce and Allgather return is read-only, shared by every member, and never released")
	}
}

// isLent reports whether addr is the first element of a live lent array.
func isLent(addr uintptr) bool {
	l := &lentArrays
	l.Lock()
	wp, ok := l.m[addr]
	l.Unlock()
	return ok && uintptr(unsafe.Pointer(wp.Value())) == addr
}
