package mpi

import (
	"errors"
	"testing"
	"unsafe"
)

// TestElemSize checks the cached element-size helper against unsafe.Sizeof
// for the types the application actually ships.
func TestElemSize(t *testing.T) {
	if got := elemSize[byte](); got != 1 {
		t.Errorf("elemSize[byte] = %d", got)
	}
	if got := elemSize[int32](); got != 4 {
		t.Errorf("elemSize[int32] = %d", got)
	}
	if got := elemSize[float64](); got != 8 {
		t.Errorf("elemSize[float64] = %d", got)
	}
	type pair struct{ a, b float64 }
	if got, want := elemSize[pair](), int(unsafe.Sizeof(pair{})); got != want {
		t.Errorf("elemSize[pair] = %d, want %d", got, want)
	}
	if got := elemSize[string](); got != int(unsafe.Sizeof("")) {
		t.Errorf("elemSize[string] = %d", got)
	}
}

// TestZeroLengthSendSizing sends an empty slice: the element size must not be
// derived from data[0] (there is none), the message must carry zero bytes,
// and the typed match must still work — including rejecting a receiver of
// the wrong element type.
func TestZeroLengthSendSizing(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		if c.Rank() == 0 {
			must(t, Send(c, 1, 1, []float64{}))
			must(t, Send(c, 1, 2, []float64(nil)))
			must(t, Send(c, 1, 3, []int32{}))
			return
		}
		data, st, err := Recv[float64](c, 0, 1)
		must(t, err)
		if len(data) != 0 || st.Bytes != 0 {
			t.Errorf("empty send: got %d values, %d bytes", len(data), st.Bytes)
		}
		data, st, err = Recv[float64](c, 0, 2)
		must(t, err)
		if len(data) != 0 || st.Bytes != 0 {
			t.Errorf("nil send: got %d values, %d bytes", len(data), st.Bytes)
		}
		// A zero-length message still remembers its element type.
		if _, _, err := Recv[float64](c, 0, 3); !errors.Is(err, ErrType) {
			t.Errorf("zero-length type mismatch: err = %v, want ErrType", err)
		}
	})
}

// TestSendOwnedZeroCopy checks the ownership-transfer path the collectives
// send their staging blocks by: a buffer handed over with sendOwned must
// arrive without being copied — the receiver observes the sender's backing
// array.
func TestSendOwnedZeroCopy(t *testing.T) {
	n := slabMax / int(unsafe.Sizeof(float64(0)))
	var sentPtr unsafe.Pointer
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		if c.Rank() == 0 {
			buf := make([]float64, n)
			for i := range buf {
				buf[i] = float64(i)
			}
			sentPtr = unsafe.Pointer(unsafe.SliceData(buf))
			must(t, sendOwned(c, 1, 9, buf))
			return
		}
		got, st, err := Recv[float64](c, 0, 9)
		must(t, err)
		if st.Bytes != n*8 || len(got) != n || got[n-1] != float64(n-1) {
			t.Errorf("payload corrupted: %d values, %d bytes", len(got), st.Bytes)
		}
		if unsafe.Pointer(unsafe.SliceData(got)) != sentPtr {
			t.Error("sendOwned payload was copied; expected ownership transfer")
		}
		ReleaseBuf(got)
	})
}

// sameArray reports whether two slices start at the same address.
func sameArray[T any](a, b []T) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b)
}

// reacquired reports whether a buffer of n elements, once released, is the
// one the next acquisition of m elements receives. The sync.Pool behind a
// class may drop an item (a GC, the race build's random drops), so a reuse
// is looked for over a few tries; a non-reuse must hold on every try.
func reacquired[T any](n, m int) bool {
	for try := 0; try < 8; try++ {
		b := AcquireBuf[T](n)
		keep := b[:1:1] // keeps the array reachable, so a new one cannot take its address
		ReleaseBuf(b)
		b2 := AcquireBuf[T](m)
		if sameArray(keep, b2) {
			return true
		}
	}
	return false
}

// TestBufferPoolRoundTrip checks the pool's admission rule: a released
// pointer-free buffer of 64 bytes or more is what the next acquisition of its
// class receives, small or large; a buffer under 64 bytes and a pointerful
// one are never pooled.
func TestBufferPoolRoundTrip(t *testing.T) {
	for _, n := range []int{8, 128, slabMax / 8, slabMax} { // 64 B .. 32 KiB
		if !reacquired[float64](n, n) {
			t.Errorf("released %d-byte buffer never reused", n*8)
		}
	}
	if reacquired[byte](1, 1) {
		t.Error("a 1-byte buffer came back from the pool")
	}
	if reacquired[byte](minPooled-1, minPooled-1) {
		t.Errorf("a %d-byte buffer came back from the pool", minPooled-1)
	}
	if reacquired[string](64, 64) {
		t.Error("a pointerful buffer came back from the pool")
	}
	// A released pointerful buffer keeps its contents: nothing poisons or
	// reuses memory the GC must scan.
	s := AcquireBuf[string](64)
	s[0] = "kept"
	ReleaseBuf(s)
	if s[0] != "kept" {
		t.Error("released pointerful buffer was overwritten")
	}
}

// TestProcStateSize pins procState to the 384-byte allocation size class.
// The struct is allocated once per rank, so a 4096-rank workload pays every
// byte it grows by thousands of times over.
func TestProcStateSize(t *testing.T) {
	const limit = 384
	if got := unsafe.Sizeof(procState{}); got > limit {
		t.Errorf("procState is %d bytes, over the %d-byte size class: justify the growth with paired benchmark runs (steady_4k setup_s, repair_4k alloc_mib), then raise the limit", got, limit)
	}
}
