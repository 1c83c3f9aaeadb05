package mpi

// This file is the data plane of the sharded transport: pooled envelopes
// with an unboxed payload representation, the open-addressed match table
// that indexes mailboxes by (comm,src,tag) without a runtime map, and the
// one size-classed buffer pool every pointer-free payload lives in —
// eager-send copies, AcquireBuf / ReleaseBuf scratch, and the collectives'
// staging blocks and accumulators. A message that finds its receiver parked
// in RecvInto uses none of it: p2p.go's deliverDirect copies it from the
// sender's slice into the receiver's own buffer. The locking hierarchy that coordinates it
// lives in world.go; the delivery order, the wake filter and the
// buffer-ownership rules are documented in DESIGN.md §8. The data plane is
// blocking-model-agnostic: the event-driven path (event.go) consumes the same
// envelopes, match queues and pool — only the park/wake discipline above them
// differs.

import (
	"math/bits"
	"reflect"
	"sync"
	"unsafe"
)

// elemSize returns the in-memory size of T. Unlike the previous reflect
// lookup on data[0], it is a compile-time constant and correct for
// zero-length sends.
func elemSize[T any]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// typeOf returns the reflect.Type of T without boxing a value of T.
func typeOf[T any]() reflect.Type {
	return reflect.TypeOf((*T)(nil)).Elem()
}

// envelope is one in-flight message. The payload is stored unboxed — raw
// pointer, length, capacity and element type — so queueing a message
// allocates nothing and the receiver reconstructs its slice with a cast,
// not a copy. Envelopes are pooled: the receive path recycles them once
// the payload has been extracted.
type envelope struct {
	commID  int
	src     int // sender's rank in its local group
	tag     int
	ptr     unsafe.Pointer // first payload element (keeps the buffer alive)
	n       int            // payload length, in elements
	cp      int            // payload capacity, so pooled buffers keep their size
	etype   reflect.Type   // payload element type
	bytes   int
	arrival float64
	next    *envelope // intrusive link in its match queue
}

var envPool = sync.Pool{New: func() any { return new(envelope) }}

func getEnv() *envelope { return envPool.Get().(*envelope) }

// putEnv recycles an envelope. The payload reference is cleared so the pool
// never pins a buffer.
func putEnv(env *envelope) {
	*env = envelope{}
	envPool.Put(env)
}

// setPayload stores data in the envelope without copying: the receiver gets
// the slice's array itself, owned or lent (see sendMode).
func setPayload[T any](env *envelope, data []T) {
	if len(data) > 0 {
		env.ptr = unsafe.Pointer(unsafe.SliceData(data))
	} else {
		env.ptr = nil
	}
	env.n = len(data)
	env.cp = cap(data)
	env.etype = typeOf[T]()
}

// payload reconstructs the typed slice from an envelope. It reports false
// on element-type mismatch (the receive-side MPI datatype check).
func payload[T any](env *envelope) ([]T, bool) {
	if env.etype != typeOf[T]() {
		return nil, false
	}
	if env.n == 0 {
		return nil, true
	}
	return unsafe.Slice((*T)(env.ptr), env.cp)[:env.n:env.cp], true
}

// copyIn copies data into transport-owned memory and stores it in env.
// Pointer-free payloads come from the buffer pool (refilled from the
// sender's slab); anything else gets a dedicated typed allocation. A fresh
// allocation is made together with the copy (runtime.makeslicecopy), which
// clears only the part of the buffer past the payload: a 40 KiB collective
// result is not zeroed first and then overwritten.
func copyIn[T any](env *envelope, st *procState, data []T) {
	n := len(data)
	if n == 0 {
		setPayload(env, data)
		return
	}
	dst, fresh := pooled[T](st, n)
	if dst == nil {
		dst = make([]T, fresh)
		copy(dst, data)
		dst = dst[:n]
	} else {
		copy(dst, data)
	}
	setPayload(env, dst)
}

// pointerFreeKind reports whether values of t contain no pointers the
// garbage collector must see, making them safe to store in the untyped
// pool and slab memory.
func pointerFreeKind(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return true
	}
	return false
}

// slab is a per-sender bump allocator: many small buffers share one chunk,
// so a pool miss below slabMax — and every payload too small to pool —
// costs (amortised) almost no allocation even when the receiver never
// releases it. Chunks are untyped bytes, invisible to the garbage
// collector's pointer scans, so only pointer-free element types are carved
// from them (see pooled). Carved regions are disjoint and handed out with
// their exact capacity, so neighbouring buffers can never be reached
// through append. A chunk is freed by the GC once no carve of it is in use
// or pooled.
type slab struct {
	buf []byte
	off int
}

// Chunks grow fourfold from slabFirst to slabChunk: most ranks of a small
// world carve a handful of buffers that the pool then recycles for the rest
// of the run, and should not pay for 64 KiB to do so, while a rank whose
// receivers never release reaches the full chunk after three allocations.
const (
	slabFirst = 1 << 10
	slabChunk = 64 << 10
)

// alloc carves n bytes from the current chunk, 8-aligned (Go's maximum
// scalar alignment), starting a fresh chunk when exhausted.
func (s *slab) alloc(n int) unsafe.Pointer {
	n = (n + 7) &^ 7
	if s.off+n > len(s.buf) {
		s.buf = make([]byte, max(n, min(slabChunk, max(slabFirst, 4*len(s.buf)))))
		s.off = 0
	}
	p := unsafe.Pointer(unsafe.SliceData(s.buf[s.off:]))
	s.off += n
	return p
}

// matchSlot is one (comm, src, tag) signature's FIFO in a matchTable. A slot
// is occupied exactly while its queue is non-empty: head == nil marks it free.
type matchSlot struct {
	comm, src, tag int
	head, tail     *envelope
}

// matchTable indexes the match queues of one process by exact
// (communicator, source rank, tag) signature: a small open-addressed table
// with linear probing and backward-shift deletion, so the message path makes
// no runtime map call and hashes three integers inline instead of a 24-byte
// key. It indexes the mailbox; an envelope's own link field chains a queue,
// so the table only hands out slots. Slot pointers and indexes are valid until
// the next slot or del call. It starts at firstSlots slots and doubles at
// three-quarters load — a rank's live signatures are its two or three
// neighbours and the collective in flight, and every byte here is paid per
// rank. Guarded by the owning procState.mu.
type matchTable struct {
	slots []matchSlot // power-of-two length; nil until the first slot call or giveFirstSlots
	n     int         // occupied slots
}

// firstSlots is the size of a new matchTable.
const firstSlots = 4

// giveFirstSlots hands each of a block of new processes its first match
// slots, all cut from one array: one allocation per block, not one per
// rank at its first receive. Each table is capped at its own end, so growth
// moves it to an array of its own.
func giveFirstSlots(sts []procState) {
	slots := make([]matchSlot, firstSlots*len(sts))
	for i := range sts {
		sts[i].mb.q.slots = slots[i*firstSlots : (i+1)*firstSlots : (i+1)*firstSlots]
	}
}

// sigHash mixes a signature into a table index source.
func sigHash(comm, src, tag int) int {
	h := uint64(comm)*0x9E3779B97F4A7C15 + uint64(src)*0xC2B2AE3D27D4EB4F + uint64(tag)*0x165667B19E3779F9
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	return int(h)
}

// find returns the index of the signature's slot, or -1.
func (t *matchTable) find(comm, src, tag int) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := sigHash(comm, src, tag) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.head == nil {
			return -1
		}
		if s.comm == comm && s.src == src && s.tag == tag {
			return i
		}
	}
}

// slot returns the signature's slot, claiming a free one when it has none.
// A claimed slot has a nil head, which the caller must set before the next
// table call.
func (t *matchTable) slot(comm, src, tag int) *matchSlot {
	if t.slots == nil {
		t.slots = make([]matchSlot, firstSlots)
	}
	for {
		mask := len(t.slots) - 1
		for i := sigHash(comm, src, tag) & mask; ; i = (i + 1) & mask {
			s := &t.slots[i]
			if s.head == nil {
				if (t.n+1)*4 > len(t.slots)*3 {
					break // grow, then probe the new table
				}
				s.comm, s.src, s.tag = comm, src, tag
				t.n++
				return s
			}
			if s.comm == comm && s.src == src && s.tag == tag {
				return s
			}
		}
		old := t.slots
		t.slots = make([]matchSlot, 2*len(old))
		mask = len(t.slots) - 1
		for _, s := range old {
			if s.head == nil {
				continue
			}
			i := sigHash(s.comm, s.src, s.tag) & mask
			for t.slots[i].head != nil {
				i = (i + 1) & mask
			}
			t.slots[i] = s
		}
	}
}

// del frees slot i, whose queue has just emptied, shifting back the entries
// that probed past it so every remaining signature stays reachable from its
// home slot without tombstones.
func (t *matchTable) del(i int) {
	mask := len(t.slots) - 1
	t.n--
	for j := i; ; {
		j = (j + 1) & mask
		s := &t.slots[j]
		if s.head == nil {
			break
		}
		// s may move into the hole at i unless its home lies cyclically in
		// (i, j]: then the probe from home never passes through i.
		if home := sigHash(s.comm, s.src, s.tag) & mask; (j-home)&mask < (j-i)&mask {
			continue
		}
		t.slots[i] = *s
		i = j
	}
	t.slots[i] = matchSlot{}
}

// each calls f for every occupied slot, in table order.
func (t *matchTable) each(f func(s *matchSlot)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.head != nil {
			f(s)
		}
	}
}

// mailbox holds a process's undelivered messages, one FIFO per exact
// (comm,src,tag) signature: a receive names all three, so matching is one
// table lookup. Guarded by the owning procState.mu.
type mailbox struct {
	q matchTable
}

// push appends an arriving envelope to its signature's queue.
func (mb *mailbox) push(env *envelope) {
	env.next = nil
	s := mb.q.slot(env.commID, env.src, env.tag)
	if s.head == nil {
		s.head = env
	} else {
		s.tail.next = env
	}
	s.tail = env
}

// peek returns the message a receive of (comm,src,tag) would match next,
// without removing it.
func (mb *mailbox) peek(comm, src, tag int) *envelope {
	if i := mb.q.find(comm, src, tag); i >= 0 {
		return mb.q.slots[i].head
	}
	return nil
}

// take removes and returns the next matching message, or nil.
func (mb *mailbox) take(comm, src, tag int) *envelope {
	i := mb.q.find(comm, src, tag)
	if i < 0 {
		return nil
	}
	s := &mb.q.slots[i]
	env := s.head
	s.head = env.next
	if s.head == nil {
		mb.q.del(i)
	}
	env.next = nil
	return env
}

// drain recycles every queued envelope (process death/exit).
func (mb *mailbox) drain() {
	mb.q.each(func(s *matchSlot) {
		for env := s.head; env != nil; {
			n := env.next
			putEnv(env)
			env = n
		}
	})
	mb.q = matchTable{}
}

// The buffer pool. Pointer-free memory is interchangeable whatever its
// element type, so buffers are pooled by byte size alone: class k holds
// buffers of at least classSize(k) bytes, four classes per power of two from
// minPooled up (64, 80, 96, 112, 128, 160, ... bytes), and a buffer handed out
// from class k has exactly that capacity, so it returns to the class it came
// from. Distinct sizes therefore never evict each other, rounding wastes at
// most a quarter, and from 32 KiB up — where the Go allocator itself rounds
// to 8 KiB pages — a class-sized miss costs what the exact request would.
// The pools store bare pointers, which sync.Pool takes without boxing.
const (
	// minPooled is the smallest buffer the pool keeps. Below it a buffer is
	// carved exactly and left to the GC: recycling would cost more than the
	// carve, and it keeps shared constants such as the 1-byte barrierToken
	// out of circulation.
	minPooled = 64
	// slabMax bounds the classes refilled from the sender's slab; a miss at
	// or above it is an allocation of its own.
	slabMax = 4 << 10
	// numClasses covers minPooled .. 1 GiB; larger buffers are not pooled.
	numClasses = 4*24 + 1
)

var bufClasses [numClasses]sync.Pool

// Classes of keepMin bytes and more have a second tier in front of their
// sync.Pool: a plain stack under a lock that no garbage collection empties.
// A sync.Pool forgets everything over two collections, and a simulated run
// allocates about that much between two combines or two gathers, so whether
// a run found the last one's 10 MiB reduction accumulators or allocated them
// all again was decided by where a collection happened to fall — a run's
// allocation total flipped between two values a hundred MiB apart. The stacks
// hold what they are given until it is asked for, up to keepBytes over all
// classes; a release past that goes to the class's sync.Pool as before. Large
// buffers move once per collective, not per message, so one lock serves.
const (
	keepMin   = 64 << 10
	keepBytes = 256 << 20
)

var kept struct {
	sync.Mutex
	bytes int
	free  [numClasses][]unsafe.Pointer
}

// takeKept pops a kept buffer of class k, nil when there is none.
func takeKept(k int) unsafe.Pointer {
	kept.Lock()
	defer kept.Unlock()
	l := kept.free[k]
	if len(l) == 0 {
		return nil
	}
	p := l[len(l)-1]
	l[len(l)-1] = nil
	kept.free[k] = l[:len(l)-1]
	kept.bytes -= classSize(k)
	return p
}

// keep pushes a released buffer of class k and reports whether it fitted.
func keep(k int, p unsafe.Pointer) bool {
	kept.Lock()
	defer kept.Unlock()
	if kept.bytes+classSize(k) > keepBytes {
		return false
	}
	kept.bytes += classSize(k)
	kept.free[k] = append(kept.free[k], p)
	return true
}

// classSize is the capacity in bytes of class k's buffers.
func classSize(k int) int { return (4 + k&3) << (k>>2 + 4) }

// classFloor returns the largest class whose size is at most n, for
// n >= minPooled: the class a released buffer of n bytes joins.
func classFloor(n int) int {
	b := bits.Len(uint(n)) // 2^(b-1) <= n < 2^b
	k := 4*(b-7) + n>>(b-3) - 4
	if k >= numClasses {
		k = numClasses - 1
	}
	return k
}

// classCeil returns the smallest class whose size is at least n, for
// n >= minPooled: the class that serves a request of n bytes. It is
// numClasses when n exceeds the largest class.
func classCeil(n int) int {
	k := classFloor(n)
	if classSize(k) < n {
		k++
	}
	return k
}

// pooled returns a []T of length n with unspecified contents from the pool
// or, when the caller is a sender (st != nil), carved from st's slab: every
// pointer-free request below minPooled, and a pool miss below slabMax, so
// small buffers that are never released keep their amortised allocation
// cost. Otherwise it returns nil and the length of the fresh []T the caller
// must allocate: the request's class in elements, so the buffer joins that
// class when released, or n for pointerful T and sizes the pool does not
// serve.
func pooled[T any](st *procState, n int) ([]T, int) {
	es := elemSize[T]()
	bytes := n * es
	if !pointerFreeKind(typeOf[T]()) || (bytes < minPooled && st == nil) {
		return nil, n
	}
	if bytes < minPooled {
		return unsafe.Slice((*T)(st.sl.alloc(bytes)), n), 0
	}
	k := classCeil(bytes)
	if k >= numClasses {
		return nil, n
	}
	size := classSize(k)
	var p unsafe.Pointer
	if size >= keepMin {
		p = takeKept(k)
	}
	if p == nil {
		p, _ = bufClasses[k].Get().(unsafe.Pointer)
	}
	if p == nil && size < slabMax && st != nil {
		p = st.sl.alloc(size)
	}
	if p == nil {
		return nil, size / es
	}
	return unsafe.Slice((*T)(p), size/es)[:n], 0
}

// acquire returns a []T of length n with unspecified contents; callers must
// overwrite every element. Pointer-free T is served by pooled; pointerful T is
// a plain typed allocation.
func acquire[T any](st *procState, n int) []T {
	b, fresh := pooled[T](st, n)
	if b == nil {
		b = make([]T, fresh)[:n]
	}
	return b
}

// getBuf is acquire for callers that are not copying a send: staging blocks,
// accumulators and AcquireBuf.
func getBuf[T any](n int) []T { return acquire[T](nil, n) }

// cloneBuf returns a pooled copy of data.
func cloneBuf[T any](data []T) []T {
	b := getBuf[T](len(data))
	copy(b, data)
	return b
}

// putBuf returns a buffer to the pool. The caller must own b exclusively and
// must not touch it — or any slice sharing its memory — afterwards. Buffers
// the pool cannot serve again are left to the GC: pointerful element types,
// anything under minPooled, and sub-slices that do not start 8-aligned.
func putBuf[T any](b []T) {
	bytes := cap(b) * elemSize[T]()
	if bytes < minPooled || !pointerFreeKind(typeOf[T]()) {
		return
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)&7 != 0 {
		return
	}
	checkNotLent(p)
	k := classFloor(bytes)
	poison(p, classSize(k))
	if classSize(k) >= keepMin && keep(k, p) {
		return
	}
	bufClasses[k].Put(p)
}

// AcquireBuf returns a []T of length n from the transport's buffer pool;
// hand it back with ReleaseBuf once done. Contents are unspecified.
func AcquireBuf[T any](n int) []T { return getBuf[T](n) }

// ReleaseBuf hands a buffer back to the transport's pool once its contents
// have been consumed: a received payload, Reduce's result at the root, or
// an AcquireBuf buffer that was never sent. The caller must own it
// exclusively and release it exactly once; never release a sub-slice and
// its parent, or a slice another holder still reads. What Bcast, Allreduce
// and Allgather return is lent, never owned: it is never released (race
// builds panic). Pointer-free buffers of 64 bytes and more are recycled,
// whatever allocated them; anything else is dropped for the GC.
func ReleaseBuf[T any](b []T) { putBuf(b) }
