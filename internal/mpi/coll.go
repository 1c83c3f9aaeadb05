package mpi

import "fmt"

// Blocking collectives over the p2p layer. Each tree or dissemination
// algorithm exists once, over a rankList (the helpers are in coll_hier.go):
// the flat collectives run it over the whole communicator, the hierarchical
// ones over a node's members and over the node leaders. Every reduction folds
// whole buffers through one fold (fold.go), which runs Sum[float64], passed
// as that concrete instantiation, as a fused loop. The event-driven path has
// CPS twins for Barrier and Allreduce in event.go that share these kinds,
// sequence counters, rank lists and algorithm shapes — a change to an
// algorithm here (or in coll_hier.go) must be mirrored there, or the
// virtual-time parity tests (TestEventVirtualTimeParity) will catch the
// divergence.

// Collective kinds for internal tag construction.
const (
	kindBarrier = iota + 1
	kindBcast
	kindReduce
	kindGather
	_ // a retired kind: its slot keeps every later kind's tag
	kindAllgather
	kindAllreduce
)

// Number constrains the element types usable with the built-in reduction
// operators.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~float32 | ~float64
}

// Sum is the MPI_SUM reduction operator.
func Sum[T Number](a, b T) T { return a + b }

// MinOp is the MPI_MIN reduction operator.
func MinOp[T Number](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// barrierToken is the 1-byte payload of every barrier dissemination
// message. It is shared and immutable, and the pool keeps nothing under
// minPooled bytes, so a dropped send cannot put it into circulation: barrier
// rounds move no payload bytes and allocate nothing.
var barrierToken = []byte{1}

// rankList is the set of comm ranks one phase of a collective runs over:
// the whole communicator (nil list — the flat algorithms) or a topology
// list (a node's members, the node leaders). The tree and dissemination
// helpers index it, so flat and hierarchical collectives — and their CPS
// twins in event.go — share one implementation of each shape.
type rankList struct {
	list []int // nil = identity: rank i of the communicator
	n    int
}

func (l rankList) at(i int) int {
	if l.list == nil {
		return i
	}
	return l.list[i]
}

func wholeComm(c *Comm) rankList  { return rankList{n: c.Size()} }
func subList(list []int) rankList { return rankList{list: list, n: len(list)} }

// Barrier blocks until all members of the intracommunicator have entered it
// (dissemination algorithm over point-to-point messages). If any member has
// failed, the barrier terminates at every rank — possibly non-uniformly,
// some ranks succeeding and others reporting MPI_ERR_PROC_FAILED — which is
// exactly the detection idiom the paper builds on (Fig. 3, line 13).
func (c *Comm) Barrier() error {
	if c.IsInter() {
		return c.fire(fmt.Errorf("mpi: Barrier on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "barrier")
	tag := internalTag(kindBarrier, c.nextSeq(kindBarrier))
	var err error
	if t := c.hierTopo(); t != nil {
		err = hierBarrier(c, t, tag)
	} else {
		err = disseminate(c, tag, wholeComm(c), c.rank)
	}
	if err != nil {
		abortCollective(c, tag, err)
		return c.fire(err)
	}
	opEnd(c, "barrier", t0)
	return nil
}

// disseminate runs the dissemination rounds of a barrier over l: in round k
// member i signals member i+k and waits for member i-k. Over the whole
// communicator it is the flat barrier (single-host communicators and the
// FlatCollectives reference); over the node leaders it is the inter-node
// phase of hierBarrier.
func disseminate(c *Comm, tag int, l rankList, myIdx int) error {
	n := l.n
	for k := 1; k < n; k <<= 1 {
		if err := sendOwned(c, l.at((myIdx+k)%n), tag, barrierToken); err != nil {
			return err
		}
		if _, _, err := recvRaw[byte](c, l.at((myIdx-k+n)%n), tag, true); err != nil {
			return err
		}
	}
	return nil
}

// Bcast broadcasts root's buffer to all members of the intracommunicator
// using a binomial tree. Non-root callers pass nil and receive the data in
// the return value. Bcast consumes root's data: every member's result, the
// root's included, is that one array, lent read-only (DESIGN.md §8,
// "Lend"). Nobody writes or releases it; the GC reclaims it.
func Bcast[T any](c *Comm, root int, data []T) ([]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Bcast on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "bcast")
	tag := internalTag(kindBcast, c.nextSeq(kindBcast))
	var buf []T
	var err error
	if t := c.hierTopo(); t != nil {
		buf, err = hierBcast(c, t, tag, root, data)
	} else {
		buf, err = bcastList(c, tag, wholeComm(c), root, c.rank, data)
	}
	if err != nil {
		abortCollective(c, tag, err)
		return nil, c.fire(err)
	}
	opEnd(c, "bcast", t0)
	return buf, nil
}

// Reduce combines every member's buffer elementwise with op into a single
// buffer delivered at root (binomial reduction tree). Non-root callers
// receive nil. Reduce takes ownership of data, which must be a buffer the
// caller holds exclusively (AcquireBuf): the tree folds into it and hands it
// to the parent uncopied, so the caller must not touch it after the call,
// whatever the outcome. The root's result is a pooled buffer for ReleaseBuf.
func Reduce[T any](c *Comm, root int, data []T, op func(T, T) T) ([]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Reduce on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "reduce")
	tag := internalTag(kindReduce, c.nextSeq(kindReduce))
	fo := newFolder(op)
	var buf []T
	var err error
	if t := c.hierTopo(); t != nil {
		buf, err = hierReduce(c, t, tag, root, data, true, fo)
	} else {
		buf, err = reduceList(c, tag, wholeComm(c), root, c.rank, data, true, fo)
	}
	if err != nil {
		abortCollective(c, tag, err)
		return nil, c.fire(err)
	}
	opEnd(c, "reduce", t0)
	return buf, nil
}

// Allreduce combines all buffers with op and delivers the result to every
// member. Flat: reduce to rank 0, then broadcast, sharing one internal tag
// so failure-abort propagation covers both phases. Hierarchical: the same
// two trees over node leaders for small payloads, or a ring
// reduce-scatter/allgather over leaders past collRingCutover bytes.
// Allreduce borrows data. The result is a collective-owned accumulator lent
// to the members that share it (all of them, or a node's under the ring):
// read-only, never released.
func Allreduce[T any](c *Comm, data []T, op func(T, T) T) ([]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Allreduce on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "allreduce")
	tag := internalTag(kindAllreduce, c.nextSeq(kindAllreduce))
	fo := newFolder(op)
	var buf []T
	var err error
	if t := c.hierTopo(); t != nil {
		if useRing(len(data)*elemSize[T](), len(t.leaders)) {
			buf, err = hierAllreduceRing(c, t, tag, data, fo)
		} else {
			buf, err = hierAllreduce(c, t, tag, data, fo)
		}
	} else {
		whole := wholeComm(c)
		buf, err = reduceList(c, tag, whole, 0, c.rank, data, false, fo)
		if err == nil {
			buf, err = bcastList(c, tag, whole, 0, c.rank, buf)
		}
	}
	if err != nil {
		abortCollective(c, tag, err)
		return nil, c.fire(err)
	}
	opEnd(c, "allreduce", t0)
	return buf, nil
}

// Gather collects every member's buffer at root. At root the result has one
// slice per rank (rank order); elsewhere the result is nil.
func Gather[T any](c *Comm, root int, data []T) ([][]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Gather on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "gather")
	tag := internalTag(kindGather, c.nextSeq(kindGather))
	if t := c.hierTopo(); t != nil {
		out, err := hierGather(c, t, tag, root, data)
		if err != nil {
			abortCollective(c, tag, err)
			return nil, c.fire(err)
		}
		opEnd(c, "gather", t0)
		return out, nil
	}
	n := c.Size()
	if c.rank != root {
		if err := sendRaw(c, root, tag, data); err != nil {
			abortCollective(c, tag, err)
			return nil, c.fire(err)
		}
		opEnd(c, "gather", t0)
		return nil, nil
	}
	out := make([][]T, n)
	out[root] = cloneBuf(data)
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		got, _, err := recvRaw[T](c, r, tag, true)
		if err != nil {
			abortCollective(c, tag, err)
			return nil, c.fire(err)
		}
		out[r] = got
	}
	opEnd(c, "gather", t0)
	return out, nil
}

// Allgather collects equal-length buffers from every member and delivers the
// full rank-ordered set to all members (gather to rank 0 plus broadcast of
// the flattened buffer, one internal tag). Allgather borrows data. The
// pieces are views of one collective-owned array that every member reads:
// read-only, never released.
func Allgather[T any](c *Comm, data []T) ([][]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Allgather on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "allgather")
	tag := internalTag(kindAllgather, c.nextSeq(kindAllgather))
	if t := c.hierTopo(); t != nil {
		out, err := hierAllgather(c, t, tag, data)
		if err != nil {
			abortCollective(c, tag, err)
			return nil, c.fire(err)
		}
		opEnd(c, "allgather", t0)
		return out, nil
	}
	n := c.Size()
	m := len(data)
	var flat []T
	var err error
	if c.rank == 0 {
		flat = make([]T, 0, n*m)
		flat = append(flat, data...)
		pieces := make([][]T, n)
		pieces[0] = data
		for r := 1; r < n; r++ {
			var got []T
			got, _, err = recvRaw[T](c, r, tag, true)
			if err == nil && len(got) != m {
				err = fmt.Errorf("mpi: Allgather: unequal contribution (%d vs %d): %w", len(got), m, ErrType)
			}
			if err != nil {
				break
			}
			pieces[r] = got
		}
		if err == nil {
			flat = flat[:0]
			for _, p := range pieces {
				flat = append(flat, p...)
			}
			for r := 1; r < n; r++ {
				putBuf(pieces[r]) // transport-owned; pieces[0] is the caller's
			}
		}
	} else {
		err = sendRaw(c, 0, tag, data)
	}
	if err == nil {
		flat, err = bcastList(c, tag, wholeComm(c), 0, c.rank, flat)
	}
	if err != nil {
		abortCollective(c, tag, err)
		return nil, c.fire(err)
	}
	if len(flat) != n*m {
		return nil, c.fire(fmt.Errorf("mpi: Allgather: bad flattened length %d: %w", len(flat), ErrType))
	}
	opEnd(c, "allgather", t0)
	out := make([][]T, n)
	for r := 0; r < n; r++ {
		out[r] = flat[r*m : (r+1)*m : (r+1)*m]
	}
	return out, nil
}
