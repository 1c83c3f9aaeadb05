package mpi

import "fmt"

// CPS twins of the remaining blocking operations the repair dance and the
// solver use: communicator management (split, shrink, spawn, spare-claim,
// merge), the rest of the collective set (bcast, reduce, gather, allgather)
// and the one-value receive. Together with
// event.go's core set (recv, barrier, allreduce, agree) they make the full
// recovery protocol of package recovery (repair, ChildAttach) — and the PDE
// solver driving it — runnable as parked continuations.
//
// The parity rules are event.go's: every twin reuses the blocking
// operation's tag construction, rendezvous builders, algorithm shapes, fold
// orders and pooled-buffer ownership discipline, so virtual times, metrics
// and failure semantics are byte-identical to the goroutine path.

// --- rendezvous collectives ----------------------------------------------

// fiberRendezvous runs one instance of a rendezvous collective as a parked
// continuation: rvzEnter inline, rvzPoll as the wakeup condition, rvzFinish
// into the continuation. The exact event-path analogue of runRendezvous —
// same registration, same completion, same cost accounting — so fiber and
// goroutine members of one communicator can meet in the same instance.
func fiberRendezvous(f *Fiber, c *Comm, op string, mode rvzMode, allowRevoked bool, in rvzInput, build buildFunc, k func(any, error)) {
	r, t0, err := rvzEnter(c, op, allowRevoked, in)
	if err != nil {
		k(nil, err)
		return
	}
	f.await(rvzOp(c.sh.id), func() bool {
		if !rvzPoll(c, r, mode, build) {
			return false
		}
		c.p.st.unblock()
		k(rvzFinish(c, r, op, t0))
		return true
	})
}

// FiberSplit is Comm.Split for fiber code: same rendezvous instance, same
// buildSplit, same (key, old rank) ordering. Callers passing a negative
// color receive (nil, nil).
func FiberSplit(f *Fiber, c *Comm, color, key int, k func(*Comm, error)) {
	if c.IsInter() {
		k(nil, c.fire(fmt.Errorf("mpi: Split on intercommunicator: %w", ErrComm)))
		return
	}
	fiberRendezvous(f, c, OpSplit, failOnDeath, false, rvzInput{a: color, b: key}, buildSplit, func(res any, err error) {
		k(c.splitHandle(res, err))
	})
}

// FiberShrink is Comm.Shrink for fiber code (same shrinkBuild, same
// ignoreDeath completion among survivors).
func FiberShrink(f *Fiber, c *Comm, k func(*Comm, error)) {
	if c.IsInter() {
		k(nil, c.fire(fmt.Errorf("mpi: Shrink on intercommunicator: %w", ErrComm)))
		return
	}
	fiberRendezvous(f, c, OpShrink, ignoreDeath, true, rvzInput{}, shrinkBuild(c), func(res any, err error) {
		k(c.shrinkHandle(res, err))
	})
}

// FiberSpawnMultiple is Comm.SpawnMultiple for fiber code. The spawned
// children run the world's EventEntry as fibers attached to the same
// executor (spawnLocked via startProcLocked), observing a non-nil
// Proc.Parent exactly like goroutine-path replacements.
func FiberSpawnMultiple(f *Fiber, c *Comm, n int, hosts []string, root int, k func(*Comm, error)) {
	if c.IsInter() {
		k(nil, c.fire(fmt.Errorf("mpi: SpawnMultiple on intercommunicator: %w", ErrComm)))
		return
	}
	if n <= 0 {
		k(nil, c.fire(fmt.Errorf("mpi: SpawnMultiple: n = %d: %w", n, ErrComm)))
		return
	}
	fiberRendezvous(f, c, OpSpawn, failOnDeath, false, spawnInput(c, hosts, root), spawnBuild(c, n, root), func(res any, err error) {
		k(c.spawnHandle(res, err))
	})
}

// FiberClaimSpares is Comm.ClaimSpares for fiber code: the claimed spares
// wake as fibers on the same executor. Every member receives ErrNoSpares
// when fewer than n spares remain, exactly like the blocking call.
func FiberClaimSpares(f *Fiber, c *Comm, n int, k func(*Comm, error)) {
	if c.IsInter() {
		k(nil, c.fire(fmt.Errorf("mpi: ClaimSpares on intercommunicator: %w", ErrComm)))
		return
	}
	if n <= 0 {
		k(nil, c.fire(fmt.Errorf("mpi: ClaimSpares: n = %d: %w", n, ErrComm)))
		return
	}
	fiberRendezvous(f, c, "claim", failOnDeath, false, rvzInput{}, claimBuild(c, n), func(res any, err error) {
		k(c.spawnHandle(res, err))
	})
}

// FiberIntercommMerge is Comm.IntercommMerge for fiber code. The merge
// completes from locally known group information and never blocks (spawn.go),
// so the twin is a direct call delivered through the continuation — provided
// so fiber programs read uniformly at every protocol step.
func FiberIntercommMerge(_ *Fiber, c *Comm, high bool, k func(*Comm, error)) {
	k(c.IntercommMerge(high))
}

// --- point-to-point -------------------------------------------------------

// FiberSend is Send for fiber code. Sends on this transport are eager and
// never block (p2p.go), so fiber programs may call Send directly; the alias
// exists so the send side of a rendezvous (e.g. the repair dance's old-rank
// handoff) reads uniformly with its FiberRecv counterpart.
func FiberSend[T any](c *Comm, dest, tag int, data []T) error {
	return Send(c, dest, tag, data)
}

// FiberSendOne is SendOne for fiber code (never blocks; see FiberSend).
func FiberSendOne[T any](c *Comm, dest, tag int, v T) error {
	return SendOne(c, dest, tag, v)
}

// FiberRecvOne is RecvOne for fiber code: a FiberRecv asserting exactly one
// value.
func FiberRecvOne[T any](f *Fiber, c *Comm, src, tag int, k func(T, Status, error)) {
	FiberRecv[T](f, c, src, tag, func(data []T, stt Status, err error) {
		var zero T
		if err != nil {
			k(zero, stt, err)
			return
		}
		if len(data) != 1 {
			k(zero, stt, c.fire(fmt.Errorf("mpi: RecvOne: got %d values: %w", len(data), ErrType)))
			return
		}
		k(data[0], stt, nil)
	})
}

// --- collectives ----------------------------------------------------------

// FiberBcast is Bcast for fiber code: binomial tree (flat) or the two-level
// leader/node trees, with the blocking path's tags and rotations. Like
// Bcast it consumes root's data and lends every member that one array.
func FiberBcast[T any](f *Fiber, c *Comm, root int, data []T, k func([]T, error)) {
	if c.IsInter() {
		k(nil, c.fire(fmt.Errorf("mpi: Bcast on intercommunicator: %w", ErrComm)))
		return
	}
	t0 := opStart(c, "bcast")
	tag := internalTag(kindBcast, c.nextSeq(kindBcast))
	done := func(buf []T, err error) {
		if err != nil {
			abortCollective(c, tag, err)
			k(nil, c.fire(err))
			return
		}
		opEnd(c, "bcast", t0)
		k(buf, nil)
	}
	if t := c.hierTopo(); t != nil {
		fiberHierBcast(f, c, t, tag, root, data, done)
	} else {
		fiberBcastList(f, c, tag, wholeComm(c), root, c.rank, data, done)
	}
}

// FiberReduce is Reduce for fiber code: same binomial trees, same ownership
// of data, same pooled accumulators and fold order op(accumulated,
// received), so floating-point results are bit-identical. The continuation
// receives the result at root, nil elsewhere.
func FiberReduce[T any](f *Fiber, c *Comm, root int, data []T, op func(T, T) T, k func([]T, error)) {
	if c.IsInter() {
		k(nil, c.fire(fmt.Errorf("mpi: Reduce on intercommunicator: %w", ErrComm)))
		return
	}
	t0 := opStart(c, "reduce")
	tag := internalTag(kindReduce, c.nextSeq(kindReduce))
	done := func(buf []T, err error) {
		if err != nil {
			abortCollective(c, tag, err)
			k(nil, c.fire(err))
			return
		}
		opEnd(c, "reduce", t0)
		k(buf, nil)
	}
	fo := newFolder(op)
	if t := c.hierTopo(); t != nil {
		fiberHierReduce(f, c, t, tag, root, data, true, fo, done)
	} else {
		fiberReduceList(f, c, tag, wholeComm(c), root, c.rank, data, true, fo, done)
	}
}

// FiberGather is Gather for fiber code: linear gather at root (flat) or the
// node-block assembly of hierGather.
func FiberGather[T any](f *Fiber, c *Comm, root int, data []T, k func([][]T, error)) {
	if c.IsInter() {
		k(nil, c.fire(fmt.Errorf("mpi: Gather on intercommunicator: %w", ErrComm)))
		return
	}
	t0 := opStart(c, "gather")
	tag := internalTag(kindGather, c.nextSeq(kindGather))
	done := func(out [][]T, err error) {
		if err != nil {
			abortCollective(c, tag, err)
			k(nil, c.fire(err))
			return
		}
		opEnd(c, "gather", t0)
		k(out, nil)
	}
	if t := c.hierTopo(); t != nil {
		fiberHierGather(f, c, t, tag, root, data, done)
		return
	}
	n := c.Size()
	if c.rank != root {
		if err := sendRaw(c, root, tag, data); err != nil {
			done(nil, err)
			return
		}
		done(nil, nil)
		return
	}
	out := make([][]T, n)
	out[root] = cloneBuf(data)
	var loop func(r int)
	loop = func(r int) {
		if r >= n {
			done(out, nil)
			return
		}
		if r == root {
			loop(r + 1)
			return
		}
		fiberRecvRaw[T](f, c, r, tag, true, func(got []T, _ Status, err error) {
			if err != nil {
				done(nil, err)
				return
			}
			out[r] = got
			loop(r + 1)
		})
	}
	loop(0)
}

// fiberHierGather mirrors hierGather: pieces to the node leader, one length
// vector plus one concatenated block per node to the root, with the same
// split-copy into independently releasable pooled pieces.
func fiberHierGather[T any](f *Fiber, c *Comm, t *commTopo, tag, root int, data []T, k func([][]T, error)) {
	me := c.rank
	myNode := t.nodeOf[me]
	node := t.nodes[myNode]
	lead := t.nodeLead(myNode, root)

	if me != lead {
		if err := sendRaw(c, lead, tag, data); err != nil {
			k(nil, err)
			return
		}
		k(nil, nil)
		return
	}
	if me == root {
		out := make([][]T, c.Size())
		out[me] = cloneBuf(data)
		var remoteLoop func(kn int)
		remoteLoop = func(kn int) {
			if kn >= len(t.nodes) {
				k(out, nil)
				return
			}
			if kn == myNode {
				remoteLoop(kn + 1)
				return
			}
			members := t.nodes[kn]
			lk := t.leaders[kn]
			fiberRecvRaw[int](f, c, lk, tag, true, func(lens []int, _ Status, err error) {
				if err != nil {
					k(nil, err)
					return
				}
				fiberRecvRaw[T](f, c, lk, tag, true, func(block []T, _ Status, err error) {
					if err != nil {
						putBuf(lens)
						k(nil, err)
						return
					}
					if len(lens) != len(members) {
						putBuf(lens)
						putBuf(block)
						k(nil, fmt.Errorf("mpi: Gather: bad node header %d vs %d: %w", len(lens), len(members), ErrType))
						return
					}
					off := 0
					for i, r := range members {
						m := lens[i]
						if m < 0 || off+m > len(block) {
							putBuf(lens)
							putBuf(block)
							k(nil, fmt.Errorf("mpi: Gather: bad node block: %w", ErrType))
							return
						}
						piece := getBuf[T](m)
						copy(piece, block[off:off+m])
						out[r] = piece
						off += m
					}
					putBuf(lens)
					putBuf(block)
					remoteLoop(kn + 1)
				})
			})
		}
		var nodeLoop func(i int)
		nodeLoop = func(i int) {
			if i >= len(node) {
				remoteLoop(0)
				return
			}
			r := node[i]
			if r == me {
				nodeLoop(i + 1)
				return
			}
			fiberRecvRaw[T](f, c, r, tag, true, func(got []T, _ Status, err error) {
				if err != nil {
					k(nil, err)
					return
				}
				out[r] = got
				nodeLoop(i + 1)
			})
		}
		nodeLoop(0)
		return
	}
	// Non-root leader: assemble the node block and ship it with its length
	// vector.
	pieces := make([][]T, len(node))
	lens := getBuf[int](len(node))
	var gather func(i, total, myIdx int)
	gather = func(i, total, myIdx int) {
		if i >= len(node) {
			block := getBuf[T](total)
			off := 0
			for idx, p := range pieces {
				copy(block[off:], p)
				off += len(p)
				if idx != myIdx {
					putBuf(p)
				}
			}
			if err := sendOwned(c, root, tag, lens); err != nil {
				k(nil, err)
				return
			}
			if err := sendOwned(c, root, tag, block); err != nil {
				k(nil, err)
				return
			}
			k(nil, nil)
			return
		}
		r := node[i]
		if r == me {
			pieces[i] = data
			lens[i] = len(data)
			gather(i+1, total+len(data), i)
			return
		}
		fiberRecvRaw[T](f, c, r, tag, true, func(got []T, _ Status, err error) {
			if err != nil {
				k(nil, err)
				return
			}
			pieces[i] = got
			lens[i] = len(got)
			gather(i+1, total+len(got), myIdx)
		})
	}
	gather(0, 0, -1)
}

// FiberAllgather is Allgather for fiber code: gather-at-0 plus broadcast
// (flat) or the leader tree of hierAllgather, with the
// same zero-copy re-slicing of the flat buffer, lent to every member.
func FiberAllgather[T any](f *Fiber, c *Comm, data []T, k func([][]T, error)) {
	if c.IsInter() {
		k(nil, c.fire(fmt.Errorf("mpi: Allgather on intercommunicator: %w", ErrComm)))
		return
	}
	t0 := opStart(c, "allgather")
	tag := internalTag(kindAllgather, c.nextSeq(kindAllgather))
	if t := c.hierTopo(); t != nil {
		fiberHierAllgather(f, c, t, tag, data, func(out [][]T, err error) {
			if err != nil {
				abortCollective(c, tag, err)
				k(nil, c.fire(err))
				return
			}
			opEnd(c, "allgather", t0)
			k(out, nil)
		})
		return
	}
	n := c.Size()
	m := len(data)
	fail := func(err error) {
		abortCollective(c, tag, err)
		k(nil, c.fire(err))
	}
	toBcast := func(flat []T) {
		fiberBcastList(f, c, tag, wholeComm(c), 0, c.rank, flat, func(flat []T, err error) {
			if err != nil {
				fail(err)
				return
			}
			if len(flat) != n*m {
				k(nil, c.fire(fmt.Errorf("mpi: Allgather: bad flattened length %d: %w", len(flat), ErrType)))
				return
			}
			opEnd(c, "allgather", t0)
			out := make([][]T, n)
			for r := 0; r < n; r++ {
				out[r] = flat[r*m : (r+1)*m : (r+1)*m]
			}
			k(out, nil)
		})
	}
	if c.rank != 0 {
		if err := sendRaw(c, 0, tag, data); err != nil {
			fail(err)
			return
		}
		toBcast(nil)
		return
	}
	flat := make([]T, 0, n*m)
	flat = append(flat, data...)
	pieces := make([][]T, n)
	pieces[0] = data
	var loop func(r int)
	loop = func(r int) {
		if r >= n {
			flat = flat[:0]
			for _, p := range pieces {
				flat = append(flat, p...)
			}
			for r := 1; r < n; r++ {
				putBuf(pieces[r]) // transport-owned; pieces[0] is the caller's
			}
			toBcast(flat)
			return
		}
		fiberRecvRaw[T](f, c, r, tag, true, func(got []T, _ Status, err error) {
			if err == nil && len(got) != m {
				err = fmt.Errorf("mpi: Allgather: unequal contribution (%d vs %d): %w", len(got), m, ErrType)
			}
			if err != nil {
				fail(err)
				return
			}
			pieces[r] = got
			loop(r + 1)
		})
	}
	loop(1)
}

// fiberHierAllgather mirrors hierAllgather: pieces to the node leader,
// tree assembly of the node-major flat buffer over leaders, then the
// intra-node bcast and the contig/node-major re-slicing.
func fiberHierAllgather[T any](f *Fiber, c *Comm, t *commTopo, tag int, data []T, k func([][]T, error)) {
	n := c.Size()
	m := len(data)
	me := c.rank
	myNode := t.nodeOf[me]
	node := t.nodes[myNode]
	myIdx := indexOf(node, me)

	finish := func(flat []T, err error) {
		if err != nil {
			k(nil, err)
			return
		}
		fiberBcastList(f, c, tag, subList(node), 0, myIdx, flat, func(flat []T, err error) {
			if err != nil {
				k(nil, err)
				return
			}
			if len(flat) != n*m {
				k(nil, fmt.Errorf("mpi: Allgather: bad flattened length %d: %w", len(flat), ErrType))
				return
			}
			out := make([][]T, n)
			if t.contig {
				for r := 0; r < n; r++ {
					out[r] = flat[r*m : (r+1)*m : (r+1)*m]
				}
			} else {
				for kn, members := range t.nodes {
					off := t.before[kn] * m
					for i, r := range members {
						lo := off + i*m
						out[r] = flat[lo : lo+m : lo+m]
					}
				}
			}
			k(out, nil)
		})
	}
	if myIdx != 0 {
		if err := sendRaw(c, node[0], tag, data); err != nil {
			k(nil, err)
			return
		}
		finish(nil, nil)
		return
	}
	block := getBuf[T](len(node) * m)
	copy(block, data)
	var loop func(i int)
	loop = func(i int) {
		if i >= len(node) {
			fiberTreeAllgather(f, c, t, tag, myNode, m, block, finish)
			return
		}
		fiberRecvRaw[T](f, c, node[i], tag, true, func(got []T, _ Status, err error) {
			if err != nil {
				putBuf(block)
				k(nil, err)
				return
			}
			if len(got) != m {
				putBuf(block)
				putBuf(got)
				k(nil, fmt.Errorf("mpi: Allgather: unequal contribution (%d vs %d): %w", len(got), m, ErrType))
				return
			}
			copy(block[i*m:], got)
			putBuf(got)
			loop(i + 1)
		})
	}
	loop(1)
}

// fiberTreeAllgather is treeAllgather in CPS: linear gather of node blocks
// at leader 0, binomial bcast of the flat buffer over leaders. Consumes
// block.
func fiberTreeAllgather[T any](f *Fiber, c *Comm, t *commTopo, tag, j, m int, block []T, k func([]T, error)) {
	if j != 0 {
		if err := sendOwned(c, t.leaders[0], tag, block); err != nil {
			k(nil, err)
			return
		}
		fiberBcastList(f, c, tag, subList(t.leaders), 0, j, nil, k)
		return
	}
	flat := getBuf[T](t.before[len(t.nodes)] * m)
	copy(flat, block)
	putBuf(block)
	var loop func(kn int)
	loop = func(kn int) {
		if kn >= len(t.nodes) {
			fiberBcastList(f, c, tag, subList(t.leaders), 0, j, flat, k)
			return
		}
		fiberRecvRaw[T](f, c, t.leaders[kn], tag, true, func(got []T, _ Status, err error) {
			if err != nil {
				putBuf(flat)
				k(nil, err)
				return
			}
			if len(got) != len(t.nodes[kn])*m {
				putBuf(flat)
				putBuf(got)
				k(nil, fmt.Errorf("mpi: Allgather: bad node block (%d vs %d): %w", len(got), len(t.nodes[kn])*m, ErrType))
				return
			}
			copy(flat[t.before[kn]*m:], got)
			putBuf(got)
			loop(kn + 1)
		})
	}
	loop(1)
}
