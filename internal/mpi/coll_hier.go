package mpi

import "fmt"

// Topology-aware hierarchical collectives.
//
// On a multi-host cluster every collective in coll.go runs as a two-level
// algorithm keyed on the communicator's node decomposition: an intra-node
// phase confined to ranks sharing a host (cheap shared-memory links under
// the tiered LogGP model), and an inter-node phase among one leader per
// node (the rack fabric). The decomposition is cached per communicator
// (commShared.hier) and the dispatch is in the public wrappers: a
// single-host communicator, or a world with Options.FlatCollectives, runs
// the flat reference algorithms unchanged.
//
// Algorithm per op (see DESIGN.md §11 for the cost analysis):
//
//	Barrier    binomial fan-in to the node leader, dissemination over
//	           leaders, binomial fan-out
//	Bcast      binomial over leaders from the root's node, then binomial
//	           within each node
//	Reduce     binomial within each node to the leader, binomial over
//	           leaders to the root (pooled accumulators handed off with
//	           sendOwned)
//	Allreduce  small: hierarchical Reduce to rank 0 + hierarchical Bcast;
//	           large (>= collRingCutover bytes): intra reduce, ring
//	           reduce-scatter + ring allgather over leaders, intra bcast
//	Gather     pieces to the node leader, one concatenated block (with a
//	           length vector, since Gather permits unequal pieces) per
//	           node to the root
//	Allgather  blocks to the leaders, gather at leader 0 + binomial bcast
//	           of the flat buffer over leaders, then intra bcast and a
//	           zero-copy re-slicing
//
// Failure semantics are untouched: every phase is built from the same
// sendRaw/sendOwned/recvRaw primitives, each collective instance still
// uses one internal tag, and the public wrappers record abortCollective on
// any error, so non-uniform reporting and the dead-member propagation
// chain (message > abort record > death, in the peer's program order) work
// exactly as in the flat algorithms.
//
// Locking: leader staging buffers are pooled (getBuf/putBuf) and owned by
// exactly one goroutine between transport handoffs, so this file takes no
// locks beyond the ones sendEnv/recvRaw already take — the lock hierarchy
// in the package comment is unchanged.

// collRingCutover is the payload size in bytes (of the full reduced
// result) at which Allreduce switches from the latency-optimal
// binomial-tree variant to the bandwidth-optimal ring variant over node
// leaders. Rings send ~2x the payload of a tree's critical path but never
// duplicate bytes on a link, so past a few wire latencies' worth of data
// they win; 32 KiB is ~8 alpha on OPL. Allgather always takes the tree: its
// one caller gathers a few words per rank.
//
// A ring's latency term is O(L) rounds, so total size alone is not
// enough: at large node counts a payload past the cutover can still split
// into chunks too small to amortise the extra rounds. The ring therefore
// also requires collRingChunkFloor bytes per leader-ring chunk
// (useRing), otherwise the O(log L) tree keeps the critical path short.
const (
	collRingCutover    = 32 << 10
	collRingChunkFloor = 1 << 10
)

// useRing decides tree vs ring for a hierarchical Allreduce moving
// totalBytes of result over L node leaders.
func useRing(totalBytes, L int) bool {
	return totalBytes >= collRingCutover && totalBytes/L >= collRingChunkFloor
}

// commTopo is the cached node decomposition of an intracommunicator's
// group: which comm ranks share a host, in first-appearance order.
// Immutable once built.
type commTopo struct {
	// multi reports whether the group spans more than one host; when false
	// the wrappers use the flat algorithms.
	multi bool
	// contig reports whether comm-rank order visits nodes in contiguous
	// blocks (the common block placement), in which case the node-major
	// concatenation used by Allgather is already comm-rank-major.
	contig bool
	// nodeOf maps a comm rank to its node index.
	nodeOf []int
	// nodes lists each node's member comm ranks, ascending.
	nodes [][]int
	// leaders[k] is node k's default leader: its lowest comm rank.
	leaders []int
	// before[k] is the number of comm ranks in nodes 0..k-1 — the offset
	// of node k's block in a node-major concatenation, in units of ranks.
	before []int
}

// buildCommTopo derives the node decomposition of a group (world ranks in
// comm-rank order). Deterministic: host indices are immutable and nodes
// are numbered by first appearance in comm-rank order. It allocates the
// same five objects whatever the group's size: node indices are looked up
// by host index, and the member lists, leaders and offsets share one
// backing array.
func buildCommTopo(w *World, group []int) *commTopo {
	ps := w.snapshot()
	maxHost := 0
	for _, wr := range group {
		maxHost = max(maxHost, ps[wr].host)
	}
	nodeOfHost := make([]int, maxHost+1) // node index + 1; 0: not seen yet
	t := &commTopo{nodeOf: make([]int, len(group)), contig: true}
	nn := 0
	for cr, wr := range group {
		h := ps[wr].host
		if nodeOfHost[h] == 0 {
			nn++
			nodeOfHost[h] = nn
		}
		k := nodeOfHost[h] - 1
		if cr > 0 && k < t.nodeOf[cr-1] {
			t.contig = false
		}
		t.nodeOf[cr] = k
	}
	t.multi = nn > 1
	n := len(group)
	ints := make([]int, n+nn+nn+1)
	flat := ints[:n:n]
	t.leaders = ints[n : n+nn : n+nn]
	t.before = ints[n+nn:]
	for _, k := range t.nodeOf {
		t.before[k+1]++
	}
	for k := 0; k < nn; k++ {
		t.before[k+1] += t.before[k]
	}
	t.nodes = make([][]int, nn)
	for k := range t.nodes {
		t.nodes[k] = flat[t.before[k]:t.before[k]:t.before[k+1]]
	}
	for cr, k := range t.nodeOf {
		t.nodes[k] = append(t.nodes[k], cr)
	}
	for k, members := range t.nodes {
		t.leaders[k] = members[0]
	}
	return t
}

// hierTopo returns the communicator's node decomposition when the
// hierarchical algorithms apply: an intracommunicator spanning at least two
// hosts on a world without FlatCollectives. Returns nil otherwise. The
// decomposition is built once per communicator (buildOnce), however many
// members reach their first collective on it together.
func (c *Comm) hierTopo() *commTopo {
	w := c.p.st.w
	if w.flatColl {
		return nil
	}
	sh := c.sh
	t := buildOnce(sh, func() (*commTopo, bool) {
		t := sh.hier.Load()
		return t, t != nil
	}, func() *commTopo {
		if testHookBuildTopo != nil {
			testHookBuildTopo()
		}
		t := buildCommTopo(w, c.localGroup())
		sh.hier.Store(t)
		return t
	})
	if !t.multi {
		return nil
	}
	return t
}

// testHookBuildTopo, when set (by tests, before a world runs), is called
// once per commTopo build.
var testHookBuildTopo func()

// effLeaders returns the leader list with root standing in for its own
// node's leader, so the inter-node phase is rooted at the actual root
// without an extra leader-to-root hop. When root already leads its node
// (the common case, e.g. rank 0) the cached list is returned unallocated.
func (t *commTopo) effLeaders(root int) []int {
	k := t.nodeOf[root]
	if t.leaders[k] == root {
		return t.leaders
	}
	ls := make([]int, len(t.leaders))
	copy(ls, t.leaders)
	ls[k] = root
	return ls
}

// nodeLead returns the comm rank leading myNode when the collective is
// rooted at root: the root itself for the root's node, the node's lowest
// rank otherwise.
func (t *commTopo) nodeLead(myNode, root int) int {
	if t.nodeOf[root] == myNode {
		return root
	}
	return t.leaders[myNode]
}

// indexOf returns the position of x in list (node member lists are short —
// at most the host's slot count).
func indexOf(list []int, x int) int {
	for i, v := range list {
		if v == x {
			return i
		}
	}
	panic("mpi: rank not in its own topology list")
}

// --- generic binomial helpers over an arbitrary rank list ----------------
//
// The one implementation of each tree: the flat collectives in coll.go run
// them over wholeComm(c), the hierarchical ones below over a node's members
// and over the leaders. The virtual-root rotation is the same on any list,
// and therefore so are the shapes and fold orders.

// tokenFanIn performs a binomial fan-in of the 1-byte barrier token to
// list[0]. Message count: len(list)-1.
func tokenFanIn(c *Comm, tag int, list []int, myIdx int) error {
	n := len(list)
	for mask := 1; mask < n; mask <<= 1 {
		if myIdx&mask != 0 {
			return sendOwned(c, list[myIdx-mask], tag, barrierToken)
		}
		if src := myIdx + mask; src < n {
			if _, _, err := recvRaw[byte](c, list[src], tag, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// tokenFanOut performs the reverse binomial fan-out of the token from
// list[0]. Message count: len(list)-1.
func tokenFanOut(c *Comm, tag int, list []int, myIdx int) error {
	n := len(list)
	mask := 1
	for mask < n {
		if myIdx&mask != 0 {
			if _, _, err := recvRaw[byte](c, list[myIdx-mask], tag, true); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for ; mask > 0; mask >>= 1 {
		if myIdx+mask < n {
			if err := sendOwned(c, list[myIdx+mask], tag, barrierToken); err != nil {
				return err
			}
		}
	}
	return nil
}

// bcastList is the binomial broadcast over l, rooted at l.at(rootIdx). Only
// the root passes data; every caller receives the buffer in the return value.
// The tree lends one array (sendLent): every member's result is the root's
// data itself, read-only and never released.
func bcastList[T any](c *Comm, tag int, l rankList, rootIdx, myIdx int, data []T) ([]T, error) {
	n := l.n
	vr := (myIdx - rootIdx + n) % n
	buf := data
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			src := l.at((vr - mask + rootIdx) % n)
			got, _, err := recvRaw[T](c, src, tag, true)
			if err != nil {
				return nil, err
			}
			buf = got
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for ; mask > 0; mask >>= 1 {
		if vr+mask < n {
			if err := sendLent(c, l.at((vr+mask+rootIdx)%n), tag, buf); err != nil {
				return nil, err
			}
		}
	}
	return lent(buf), nil
}

// reduceList is the binomial reduction over l, rooted at l.at(rootIdx),
// shared by Reduce and Allreduce. Contributions move
// through the tree by ownership transfer: each received buffer is folded into
// a pooled accumulator and recycled, and the accumulator itself is handed
// uncopied to the parent — one pooled buffer per subtree instead of a copy
// per edge. The fold order is op(accumulated, received), fixed by the tree,
// so floating-point results are deterministic. owned marks data as a pooled
// buffer this call may consume: fold into it directly and ultimately send it
// (ownership transfer) or return it at the root — Reduce's input and the
// leader's intra-node partial flow through the tree without a copy. With
// owned false (Allreduce) the caller keeps data and the accumulator is
// materialised lazily (a leaf copies data only at its send; an interior
// node's first fold combines data and the received buffer into the received
// buffer, which becomes the accumulator). Returns the accumulator at the
// root, nil elsewhere.
func reduceList[T any](c *Comm, tag int, l rankList, rootIdx, myIdx int, data []T, owned bool, fo folder[T]) ([]T, error) {
	n := l.n
	vr := (myIdx - rootIdx + n) % n
	var acc []T
	if owned {
		acc = data
	}
	mask := 1
	for ; mask < n && vr&mask == 0; mask <<= 1 {
		if srcVr := vr + mask; srcVr < n {
			got, _, err := recvRaw[T](c, l.at((srcVr+rootIdx)%n), tag, true)
			if err != nil {
				return nil, err
			}
			if len(got) != len(data) {
				return nil, fmt.Errorf("mpi: Reduce: length mismatch %d vs %d: %w", len(got), len(data), ErrType)
			}
			acc = foldReceived(fo, acc, data, got)
		}
	}
	if acc == nil {
		acc = cloneBuf(data)
	}
	if vr == 0 {
		return acc, nil
	}
	// A contributor sends its subtree's accumulator to its parent and is done.
	return nil, sendOwned(c, l.at((vr-mask+rootIdx)%n), tag, acc)
}

// foldReceived folds a reduction tree's received contribution got into the
// accumulator and returns the accumulator. The first fold (acc nil, data
// still the caller's) writes op(data, got) into got, which this rank already
// owns; later folds write op(acc, got) into acc and recycle got.
func foldReceived[T any](fo folder[T], acc, data, got []T) []T {
	if acc == nil {
		fo.fold(got, data, got)
		return got
	}
	fo.fold(acc, acc, got)
	putBuf(got)
	return acc
}

// --- hierarchical algorithms ---------------------------------------------

// hierBarrier: intra-node fan-in, dissemination over node leaders,
// intra-node fan-out.
func hierBarrier(c *Comm, t *commTopo, tag int) error {
	me := c.rank
	myNode := t.nodeOf[me]
	node := t.nodes[myNode]
	myIdx := indexOf(node, me)
	if err := tokenFanIn(c, tag, node, myIdx); err != nil {
		return err
	}
	if myIdx == 0 {
		if err := disseminate(c, tag, subList(t.leaders), myNode); err != nil {
			return err
		}
	}
	return tokenFanOut(c, tag, node, myIdx)
}

// hierBcast: binomial over effective leaders, then binomial within each
// node.
func hierBcast[T any](c *Comm, t *commTopo, tag, root int, data []T) ([]T, error) {
	me := c.rank
	myNode := t.nodeOf[me]
	node := t.nodes[myNode]
	lead := t.nodeLead(myNode, root)
	buf := data
	if me == lead {
		var err error
		buf, err = bcastList(c, tag, subList(t.effLeaders(root)), t.nodeOf[root], myNode, buf)
		if err != nil {
			return nil, err
		}
	}
	return bcastList(c, tag, subList(node), indexOf(node, lead), indexOf(node, me), buf)
}

// hierReduce: binomial within each node to its (effective) leader, then
// binomial over leaders to the root. owned is reduceList's: whether the
// intra-node phase may consume data. The intra-node partial is always a
// pooled buffer, consumed by the inter-node phase (owned handoff), so the
// leader adds no copy.
func hierReduce[T any](c *Comm, t *commTopo, tag, root int, data []T, owned bool, fo folder[T]) ([]T, error) {
	me := c.rank
	myNode := t.nodeOf[me]
	node := t.nodes[myNode]
	lead := t.nodeLead(myNode, root)
	acc, err := reduceList(c, tag, subList(node), indexOf(node, lead), indexOf(node, me), data, owned, fo)
	if err != nil {
		return nil, err
	}
	if me != lead {
		return nil, nil
	}
	return reduceList(c, tag, subList(t.effLeaders(root)), t.nodeOf[root], myNode, acc, true, fo)
}

// hierAllreduce (tree variant): hierarchical reduce to rank 0 followed by
// hierarchical broadcast, sharing the instance tag — the direction of every
// (src, dst) pair flips between the phases, so matching stays unambiguous.
func hierAllreduce[T any](c *Comm, t *commTopo, tag int, data []T, fo folder[T]) ([]T, error) {
	buf, err := hierReduce(c, t, tag, 0, data, false, fo)
	if err != nil {
		return nil, err
	}
	return hierBcast(c, t, tag, 0, buf)
}

// hierAllreduceRing (large payloads): intra-node reduce, then a ring
// reduce-scatter + ring allgather over node leaders (Rabenseifner), then
// intra-node bcast. Each inter-node link carries ~2x the payload in total
// but no byte twice, which beats the tree once the payload dwarfs the wire
// latency. The element-wise fold order is fixed by the ring (chunk k is
// folded in ring order ending at leader (k+1) mod L), deterministic for a
// given topology.
func hierAllreduceRing[T any](c *Comm, t *commTopo, tag int, data []T, fo folder[T]) ([]T, error) {
	me := c.rank
	myNode := t.nodeOf[me]
	node := t.nodes[myNode]
	myIdx := indexOf(node, me)
	acc, err := reduceList(c, tag, subList(node), 0, myIdx, data, false, fo)
	if err != nil {
		return nil, err
	}
	if myIdx == 0 {
		if err := ringAllreduce(c, t, tag, myNode, acc, fo); err != nil {
			return nil, err
		}
	}
	return bcastList(c, tag, subList(node), 0, myIdx, acc)
}

// ringAllreduce runs the leader-level ring phases of hierAllreduceRing,
// reducing acc (leader j's node partial) in place to the global result.
func ringAllreduce[T any](c *Comm, t *commTopo, tag, j int, acc []T, fo folder[T]) error {
	L := len(t.leaders)
	next := t.leaders[(j+1)%L]
	prev := t.leaders[(j-1+L)%L]
	m := len(acc)
	lo := func(k int) int { return k * m / L }
	// Reduce-scatter: after L-1 rounds leader j holds the fully reduced
	// chunk (j+1) mod L.
	for step := 0; step < L-1; step++ {
		sk := ((j-step)%L + L) % L
		if err := sendRaw(c, next, tag, acc[lo(sk):lo(sk+1)]); err != nil {
			return err
		}
		rk := ((j-step-1)%L + L) % L
		got, _, err := recvRaw[T](c, prev, tag, true)
		if err != nil {
			return err
		}
		seg := acc[lo(rk):lo(rk+1)]
		if len(got) != len(seg) {
			return fmt.Errorf("mpi: Allreduce: ring chunk mismatch %d vs %d: %w", len(got), len(seg), ErrType)
		}
		fo.fold(seg, seg, got)
		putBuf(got)
	}
	// Allgather: pass completed chunks around the same ring.
	for step := 0; step < L-1; step++ {
		sk := ((j+1-step)%L + L) % L
		if err := sendRaw(c, next, tag, acc[lo(sk):lo(sk+1)]); err != nil {
			return err
		}
		rk := ((j-step)%L + L) % L
		got, _, err := recvRaw[T](c, prev, tag, true)
		if err != nil {
			return err
		}
		seg := acc[lo(rk):lo(rk+1)]
		if len(got) != len(seg) {
			return fmt.Errorf("mpi: Allreduce: ring chunk mismatch %d vs %d: %w", len(got), len(seg), ErrType)
		}
		copy(seg, got)
		putBuf(got)
	}
	return nil
}

// hierGather: pieces to the node leader, then one length vector plus one
// concatenated block per node to the root (Gather permits unequal pieces,
// so the root needs the lengths to split the block; the two messages share
// the instance tag and arrive in send order on the per-sender FIFO). The
// root's own node sends directly. The root split-copies each block into
// independent pooled pieces, preserving the contract that callers may
// ReleaseBuf every piece individually.
func hierGather[T any](c *Comm, t *commTopo, tag, root int, data []T) ([][]T, error) {
	me := c.rank
	myNode := t.nodeOf[me]
	node := t.nodes[myNode]
	lead := t.nodeLead(myNode, root)

	if me != lead {
		if err := sendRaw(c, lead, tag, data); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if me == root {
		out := make([][]T, c.Size())
		out[me] = cloneBuf(data)
		for _, r := range node {
			if r == me {
				continue
			}
			got, _, err := recvRaw[T](c, r, tag, true)
			if err != nil {
				return nil, err
			}
			out[r] = got
		}
		for k, members := range t.nodes {
			if k == myNode {
				continue
			}
			lk := t.leaders[k]
			lens, _, err := recvRaw[int](c, lk, tag, true)
			if err != nil {
				return nil, err
			}
			block, _, err := recvRaw[T](c, lk, tag, true)
			if err != nil {
				putBuf(lens)
				return nil, err
			}
			if len(lens) != len(members) {
				putBuf(lens)
				putBuf(block)
				return nil, fmt.Errorf("mpi: Gather: bad node header %d vs %d: %w", len(lens), len(members), ErrType)
			}
			off := 0
			for i, r := range members {
				m := lens[i]
				if m < 0 || off+m > len(block) {
					putBuf(lens)
					putBuf(block)
					return nil, fmt.Errorf("mpi: Gather: bad node block: %w", ErrType)
				}
				piece := getBuf[T](m)
				copy(piece, block[off:off+m])
				out[r] = piece
				off += m
			}
			putBuf(lens)
			putBuf(block)
		}
		return out, nil
	}
	// Non-root leader: assemble the node block and ship it with its
	// length vector.
	pieces := make([][]T, len(node))
	lens := getBuf[int](len(node))
	total := 0
	myIdx := -1
	for i, r := range node {
		if r == me {
			pieces[i] = data
			myIdx = i
		} else {
			got, _, err := recvRaw[T](c, r, tag, true)
			if err != nil {
				return nil, err
			}
			pieces[i] = got
		}
		lens[i] = len(pieces[i])
		total += lens[i]
	}
	block := getBuf[T](total)
	off := 0
	for i, p := range pieces {
		copy(block[off:], p)
		off += len(p)
		if i != myIdx {
			putBuf(p)
		}
	}
	if err := sendOwned(c, root, tag, lens); err != nil {
		return nil, err
	}
	if err := sendOwned(c, root, tag, block); err != nil {
		return nil, err
	}
	return nil, nil
}

// hierAllgather: equal pieces to the node leader; leaders assemble the
// node-major flat buffer by a linear gather at leader 0 plus a binomial
// bcast over leaders, then an intra-node binomial bcast and a zero-copy
// re-slicing back to comm-rank order (the Allgather contract allows the
// returned pieces to share one backing array).
func hierAllgather[T any](c *Comm, t *commTopo, tag int, data []T) ([][]T, error) {
	n := c.Size()
	m := len(data)
	me := c.rank
	myNode := t.nodeOf[me]
	node := t.nodes[myNode]
	myIdx := indexOf(node, me)

	var flat []T
	if myIdx != 0 {
		if err := sendRaw(c, node[0], tag, data); err != nil {
			return nil, err
		}
	} else {
		block := getBuf[T](len(node) * m)
		copy(block, data)
		for i := 1; i < len(node); i++ {
			got, _, err := recvRaw[T](c, node[i], tag, true)
			if err != nil {
				putBuf(block)
				return nil, err
			}
			if len(got) != m {
				putBuf(block)
				putBuf(got)
				return nil, fmt.Errorf("mpi: Allgather: unequal contribution (%d vs %d): %w", len(got), m, ErrType)
			}
			copy(block[i*m:], got)
			putBuf(got)
		}
		var err error
		if flat, err = treeAllgather(c, t, tag, myNode, m, block); err != nil {
			return nil, err
		}
	}
	flat, err := bcastList(c, tag, subList(node), 0, myIdx, flat)
	if err != nil {
		return nil, err
	}
	if len(flat) != n*m {
		return nil, fmt.Errorf("mpi: Allgather: bad flattened length %d: %w", len(flat), ErrType)
	}
	out := make([][]T, n)
	if t.contig {
		for r := 0; r < n; r++ {
			out[r] = flat[r*m : (r+1)*m : (r+1)*m]
		}
	} else {
		for k, members := range t.nodes {
			off := t.before[k] * m
			for i, r := range members {
				lo := off + i*m
				out[r] = flat[lo : lo+m : lo+m]
			}
		}
	}
	return out, nil
}

// treeAllgather gathers the node blocks linearly at leader 0 and
// broadcasts the node-major flat buffer over the leaders. Consumes block;
// returns the flat buffer at every leader.
func treeAllgather[T any](c *Comm, t *commTopo, tag, j, m int, block []T) ([]T, error) {
	var flat []T
	if j == 0 {
		flat = getBuf[T](t.before[len(t.nodes)] * m)
		copy(flat, block)
		putBuf(block)
		for k := 1; k < len(t.nodes); k++ {
			got, _, err := recvRaw[T](c, t.leaders[k], tag, true)
			if err != nil {
				putBuf(flat)
				return nil, err
			}
			if len(got) != len(t.nodes[k])*m {
				putBuf(flat)
				putBuf(got)
				return nil, fmt.Errorf("mpi: Allgather: bad node block (%d vs %d): %w", len(got), len(t.nodes[k])*m, ErrType)
			}
			copy(flat[t.before[k]*m:], got)
			putBuf(got)
		}
	} else {
		if err := sendOwned(c, t.leaders[0], tag, block); err != nil {
			return nil, err
		}
	}
	return bcastList(c, tag, subList(t.leaders), 0, j, flat)
}
