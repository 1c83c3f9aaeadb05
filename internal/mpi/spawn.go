package mpi

import (
	"fmt"

	"ftsg/internal/vtime"
)

// This file implements MPI dynamic process management: SpawnMultiple
// (MPI_Comm_spawn_multiple) and IntercommMerge (MPI_Intercomm_merge), the
// two calls the paper's repair procedure uses to re-create failed processes
// on their original hosts and knit them back into a full-size communicator
// (Fig. 5 lines 13-14, Fig. 3 line 22).

// spawnResult is the shared result of SpawnMultiple and ClaimSpares: the
// parent side's handles on the new intercommunicator, by rank, or the error
// every member returns.
type spawnResult struct {
	handles []Comm
	err     error
}

// spawnHandle completes a SpawnMultiple or ClaimSpares from its rendezvous
// outcome: the caller's handle, or the error, fired.
func (c *Comm) spawnHandle(res any, err error) (*Comm, error) {
	if err == nil {
		sr := res.(*spawnResult)
		if err = sr.err; err == nil {
			return c.adopt(&sr.handles[c.rank]), nil
		}
	}
	return nil, c.fire(err)
}

// SpawnMultiple starts n new processes running the world's entry function,
// placing process i on the host named hosts[i] (the MPI_Info "host" key of
// MPI_Comm_spawn_multiple). It is collective over this intracommunicator;
// hosts is significant only at root. The returned intercommunicator has the
// callers as the local group and the children as the remote group; children
// observe the mirror image via Proc.Parent. The children's virtual clocks
// start at the spawn completion time given by the beta-ULFM cost model.
func (c *Comm) SpawnMultiple(n int, hosts []string, root int) (*Comm, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: SpawnMultiple on intercommunicator: %w", ErrComm))
	}
	if n <= 0 {
		return nil, c.fire(fmt.Errorf("mpi: SpawnMultiple: n = %d: %w", n, ErrComm))
	}
	return c.spawnHandle(runRendezvous(c, OpSpawn, failOnDeath, false, spawnInput(c, hosts, root), spawnBuild(c, n, root)))
}

// spawnInput is a SpawnMultiple caller's rendezvous input: a copy of hosts
// at root, nothing elsewhere.
func spawnInput(c *Comm, hosts []string, root int) rvzInput {
	if c.rank != root {
		return rvzInput{}
	}
	return rvzInput{hosts: append([]string(nil), hosts...)}
}

// spawnBuild is SpawnMultiple's shared-result builder: spawn completion at
// the last arrival plus the beta-ULFM spawn cost, with the children created
// by spawnLocked under World.state. Shared by the blocking SpawnMultiple and
// FiberSpawnMultiple so both paths meet in the same rendezvous instance.
func spawnBuild(c *Comm, n, root int) buildFunc {
	return func(w *World, r *rendezvous) (any, float64) {
		if root < 0 || root >= len(r.slots) || !r.slots[root].here {
			return &spawnResult{err: fmt.Errorf("mpi: SpawnMultiple: missing root input: %w", ErrComm)}, 0
		}
		cost := w.machine.ULFM.SpawnCost(len(c.sh.a)+n, n)
		start := r.maxArrival(w) + cost
		hs, err := w.spawnLocked(c.sh.a, n, r.hosts, start)
		return &spawnResult{handles: hs, err: err}, cost
	}
}

// spawnLocked creates n processes and launches them on the world's execution
// path — goroutines under Entry, fibers attached to the running executor
// under EventEntry (startChildrenLocked). Caller holds World.state (write);
// the grown process table is published as a new copy-on-write snapshot
// before any child can run. Each child starts with its clock at start
// seconds. Returns the parent side's handles on the intercommunicator.
func (w *World) spawnLocked(parentGroup []int, n int, hosts []string, start float64) ([]Comm, error) {
	placements := make([]int, n)
	for i := 0; i < n; i++ {
		if i < len(hosts) && hosts[i] != "" {
			idx, err := w.cluster.HostIndexByName(hosts[i])
			if err != nil {
				return nil, fmt.Errorf("mpi: SpawnMultiple: %w", err)
			}
			placements[i] = idx
		} else {
			// No placement constraint: let the scheduler pick host 0, as
			// mpirun would with an unconstrained spawn.
			placements[i] = 0
		}
	}
	old := w.snapshot()
	procs := make([]*procState, len(old), len(old)+n)
	copy(procs, old)
	block := make([]procState, n)
	giveFirstSlots(block)
	for i := 0; i < n; i++ {
		st := &block[i]
		st.w, st.wrank, st.host = w, len(procs), placements[i]
		st.rack = w.cluster.RackOfHost(st.host)
		st.alive.Store(true)
		st.cond.L = &st.mu
		if w.wm != nil {
			st.clock.SetObserver(w.wm)
		}
		procs = append(procs, st)
	}
	w.procs.Store(&procs)
	w.spawned += n
	w.wm.countSpawned(n)
	return w.startChildrenLocked(parentGroup, procs[len(old):], start), nil
}

// child is the handles a spawned or claimed process starts with.
type child struct {
	p             Proc
	world, parent Comm
}

// startChildrenLocked knits the processes sts into a communicator of their
// own (their MPI_COMM_WORLD) and an intercommunicator with parentGroup, sets
// their clocks to start and launches them (startProcLocked). Every child's
// handles come from one block, and the parent side's from one array, which
// it returns by rank. Caller holds World.state (write).
func (w *World) startChildrenLocked(parentGroup []int, sts []*procState, start float64) []Comm {
	n := len(sts)
	childRanks := make([]int, n)
	for i, st := range sts {
		childRanks[i] = st.wrank
	}
	childWorld := w.newCommLocked(childRanks, nil)
	inter := w.newCommLocked(parentGroup, childRanks)
	inter.repairFor = n
	kids := make([]child, n)
	for i, st := range sts {
		k := &kids[i]
		st.clock.Set(start)
		k.p = Proc{st: st, world: &k.world, parent: &k.parent}
		k.world = Comm{sh: childWorld, p: &k.p, rank: i}
		k.parent = Comm{sh: inter, p: &k.p, side: 1, rank: i}
		w.startProcLocked(&k.p)
	}
	return newHandles(inter)
}

// mergeEntry is the lazily interned result of one IntercommMerge instance.
type mergeEntry struct {
	// handles are the merged communicator's handles, by merged rank.
	handles []Comm
	// aFirst records that side 0's group precedes side 1's in the merge.
	aFirst bool
	// highOfSide records, per intercommunicator side, the high flag seen so
	// far. Valid usage has the two sides pass opposite flags.
	highOfSide [2]mergeFlag
	// arrived counts the members that have merged; the last one deletes the
	// entry. An instance a death left short keeps its entry, so what stays
	// behind is bounded by the deaths.
	arrived int
}

// mergeFlag is the high flag one side of a merge passed, or flagUnseen
// before any member of that side has arrived.
type mergeFlag uint8

const (
	flagUnseen mergeFlag = iota
	flagLow
	flagHigh
)

func toMergeFlag(high bool) mergeFlag {
	if high {
		return flagHigh
	}
	return flagLow
}

// IntercommMerge merges the two groups of an intercommunicator into one
// intracommunicator (MPI_Intercomm_merge). The group whose members pass
// high=true is ordered after the other group — the paper's parent side
// passes false and the freshly spawned children pass true, so replacements
// receive the highest ranks before being re-ordered by Split.
//
// As in Open MPI, the merge completes from locally known group information
// and does not synchronise the two sides: the paper's protocol depends on
// this, since its parent side calls merge before agree while its child side
// calls agree before merge (Fig. 5 line 14 vs. Fig. 3 lines 21-22). The
// first caller of a given merge instance interns the merged communicator;
// later callers attach to it and their flags are checked for consistency.
func (c *Comm) IntercommMerge(high bool) (*Comm, error) {
	if !c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: IntercommMerge on intracommunicator: %w", ErrComm))
	}
	st := c.p.st
	w := st.w
	st.hookOp(OpMerge)
	t0 := st.clock.Now()
	key := rvzKey{comm: c.sh.id, op: OpMerge, seq: c.nextSeq(seqMerge)}

	w.state.Lock()
	if w.mergeTable == nil {
		w.mergeTable = make(map[rvzKey]*mergeEntry)
	}
	e, ok := w.mergeTable[key]
	if !ok {
		// Absolute ordering: side 0's group goes first unless side 0 passed
		// high (equivalently, unless this side-1 caller passed low).
		aFirst := (c.side == 0) != high
		low, highG := c.sh.a, c.sh.b
		if !aFirst {
			low, highG = c.sh.b, c.sh.a
		}
		merged := make([]int, 0, len(low)+len(highG))
		merged = append(merged, low...)
		merged = append(merged, highG...)
		e = &mergeEntry{handles: newHandles(w.newCommLocked(merged, nil)), aFirst: aFirst}
		w.mergeTable[key] = e
	}
	var err error
	flag := toMergeFlag(high)
	if prev := e.highOfSide[c.side]; prev != flagUnseen && prev != flag {
		err = fmt.Errorf("mpi: IntercommMerge: inconsistent high flags within a group: %w", ErrComm)
	}
	if other := e.highOfSide[1-c.side]; err == nil && other == flag {
		err = fmt.Errorf("mpi: IntercommMerge: both groups passed high=%v: %w", high, ErrComm)
	}
	e.highOfSide[c.side] = flag
	rank := c.rank // in the merged order: my group's offset plus my rank in it
	if (c.side == 0) != e.aFirst {
		rank += len(c.remoteGroup())
	}
	h := &e.handles[rank]
	if e.arrived++; e.arrived == len(c.sh.a)+len(c.sh.b) {
		delete(w.mergeTable, key)
	}
	st.clock.AdvanceAttr(w.machine.ULFM.MergeCost(len(c.sh.a)+len(c.sh.b)), vtime.CompMerge)
	w.state.Unlock()

	if err != nil {
		return nil, c.fire(err)
	}
	opEnd(c, "merge", t0)
	return c.adopt(h), nil
}
