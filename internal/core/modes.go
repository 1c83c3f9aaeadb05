package core

import (
	"fmt"
	"slices"
	"sort"

	"ftsg/internal/combine"
	"ftsg/internal/ftcomb"
	"ftsg/internal/grid"
	"ftsg/internal/recovery"
)

// modeCtx is one rank's view of the run state a recovery mode evolves: the
// mapping from current communicator positions to original ranks, the
// original ranks that left permanent holes (shrunk out, never replaced), the
// failure history, and the sub-grids abandoned as a consequence. Survivors
// fold each repair's results into it and verify it against rank 0's
// broadcast; replacements adopt the broadcast wholesale. Every mode carries
// one: under spawn no position ever moves, nothing is holed and nothing is
// abandoned, so the same questions get the trivial answers.
type modeCtx struct {
	mode recovery.Mode
	// origOf is the original rank behind each current comm position — the
	// map recovery.ReconstructMode threads through its shrinks. Spawn keeps
	// it nil, which that protocol too reads as the identity: a map that can
	// never change is not worth P ints on every rank.
	origOf []int
	// dead and failed are ascending lists of original ranks, each a function
	// of world-agreed lists and so the run's, shared read-only by every rank
	// that derived it (runState.holesOf, runState.unionOf): never write to
	// them.
	dead      []int  // shrunk out without replacement: the complement of origOf
	failed    []int  // failed so far, replaced or not
	abandoned intSet // sub-grid IDs abandoned (no data, coeff redistributed)
	fallbacks int    // substitute rounds degraded to shrink (spares exhausted)
}

// intSet is a set of grid IDs. The zero value is empty and reads as
// such, so a rank that never sees a failure never allocates one.
type intSet map[int]bool

func (s *intSet) add(v int) {
	if *s == nil {
		*s = make(intSet)
	}
	(*s)[v] = true
}

// sorted returns the members, ascending.
func (s intSet) sorted() []int {
	out := make([]int, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func newModeCtx(mode recovery.Mode, nprocs int) modeCtx {
	mc := modeCtx{mode: mode}
	if !mc.spawn() {
		mc.origOf = make([]int, nprocs)
		for i := range mc.origOf {
			mc.origOf[i] = i
		}
	}
	return mc
}

// spawn reports the paper's mode: every lost rank is replaced in place, so
// communicator positions are original ranks for the whole run.
func (mc *modeCtx) spawn() bool { return mc.mode == recovery.ModeSpawn }

// orig returns the original rank behind a current communicator position.
func (mc *modeCtx) orig(pos int) int { return recovery.OrigAt(mc.origOf, pos) }

// commRankOf returns the current communicator rank of an original rank, or
// -1 when it has been shrunk out.
func (mc *modeCtx) commRankOf(orig int) int {
	if mc.origOf == nil {
		return orig
	}
	return slices.Index(mc.origOf, orig)
}

// deadIn returns how many of the grid's original ranks are dead.
func (mc *modeCtx) deadIn(g SubGrid) int {
	lo, _ := slices.BinarySearch(mc.dead, g.FirstRank)
	hi, _ := slices.BinarySearch(mc.dead, g.FirstRank+g.Procs)
	return hi - lo
}

// holed reports whether the grid has at least one permanently missing
// member.
func (mc *modeCtx) holed(g SubGrid) bool { return mc.deadIn(g) > 0 }

// isDead reports whether original rank r was shrunk out.
func (mc *modeCtx) isDead(r int) bool {
	_, found := slices.BinarySearch(mc.dead, r)
	return found
}

// adopt installs rank 0's announcement on a replacement, which joins mid-run
// with no history of its own: the position map, the abandoned set, the
// current event's failed ranks, and the hole set derived as the complement
// of the map (a hole implies a failure, so the holes fold into the failure
// history too). The identity map has no complement.
func (rs *runState) adopt(mc *modeCtx, info recoveryInfo) {
	// The map is the rank's own from here on (applyEvent rewrites it in
	// place); the announcement it comes from is the run's.
	mc.origOf = slices.Clone(info.origOf)
	mc.dead = rs.holesOf(mc.origOf)
	mc.failed = rs.unionOf(mc.dead, info.failed)
	for _, id := range info.abandoned {
		mc.abandoned.add(id)
	}
}

// holesOf returns the original ranks missing from the position map origOf,
// ascending: none for the identity (nil). Built once per distinct map per
// run and shared read-only.
func (rs *runState) holesOf(origOf []int) []int {
	if origOf == nil {
		return nil
	}
	return memoList(&rs.listMu, &rs.holes, origOf, nil, func() []int {
		present := make([]bool, rs.res.Procs)
		for _, o := range origOf {
			present[o] = true
		}
		var out []int
		for r, ok := range present {
			if !ok {
				out = append(out, r)
			}
		}
		return out
	})
}

// unionOf returns the ascending union of the rank lists a and b, without
// repeats. Built once per distinct pair per run and shared read-only.
func (rs *runState) unionOf(a, b []int) []int {
	return memoList(&rs.listMu, &rs.unions, a, b, func() []int {
		u := slices.Concat(a, b)
		slices.Sort(u)
		return slices.Compact(u)
	})
}

// abandonedList returns the abandoned grid IDs, ascending.
func (mc *modeCtx) abandonedList() []int { return mc.abandoned.sorted() }

// applyEvent folds one repair event into the context: origOf is the
// post-repair position mapping, failedList the original ranks lost in the
// event (both from recovery.ReconstructMode). It updates the failure
// history, the hole and abandoned sets and returns the sub-grid IDs to
// actively recover this event. Every survivor derives identical results from
// identical inputs; rank 0's broadcast lets the others verify.
func (rs *runState) applyEvent(mc *modeCtx, origOf, failedList []int) []int {
	mc.origOf = append(mc.origOf[:0], origOf...)
	mc.failed = rs.unionOf(mc.failed, failedList)
	// Every position a repair removes is one of its failed ranks, and none
	// comes back: the ranks shrunk out so far are exactly the map's holes.
	mc.dead = rs.holesOf(mc.origOf)
	for _, id := range rs.lostGridIDs(failedList) {
		if !mc.abandoned[id] && rs.abandonGrid(mc, rs.grids[id]) {
			mc.abandoned.add(id)
		}
	}
	return rs.activeRecoverIDs(mc, failedList)
}

// activeRecoverIDs returns the damaged grids actively recovered in the
// event that lost failedList — the damaged set minus the abandoned set,
// which is exactly what applyEvent returns for survivors. Replacements
// receive the abandoned set by broadcast instead of deriving it, so they
// recompute the same list here. With nothing abandoned it is the run's
// shared lostGridIDs list itself: read it, never write to it.
func (rs *runState) activeRecoverIDs(mc *modeCtx, failedList []int) []int {
	lost := rs.lostGridIDs(failedList)
	if !slices.ContainsFunc(lost, func(id int) bool { return mc.abandoned[id] }) {
		return lost
	}
	var out []int
	for _, id := range lost {
		if !mc.abandoned[id] {
			out = append(out, id)
		}
	}
	return out
}

// abandonGrid decides whether a grid damaged by the current event is
// abandoned or recovered. Spawn abandons nothing: it replaces every lost
// rank, and Alternate Combination there keeps the paper's recovered
// coefficients over the lost levels (rankState.scheme) instead of the
// survivor scheme. Otherwise no-repair never recovers, and Alternate
// Combination's only recovery mechanism IS abandonment (coefficients are
// redistributed over the survivors), so both abandon every damaged grid.
// For CR and RC a grid with no holes — every lost member was substituted —
// recovers exactly like spawn; a grid whose members are all gone has nobody
// left to hold data. Otherwise the technique decides what a shrunken group
// can rebuild: CR recomputes from the initial condition, RC copies from its
// partner if that partner is still usable.
func (rs *runState) abandonGrid(mc *modeCtx, g SubGrid) bool {
	if mc.spawn() {
		return false
	}
	if mc.mode == recovery.ModeNoRepair {
		return true
	}
	if rs.cfg.Technique == AlternateCombination {
		return true
	}
	switch mc.deadIn(g) {
	case 0:
		return false
	case g.Procs:
		return true
	}
	switch rs.cfg.Technique {
	case CheckpointRestart:
		return false
	default: // ResamplingCopying
		if g.Role == RoleDuplicate {
			// Duplicates exist only as copy sources; a holed duplicate is
			// written off (and recorded, so a later loss of its primary is
			// not "recovered" from a grid with holes).
			return true
		}
		p, _, err := recoveryPartner(rs.grids, g)
		if err != nil {
			return true
		}
		return mc.abandoned[p.ID] || mc.holed(p)
	}
}

// liveRootOf returns the lowest surviving original rank of the grid — the
// rank that holds position 0 of the grid's group communicator after every
// shrink (Split orders by original rank) — or -1 when none survives.
func (mc *modeCtx) liveRootOf(g SubGrid) int {
	for r := g.FirstRank; r < g.FirstRank+g.Procs; r++ {
		if !mc.isDead(r) {
			return r
		}
	}
	return -1
}

// schemeMemo is one combination scheme a run computed: the survivor or the
// recovered scheme, over the agreed grid IDs it was computed for.
type schemeMemo struct {
	survivor bool
	ids      []int
	scheme   combine.Scheme
}

// memoScheme returns the scheme build computes for the agreed grid IDs ids,
// computing it once per run. Every rank asks with the same world-agreed
// lists, so the first caller's result is shared read-only by the rest.
func (rs *runState) memoScheme(survivor bool, ids []int, build func() (combine.Scheme, error)) (combine.Scheme, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, m := range rs.schemes {
		if m.survivor == survivor && slices.Equal(m.ids, ids) {
			return m.scheme, nil
		}
	}
	scheme, err := build()
	if err != nil {
		return nil, err
	}
	rs.schemes = append(rs.schemes, schemeMemo{survivor, slices.Clone(ids), scheme})
	return scheme, nil
}

// survivorScheme returns the hole-tolerant combination scheme over the
// non-abandoned grids (duplicates never carry coefficients and are excluded
// from both sides).
func (rs *runState) survivorScheme(mc *modeCtx) (combine.Scheme, error) {
	return rs.memoScheme(true, mc.abandonedList(), func() (combine.Scheme, error) {
		held := make([]grid.Level, 0, len(rs.grids))
		lost := ftcomb.NewSet()
		for _, sg := range rs.grids {
			if sg.Role == RoleDuplicate {
				continue
			}
			held = append(held, sg.Lv)
			if mc.abandoned[sg.ID] {
				lost[sg.Lv] = true
			}
		}
		scheme, err := ftcomb.SurvivorScheme(held, lost)
		if err != nil {
			return nil, fmt.Errorf("core: %v survivor scheme: %w", rs.cfg.RecoveryMode, err)
		}
		return scheme, nil
	})
}

// recoverScheme returns the Alternate Combination's recovered GCP scheme
// over every grid, with the grids lostIDs lost.
func (rs *runState) recoverScheme(lostIDs []int) (combine.Scheme, error) {
	return rs.memoScheme(false, lostIDs, func() (combine.Scheme, error) {
		held := make([]grid.Level, 0, len(rs.grids))
		lost := ftcomb.NewSet()
		for _, sg := range rs.grids {
			held = append(held, sg.Lv)
			if slices.Contains(lostIDs, sg.ID) {
				lost[sg.Lv] = true
			}
		}
		scheme, err := ftcomb.RecoverScheme(held, lost)
		if err != nil {
			return nil, fmt.Errorf("core: alternate combination: %w", err)
		}
		return scheme, nil
	})
}

// restorable reports whether the state a survivor held before a repair is
// carried into its rebuilt solver. All members of a grid must act alike, so
// the broadcast-agreed damage decides, in every mode: a damaged grid's state
// is rebuilt by recoverData or the grid is abandoned, and restoring would be
// redundant or, where groups can shrink, shape-mismatched.
func (mc *modeCtx) restorable(damaged bool, gridID int) bool {
	return !damaged && !mc.abandoned[gridID]
}

// recoveryInfo is what rank 0 announces over the repaired communicator, so
// that replacements learn where to rejoin (they cannot derive the step once
// several failure events are allowed) and every survivor can verify its
// locally derived copy.
type recoveryInfo struct {
	step      int   // the detection step the survivors stand at
	failed    []int // the event's failed original ranks
	abandoned []int // the cumulative abandoned grid set
	origOf    []int // the position map; nil is the identity
}

// encodeInfo builds the announcement's payload. Spawn's layout is the short
// one — step, then the failed ranks: it has no abandoned set and no map to
// announce, and the 2 + P ints of the full layout on every spawn broadcast
// would move virtual time.
func (mc *modeCtx) encodeInfo(step int, failed []int) []int {
	if mc.spawn() {
		return append([]int{step}, failed...)
	}
	buf := make([]int, 0, 3+len(failed)+len(mc.abandoned)+len(mc.origOf))
	buf = append(buf, step, len(failed))
	buf = append(buf, failed...)
	buf = append(buf, len(mc.abandoned))
	buf = append(buf, mc.abandonedList()...)
	return append(buf, mc.origOf...)
}

// decodeInfo decodes an announcement received on a communicator of the given
// size. The decoded lists are slices of the run's copy of the announcement,
// made once per distinct announcement and shared read-only by every rank
// that received it, so they outlive buf.
func (rs *runState) decodeInfo(mc *modeCtx, size int, buf []int) (recoveryInfo, error) {
	if len(buf) < 1 {
		return recoveryInfo{}, fmt.Errorf("core: empty recovery info")
	}
	buf = memoList(&rs.listMu, &rs.announced, buf, nil, func() []int { return slices.Clone(buf) })
	info := recoveryInfo{step: buf[0]}
	if mc.spawn() {
		info.failed = buf[1:]
		return info, nil
	}
	// step, nf, failed[nf], na, abandoned[na], origOf[size]
	if len(buf) < 3 || buf[1] < 0 || len(buf) < 3+buf[1] {
		return recoveryInfo{}, fmt.Errorf("core: malformed recovery info (%d ints)", len(buf))
	}
	nf := buf[1]
	na := buf[2+nf]
	if na < 0 || len(buf) != 3+nf+na+size {
		return recoveryInfo{}, fmt.Errorf("core: malformed recovery info (%d ints: %d failed, %d abandoned, size-%d communicator)",
			len(buf), nf, na, size)
	}
	info.failed, info.abandoned, info.origOf = buf[2:2+nf], buf[3+nf:3+nf+na], buf[3+nf+na:]
	return info, nil
}
