package core

import (
	"fmt"
	"slices"

	"ftsg/internal/combine"
	"ftsg/internal/ftcomb"
	"ftsg/internal/grid"
	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
)

// modeCtx is one rank's view of the recovery mode: the mode, and the state
// of the world communicator the rank is on.
type modeCtx struct {
	mode recovery.Mode
	st   *modeState // the communicator's, shared read-only: never write to it
}

// modeState is what the ranks of one world communicator agree on about the
// run's recovery: the mapping from communicator positions to original
// ranks, the original ranks that left permanent holes (shrunk out, never
// replaced), the sub-grids abandoned as a consequence, and the repair event
// that made the communicator. Every mode carries one: under spawn no
// position ever moves, nothing is holed and nothing is abandoned, so the
// same questions get the trivial answers.
//
// A state is built once per repaired communicator, by whichever of its
// ranks asks first (repairedState, announcedState), and shared read-only by
// every rank on it; the launched world's is the run's (runState.initial).
// Never write to one.
type modeState struct {
	// origOf is the original rank behind each communicator position — the
	// map recovery.ReconstructMode threads through its shrinks; nil is the
	// identity, which every run starts on. A shrunk map is the shrunk
	// communicator's (recovery's Comm.Agreed value).
	origOf    []int
	holes     []int // shrunk out without replacement, ascending: the complement of origOf
	abandoned []int // sub-grid IDs abandoned (no data, coeff redistributed), ascending

	// The repair event that made the communicator (none for the launched
	// world, whose lost grids are a simulated-loss run's, if any).
	failed  []int  // its failed original ranks, ascending
	lost    []int  // the sub-grids they held, ascending
	recover []int  // the lost sub-grids left to recover: lost minus abandoned
	detail  string // the recover-data span's detail for recover
}

// spawn reports the paper's mode: every lost rank is replaced in place, so
// communicator positions are original ranks for the whole run.
func (mc *modeCtx) spawn() bool { return mc.mode == recovery.ModeSpawn }

// orig returns the original rank behind a communicator position.
func (st *modeState) orig(pos int) int { return recovery.OrigAt(st.origOf, pos) }

// appendMap appends the position map of a size-rank communicator to dst,
// spelling out the identity.
func (st *modeState) appendMap(dst []int, size int) []int {
	if st.origOf != nil {
		return append(dst, st.origOf...)
	}
	for i := 0; i < size; i++ {
		dst = append(dst, i)
	}
	return dst
}

// sameMap reports whether list, a position map spelled out, is the state's.
func (st *modeState) sameMap(list []int) bool {
	if st.origOf != nil || list == nil {
		return slices.Equal(list, st.origOf)
	}
	for i, o := range list {
		if o != i {
			return false
		}
	}
	return true
}

// commRankOf returns the communicator rank of an original rank, or -1 when
// it has been shrunk out.
func (st *modeState) commRankOf(orig int) int {
	if st.origOf == nil {
		return orig
	}
	return slices.Index(st.origOf, orig)
}

// deadIn returns how many of the grid's original ranks are dead.
func (st *modeState) deadIn(g SubGrid) int {
	lo, _ := slices.BinarySearch(st.holes, g.FirstRank)
	hi, _ := slices.BinarySearch(st.holes, g.FirstRank+g.Procs)
	return hi - lo
}

// holed reports whether the grid has at least one permanently missing
// member.
func (st *modeState) holed(g SubGrid) bool { return st.deadIn(g) > 0 }

// isDead reports whether original rank r was shrunk out.
func (st *modeState) isDead(r int) bool {
	_, found := slices.BinarySearch(st.holes, r)
	return found
}

// isAbandoned reports whether the sub-grid was abandoned.
func (st *modeState) isAbandoned(id int) bool {
	_, found := slices.BinarySearch(st.abandoned, id)
	return found
}

// liveRootOf returns the lowest surviving original rank of the grid — the
// rank that holds position 0 of the grid's group communicator after every
// shrink (Split orders by original rank) — or -1 when none survives.
func (st *modeState) liveRootOf(g SubGrid) int {
	for r := g.FirstRank; r < g.FirstRank+g.Procs; r++ {
		if !st.isDead(r) {
			return r
		}
	}
	return -1
}

// restorable reports whether the state a survivor held before a repair is
// carried into its rebuilt solver. All members of a grid must act alike, so
// the broadcast-agreed damage decides, in every mode: a damaged grid's state
// is rebuilt by recoverData or the grid is abandoned, and restoring would be
// redundant or, where groups can shrink, shape-mismatched.
func (st *modeState) restorable(damaged bool, gridID int) bool {
	return !damaged && !st.isAbandoned(gridID)
}

// modeStateKey names the recovery-mode state among a world communicator's
// agreed values.
type modeStateKey struct{}

// repairedState returns the state of c, the communicator a repair left
// under map origOf after losing the original ranks failed: mc's state with
// that event folded in. Every survivor asks with equal inputs — the same
// event and, as agreed checked after the last repair, previous states of
// equal content — so the first to ask builds it and every rank on c shares
// it. The event's grids are abandoned or recovered as abandonGrid decides,
// in ascending order, each decision seeing the ones before it.
func (rs *runState) repairedState(c *mpi.Comm, mc *modeCtx, origOf, failed []int) *modeState {
	return c.Agreed(modeStateKey{}, func() any {
		st := rs.eventState(origOf, failed)
		st.abandoned = mc.st.abandoned
		for _, id := range st.lost {
			if !st.isAbandoned(id) && rs.abandonGrid(mc.mode, st, rs.grids[id]) {
				st.abandoned = recovery.Union(st.abandoned, []int{id})
			}
		}
		return rs.settle(st)
	}).(*modeState)
}

// announcedState returns the state of c, the communicator a replacement
// joined, as rank 0's announcement info describes it. Rank 0 built the
// survivors' state before it announced, so a replacement finds theirs;
// infoState builds what a replacement that got there first would share
// instead.
func (rs *runState) announcedState(c *mpi.Comm, info recoveryInfo) *modeState {
	return c.Agreed(modeStateKey{}, func() any { return rs.infoState(info) }).(*modeState)
}

// infoState builds the state an announcement describes, from copies of its
// lists. The full layout spells the identity out; the state keeps it as nil.
func (rs *runState) infoState(info recoveryInfo) *modeState {
	origOf := info.origOf
	if len(origOf) == rs.res.Procs && rs.initial.sameMap(origOf) {
		origOf = nil
	}
	st := rs.eventState(append([]int(nil), origOf...), append([]int(nil), info.failed...))
	st.abandoned = append([]int(nil), info.abandoned...)
	return rs.settle(st)
}

// eventState starts the state a repair event leaves: the map, its holes,
// and the event's failed ranks and lost grids. Every position a repair
// removes is one of its failed ranks, and none comes back: the ranks shrunk
// out so far are exactly the map's holes.
func (rs *runState) eventState(origOf, failed []int) *modeState {
	st := &modeState{origOf: origOf, failed: failed, lost: rs.lostGridIDs(failed)}
	if origOf != nil {
		present := make([]bool, rs.res.Procs)
		for _, o := range origOf {
			present[o] = true
		}
		for r, ok := range present {
			if !ok {
				st.holes = append(st.holes, r)
			}
		}
	}
	return st
}

// settle finishes a state once its abandoned set is known: the lost grids
// left to recover — the lost list itself when nothing of it is abandoned —
// and their recover-data detail.
func (rs *runState) settle(st *modeState) *modeState {
	st.recover = st.lost
	if slices.ContainsFunc(st.lost, st.isAbandoned) {
		st.recover = slices.DeleteFunc(slices.Clone(st.lost), st.isAbandoned)
	}
	if len(st.recover) > 0 {
		st.detail = rs.recoverDetail(st.recover)
	}
	return st
}

// recoverDetail is the recover-data span's detail for the sub-grids ids (a
// span detail's args are ints only, so the list cannot be one).
func (rs *runState) recoverDetail(ids []int) string {
	return fmt.Sprintf("%v, sub-grids %v", rs.cfg.Technique, ids)
}

// abandonGrid decides whether a grid damaged by the event that leaves st is
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
func (rs *runState) abandonGrid(mode recovery.Mode, st *modeState, g SubGrid) bool {
	if mode == recovery.ModeSpawn {
		return false
	}
	if mode == recovery.ModeNoRepair {
		return true
	}
	if rs.cfg.Technique == AlternateCombination {
		return true
	}
	switch st.deadIn(g) {
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
		return st.isAbandoned(p.ID) || st.holed(p)
	}
}

// schemeKey names the combination scheme among the final world
// communicator's agreed values.
type schemeKey struct{}

// agreedScheme is a run's combination scheme, or why it has none.
type agreedScheme struct {
	scheme combine.Scheme
	err    error
}

// schemeOf computes the combination scheme of a run that ends in state st
// when it departs from the classic one (rankState.scheme): with grids
// abandoned, the hole-tolerant survivor scheme over the others (duplicates
// never carry coefficients and are excluded from both sides); otherwise
// Alternate Combination's recovered GCP scheme over every grid, with the
// lost ones lost.
func (rs *runState) schemeOf(st *modeState) *agreedScheme {
	survivor, lostIDs := len(st.abandoned) > 0, st.lost
	if survivor {
		lostIDs = st.abandoned
	}
	held := make([]grid.Level, 0, len(rs.grids))
	lost := ftcomb.NewSet()
	for _, sg := range rs.grids {
		if survivor && sg.Role == RoleDuplicate {
			continue
		}
		held = append(held, sg.Lv)
		if slices.Contains(lostIDs, sg.ID) {
			lost[sg.Lv] = true
		}
	}
	var sc agreedScheme
	if survivor {
		if sc.scheme, sc.err = ftcomb.SurvivorScheme(held, lost); sc.err != nil {
			sc.err = fmt.Errorf("core: %v survivor scheme: %w", rs.cfg.RecoveryMode, sc.err)
		}
	} else if sc.scheme, sc.err = ftcomb.RecoverScheme(held, lost); sc.err != nil {
		sc.err = fmt.Errorf("core: alternate combination: %w", sc.err)
	}
	return &sc
}

// recoveryInfo is what rank 0 announces over the repaired communicator, so
// that replacements learn where to rejoin (they cannot derive the step once
// several failure events are allowed) and every survivor can check the
// communicator's state against it.
type recoveryInfo struct {
	step      int   // the detection step the survivors stand at
	failed    []int // the event's failed original ranks
	abandoned []int // the cumulative abandoned grid set
	origOf    []int // the position map; nil is the identity
}

// encodeInfo builds the announcement of the state over a communicator of
// the given size. Spawn's layout is the short one — step, then the failed
// ranks: it has no abandoned set and no map to announce, and the 2 + P ints
// of the full layout on every spawn broadcast would move virtual time. The
// full layout spells the map out, the identity too.
func (mc *modeCtx) encodeInfo(step, size int) []int {
	st := mc.st
	if mc.spawn() {
		return append([]int{step}, st.failed...)
	}
	buf := make([]int, 0, 3+len(st.failed)+len(st.abandoned)+size)
	buf = append(buf, step, len(st.failed))
	buf = append(buf, st.failed...)
	buf = append(buf, len(st.abandoned))
	buf = append(buf, st.abandoned...)
	return st.appendMap(buf, size)
}

// decodeInfo decodes an announcement received on a communicator of the
// given size under mode. The decoded lists are views of buf: they live as
// long as it does.
func decodeInfo(mode recovery.Mode, size int, buf []int) (recoveryInfo, error) {
	if len(buf) < 1 {
		return recoveryInfo{}, fmt.Errorf("core: empty recovery info")
	}
	info := recoveryInfo{step: buf[0]}
	if mode == recovery.ModeSpawn {
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
