// Package recovery is a faithful transcription of the paper's ULFM recovery
// protocol (Figs. 3-7) against the simulated MPI runtime:
//
//   - Fig. 3  communicatorReconstruct: the detect/repair loop, with the
//     child (re-spawned process) path that merges into the parents and is
//     re-ordered to the failed process's old rank.
//   - Fig. 4  mpiErrorHandler: acknowledge failures on the communicator.
//   - Fig. 5  repairComm: revoke, shrink, spawn replacements on the same
//     hosts, merge, agree, distribute old ranks, split to restore order.
//   - Fig. 6  failedProcsList: globally consistent failed-rank list via
//     group compare/difference/translate.
//   - Fig. 7  selectRankKey: split keys that restore the pre-failure order.
//
// The reconstructed communicator has the same size and rank distribution as
// before the failure, and replacements run on the hosts of their failed
// predecessors, preserving load balance.
package recovery

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/trace"
)

// MergeTag is the tag used to send each child its predecessor's rank
// (MERGE_TAG in the paper's pseudo-code).
const MergeTag = 900

// maxRepairRounds bounds the Fig. 3 loop. Every failed repair round is
// caused by at least one fresh process death, and the next round's shrink
// excludes it, so the loop provably terminates; the bound only guards
// against runtime bugs turning into livelock.
const maxRepairRounds = 64

// ErrOrphaned reports that a re-spawned process's repair round was itself
// hit by a failure and abandoned: the surviving parents retried the repair
// from the original broken communicator and spawned fresh replacements, so
// this child was never knitted into the application and must exit cleanly
// without participating further.
var ErrOrphaned = errors.New("recovery: replacement orphaned by a failure during recovery")

// retryable reports whether a failed repair round may be retried from the
// original broken communicator: a process death or a revocation observed
// mid-protocol means this round is lost but the protocol itself is intact.
func retryable(err error) bool {
	return errors.Is(err, mpi.ErrProcFailed) || errors.Is(err, mpi.ErrRevoked)
}

// Stats records the virtual-time cost of each protocol component, the
// quantities behind the paper's Fig. 8 and Table I.
type Stats struct {
	// ListTime is the time to produce globally consistent failure
	// information: the synchronising agree, the detection barrier, the
	// error-handler acknowledgement, and the group algebra of Fig. 6
	// (paper Fig. 8a).
	ListTime float64
	// ReconstructTime is the total time of repairComm plus the child-side
	// merge/split (paper Fig. 8b).
	ReconstructTime float64
	// Component times within reconstruction (paper Table I).
	ShrinkTime float64
	SpawnTime  float64
	MergeTime  float64
	AgreeTime  float64
	SplitTime  float64
	// Iterations of the Fig. 3 loop (more than 1 only if failures hit
	// during recovery itself).
	Iterations int
	// FailedRanks lists the communicator ranks that were replaced.
	FailedRanks []int
	// Trace, when non-nil, receives one span per protocol phase (detect,
	// revoke, shrink, spawn, merge, agree, split) on the caller's timeline,
	// so exporters can render the recovery as a structured timeline. A nil
	// recorder drops everything.
	Trace *trace.Recorder
	// Metrics, when non-nil, additionally charges each phase's virtual-time
	// cost to a recovery.phase.<name> TimeSum — the per-phase breakdown the
	// telemetry plane serves at /metrics. A nil registry drops everything.
	Metrics *metrics.Registry
	// ModeLabel, when non-empty, additionally charges every phase to a
	// recovery.mode.<label>.phase.<name> TimeSum, so runs that mix recovery
	// modes keep per-mode repair-cost breakdowns. The spawn path leaves it
	// empty and its series unchanged.
	ModeLabel string
}

// phase is one protocol phase in progress: when it began and its open span.
// Stats.open starts one; close ends it and does all of its booking.
type phase struct {
	t0 float64
	sp trace.SpanHandle
}

// open starts protocol phase name at p's current virtual time, with a span on
// track's timeline: the caller's original rank (see reconstruct). The span's
// detail is formatted as trace.Recorder.BeginSpan describes, only when it is
// read. With no recorder it records nothing and allocates nothing.
func (st *Stats) open(p *mpi.Proc, track int, name, format string, args ...int) phase {
	t0 := p.Now()
	return phase{t0, st.Trace.BeginSpan(t0, track, name, format, args...)}
}

// close ends the phase's span and, when err is nil, books its virtual-time
// cost: to *field (when the phase has a Stats field) and to the
// recovery.phase.<name> and recovery.mode.<label>.phase.<name> TimeSums. A
// failed phase books nothing. It returns err, so a call site closes and
// checks in one statement. With no registry it builds no instrument names.
func (ph phase) close(p *mpi.Proc, st *Stats, name string, field *float64, err error) error {
	now := p.Now()
	ph.sp.End(now)
	if err != nil {
		return err
	}
	d := now - ph.t0
	if field != nil {
		*field += d
	}
	if st.Metrics != nil {
		st.Metrics.TimeSum("recovery.phase." + name).Add(d)
		if st.ModeLabel != "" {
			st.Metrics.TimeSum("recovery.mode." + st.ModeLabel + ".phase." + name).Add(d)
		}
	}
	return nil
}

// ErrorHandler returns the Fig. 4 error handler for p's communicators. It
// charges the delay to the process that owns the failing handle, which is
// p, so it captures nothing: every rank and every call gets the same
// function value, and installing it allocates nothing.
func ErrorHandler(p *mpi.Proc) mpi.Errhandler { return fig4Handler }

// fig4Handler is the Fig. 4 handler: on a process-failure error it
// acknowledges the failure set and reads it back, as the paper's handler
// does, and charges the >=10 ms delay the paper found necessary in the beta
// ULFM.
func fig4Handler(c *mpi.Comm, err error) {
	if !errors.Is(err, mpi.ErrProcFailed) {
		return
	}
	_ = c.FailureAck()
	_ = c.FailureGetAcked()
	p := c.Proc()
	p.Compute(p.Machine().ULFM.AckDelay)
}

// FailedProcsList is Fig. 6: compare the broken communicator's group with
// the shrunken group and translate the difference back to ranks in the
// broken communicator. It returns the failed ranks in group order
// (ascending).
//
// Every survivor would derive the same list, so the group algebra runs once
// per (broken, shrunk) pair, on whichever survivor gets there first, and
// every caller gets that one list (mpi.Comm.Agreed on the shrunken
// communicator, keyed by the broken one): it is shared read-only, never
// write to it. Each caller is still charged the three group operations of
// Fig. 6 (one when the groups are identical and there is nothing to
// translate), exactly as if it had run them itself.
func FailedProcsList(broken, shrunk *mpi.Comm) []int {
	n := broken.Size()
	broken.ChargeGroupOp(n)
	failed := shrunk.Agreed(failedKey{broken.ID()}, func() any {
		return failedProcs(broken.Group(), shrunk.Group())
	}).([]int)
	if failed == nil { // MPI_IDENT: nobody failed
		return nil
	}
	broken.ChargeGroupOp(n)
	broken.ChargeGroupOp(n)
	return failed
}

// failedKey names Fig. 6's answer among the shrunken communicator's agreed
// values: the failed list of the broken communicator it names.
type failedKey struct{ broken mpi.CommID }

// failedProcs is Fig. 6's group algebra: nil when the groups are identical,
// otherwise the ranks in oldGroup of its members missing from shrinkGroup.
// The shrunken group is an in-order subsequence of the broken one, which
// Difference and TranslateRanks each resolve in one pass.
func failedProcs(oldGroup, shrinkGroup mpi.Group) []int {
	if oldGroup.Compare(shrinkGroup) == mpi.GroupIdent {
		return nil
	}
	failedGroup := oldGroup.Difference(shrinkGroup)
	tempRanks := make([]int, failedGroup.Size())
	for i := range tempRanks {
		tempRanks[i] = i
	}
	return failedGroup.TranslateRanks(tempRanks, oldGroup)
}

// SelectRankKey is Fig. 7: the split key that orders the merged
// communicator back into the pre-failure rank order. Surviving process i of
// the shrunken communicator receives its old rank; children use the old
// rank received from rank 0.
//
// The paper builds the list of surviving old ranks (0..totalProcs-1 without
// failedRanks) and indexes it with mpiRank. The mpiRank-th survivor is
// computed here directly — each failed rank at or below the running answer
// pushes it up by one — so a rank allocates nothing for it.
func SelectRankKey(mpiRank, shrinkedGroupSize int, failedRanks []int, totalProcs int) int {
	if mpiRank < 0 || mpiRank >= shrinkedGroupSize {
		return -1
	}
	if !sort.IntsAreSorted(failedRanks) { // FailedProcsList's are
		failedRanks = append([]int(nil), failedRanks...)
		sort.Ints(failedRanks)
	}
	key := mpiRank
	for i, f := range failedRanks {
		if f > key {
			break
		}
		if f >= 0 && (i == 0 || f != failedRanks[i-1]) {
			key++
		}
	}
	if key >= totalProcs {
		return -1
	}
	return key
}

// Placement chooses the hosts on which to re-spawn replacements, given the
// failed ranks. Every surviving process would compute the same placement
// (only the root's choice is significant to MPI_Comm_spawn_multiple, but
// determinism keeps the protocol simple), so repair asks it once per round,
// on whichever survivor gets there first (see spawnPlan): it must be a pure
// function of the cluster and the list, must not block or charge virtual
// time, and must not write to the list.
type Placement func(p *mpi.Proc, failedRanks []int) ([]string, error)

// spawnPlan is what every survivor of a spawn round would derive
// identically from the round's failed list: the hosts the replacements go
// to (or why there are none) and the spawn span's detail. It is built once
// per round and shared read-only.
type spawnPlan struct {
	hosts  []string
	err    error
	detail string
}

// spawnKey names a round's spawnPlan among the shrunken communicator's
// agreed values.
type spawnKey struct{ broken mpi.CommID }

// planSpawn returns the round's spawnPlan for failed, the round's shared
// FailedProcsList.
func planSpawn(p *mpi.Proc, broken, shrunk *mpi.Comm, failed []int, place Placement) *spawnPlan {
	return shrunk.Agreed(spawnKey{broken.ID()}, func() any {
		hosts, err := place(p, failed)
		return &spawnPlan{hosts, err, fmt.Sprintf("%d replacements on %v", len(failed), hosts)}
	}).(*spawnPlan)
}

// SameHostPlacement is the paper's policy (Fig. 5 lines 5-12): each
// replacement lands on the host its failed predecessor ran on, preserving
// load balance exactly.
func SameHostPlacement(p *mpi.Proc, failedRanks []int) ([]string, error) {
	return p.Cluster().SpawnHosts(failedRanks)
}

// SpareNodePlacement implements the paper's stated future work: "in the
// case of node failure ... all the processes on that node will fail and be
// restarted on the new node. This will have the same load balancing
// characteristics as our current approach." Every replacement is placed on
// the named spare host.
func SpareNodePlacement(spareHost string) Placement {
	return func(p *mpi.Proc, failedRanks []int) ([]string, error) {
		if _, err := p.Cluster().HostIndexByName(spareHost); err != nil {
			return nil, err
		}
		hosts := make([]string, len(failedRanks))
		for i := range hosts {
			hosts[i] = spareHost
		}
		return hosts, nil
	}
}

// repair is Fig. 5: the parent-side repair of a broken communicator.
// Revoke, shrink and the Fig. 6 failed list are common to every mode; the
// modes differ only in how replacements are acquired — spawned on the hosts
// place chooses (the paper), claimed from the pre-allocated spare pool
// (substitute), or not at all (shrink, no-repair) — and spawned and claimed
// processes are then knitted in identically: merge, agree, old ranks, split.
//
// It returns the repaired communicator and the failed ranks in broken's
// numbering. Under spawn and substitute the result has broken's size and rank
// order; under shrink and no-repair it is the shrunken communicator. When the
// spare pool cannot cover the failures every member uniformly receives
// mpi.ErrNoSpares from the claim and the round degrades to the shrunken
// communicator with fellBack set — the deterministic fallback the regression
// tests pin.
//
// A claim's virtual cost is charged to Stats.SpawnTime: it occupies the
// replacement-acquisition slot of the Table I breakdown, which is exactly the
// number the spawn-vs-substitute comparison measures. Every phase span goes on
// track, the caller's original rank.
func repair(p *mpi.Proc, broken *mpi.Comm, st *Stats, place Placement, mode Mode, track int) (repaired *mpi.Comm, failedRanks []int, fellBack bool, err error) {
	ph := st.open(p, track, "revoke", "")
	_ = broken.Revoke()
	ph.close(p, st, "revoke", nil, nil)

	ph = st.open(p, track, "shrink", "")
	shrunk, err := broken.Shrink()
	if ph.close(p, st, "shrink", &st.ShrinkTime, err) != nil {
		return nil, nil, false, fmt.Errorf("recovery: shrink: %w", err)
	}

	t0 := p.Now()
	failedRanks = FailedProcsList(broken, shrunk)
	st.ListTime += p.Now() - t0
	if len(failedRanks) == 0 {
		return nil, nil, false, fmt.Errorf("recovery: repair called with no failed processes")
	}
	st.FailedRanks = failedRanks
	totalFailed := len(failedRanks)

	var inter *mpi.Comm
	switch mode {
	case ModeSpawn:
		plan := planSpawn(p, broken, shrunk, failedRanks, place)
		if plan.err != nil {
			return nil, nil, false, fmt.Errorf("recovery: placement: %w", plan.err)
		}
		ph = st.open(p, track, "spawn", plan.detail)
		inter, err = shrunk.SpawnMultiple(totalFailed, plan.hosts, 0)
		if ph.close(p, st, "spawn", &st.SpawnTime, err) != nil {
			return nil, nil, false, fmt.Errorf("recovery: spawn: %w", err)
		}
	case ModeSubstitute:
		ph = st.open(p, track, "claim", "%d spares", totalFailed)
		inter, err = shrunk.ClaimSpares(totalFailed)
		if errors.Is(ph.close(p, st, "claim", &st.SpawnTime, err), mpi.ErrNoSpares) {
			return shrunk, failedRanks, true, nil
		}
		if err != nil {
			return nil, nil, false, fmt.Errorf("recovery: claim: %w", err)
		}
	default: // ModeShrink, ModeNoRepair: nothing to knit in
		return shrunk, failedRanks, false, nil
	}

	ph = st.open(p, track, "merge", "")
	unordered, err := inter.IntercommMerge(false)
	if ph.close(p, st, "merge", &st.MergeTime, err) != nil {
		return nil, nil, false, fmt.Errorf("recovery: merge: %w", err)
	}

	// From here on the replacements are blocked inside their own ChildAttach
	// (agree, then a receive of their old rank on the merged communicator). If
	// anything below fails — the Table I pathology of a further failure during
	// an in-progress repair — the merged communicator is revoked before
	// returning, so every replacement deterministically observes the
	// abandonment (MPI_ERR_REVOKED), exits as orphaned, and the caller can
	// retry the repair from the original broken communicator.
	abandon := func(err error) error {
		_ = unordered.Revoke()
		return err
	}

	ph = st.open(p, track, "agree", "")
	_, err = inter.Agree(1)
	if ph.close(p, st, "agree", &st.AgreeTime, err) != nil {
		return nil, nil, false, abandon(fmt.Errorf("recovery: agree: %w", err))
	}

	// Rank 0 of the merged communicator tells each replacement its old rank
	// (replacements occupy the highest ranks after the high merge).
	shrinkedGroupSize := shrunk.Size()
	if unordered.Rank() == 0 {
		for i, fr := range failedRanks {
			if err := mpi.SendOne(unordered, shrinkedGroupSize+i, MergeTag, fr); err != nil {
				return nil, nil, false, abandon(fmt.Errorf("recovery: send old rank: %w", err))
			}
		}
	}

	totalProcs := unordered.Size()
	key := SelectRankKey(unordered.Rank(), shrinkedGroupSize, failedRanks, totalProcs)
	ph = st.open(p, track, "split", "restore rank order, key %d", key)
	repaired, err = unordered.Split(0, key)
	if ph.close(p, st, "split", &st.SplitTime, err) != nil {
		return nil, nil, false, abandon(fmt.Errorf("recovery: split: %w", err))
	}
	return repaired, failedRanks, false, nil
}

// ChildAttach is the child part of Fig. 3 (lines 19-26): synchronise with
// the parents, merge high, learn the predecessor's rank, and split into
// order.
func ChildAttach(p *mpi.Proc, parent *mpi.Comm, st *Stats) (*mpi.Comm, int, error) {
	// Child spans go on the world-unique id's track: the replacement has no
	// communicator rank until the final split, and the fresh track makes the
	// re-spawned process visible next to the survivors in the exported
	// timeline.
	parent.SetErrhandler(ErrorHandler(p))
	ph := st.open(p, p.WorldRank(), "agree", "child synchronise")
	_, agreeErr := parent.Agree(1)
	ph.close(p, st, "agree", &st.AgreeTime, nil) // booked even when it failed
	if agreeErr != nil {
		// The agreement over the spawn intercommunicator covers exactly this
		// repair round's participants (survivors + children), so a failure
		// report here means a participant died during the repair itself: the
		// parents will abandon this round and retry with fresh replacements
		// (see repair). This child is orphaned.
		return nil, -1, fmt.Errorf("recovery: child agree: %v: %w", agreeErr, ErrOrphaned)
	}

	ph = st.open(p, p.WorldRank(), "merge", "child merge high")
	unordered, err := parent.IntercommMerge(true)
	if ph.close(p, st, "merge", &st.MergeTime, err) != nil {
		return nil, -1, fmt.Errorf("recovery: child merge: %w", err)
	}

	oldRank, _, err := mpi.RecvOne[int](unordered, 0, MergeTag)
	if err != nil {
		if retryable(err) {
			// The parents revoked the merged communicator (or a participant
			// died) before rank 0 could send this child its old rank: the
			// round was abandoned.
			return nil, -1, fmt.Errorf("recovery: child receive old rank: %v: %w", err, ErrOrphaned)
		}
		return nil, -1, fmt.Errorf("recovery: child receive old rank: %w", err)
	}

	ph = st.open(p, p.WorldRank(), "split", "assume old rank %d", oldRank)
	ordered, err := unordered.Split(0, oldRank)
	if ph.close(p, st, "split", &st.SplitTime, err) != nil {
		if retryable(err) {
			return nil, -1, fmt.Errorf("recovery: child split: %v: %w", err, ErrOrphaned)
		}
		return nil, -1, fmt.Errorf("recovery: child split: %w", err)
	}
	return ordered, oldRank, nil
}

// Reconstruct is Fig. 3 with the paper's repair — spawn replacements on the
// hosts of their failed predecessors. Original processes pass their current
// world communicator and a nil parent; re-spawned processes pass a nil
// communicator and their Proc.Parent intercommunicator (only on their first
// call — once attached they are ordinary parents). On return every process
// holds a full-size communicator with the pre-failure rank order, verified
// failure-free by a final agree+barrier round.
//
// The returned rank is the process's rank in the reconstructed
// communicator (for children, the failed predecessor's rank).
func Reconstruct(p *mpi.Proc, myWorld *mpi.Comm, parent *mpi.Comm, st *Stats) (*mpi.Comm, int, error) {
	return reconstruct(p, myWorld, parent, st, SameHostPlacement, ModeSpawn, nil, nil)
}

// reconstruct is Fig. 3: the detect/repair loop, the same for every mode.
// It returns the verified communicator and the caller's rank in it; the
// position map threaded through the loop's shrinks (see ReconstructMode) and
// the number of substitute rounds that fell back to shrink-only go to res
// when it is non-nil. Every phase span goes on the caller's original rank,
// read from that map, so two processes never share a track after a shrink.
func reconstruct(p *mpi.Proc, myWorld, parent *mpi.Comm, st *Stats, place Placement, mode Mode, origOf []int, res *ModeResult) (*mpi.Comm, int, error) {
	switch mode {
	case ModeSpawn, ModeSubstitute:
	case ModeShrink, ModeNoRepair:
		if parent != nil {
			return nil, -1, fmt.Errorf("recovery: mode %v has no replacement processes", mode)
		}
	default:
		return nil, -1, fmt.Errorf("recovery: unknown mode %v", mode)
	}

	reconstructed := myWorld
	handler := ErrorHandler(p)
	lg := ledger{cur: origOf}

	for iter := 0; ; iter++ {
		st.Iterations = iter + 1
		if parent != nil {
			// Child path (a re-spawned process or a claimed spare): attach,
			// then behave as a parent to verify.
			t0 := p.Now()
			ordered, _, err := ChildAttach(p, parent, st)
			st.ReconstructTime += p.Now() - t0
			if err != nil {
				return nil, -1, err
			}
			reconstructed = ordered
			parent = nil // Fig. 3 line 32: the child becomes a parent.
			continue
		}

		reconstructed.SetErrhandler(handler)

		// Detection: a barrier followed by a synchronising agree (Fig. 3
		// lines 12-13; both contribute to the failure-information time of
		// Fig. 8a). The agree runs LAST so the repair decision is uniform: a
		// process death inside the barrier surfaces non-uniformly (ranks whose
		// dissemination partners were unaffected complete it), but the agree
		// reports any member death to every member, so either all members
		// repair or none do — no rank leaves the loop while another revokes
		// the communicator behind its back.
		track := OrigAt(lg.cur, reconstructed.Rank())
		ph := st.open(p, track, "detect", "barrier + agree round")
		barrierErr := reconstructed.Barrier()
		_, agreeErr := reconstructed.Agree(1)
		ph.close(p, st, "detect", &st.ListTime, nil)

		if agreeErr == nil && barrierErr == nil {
			if lg.replaced != nil {
				// Several repairs may have run back-to-back (a fresh failure
				// hit the verification round of an earlier repair). Report the
				// union so callers recover the data of EVERY replaced rank, not
				// just the last round's.
				st.FailedRanks = lg.replaced
			}
			if res != nil {
				res.OrigOf, res.Fallbacks = lg.cur, lg.fallbacks
			}
			return reconstructed, reconstructed.Rank(), nil
		}

		t0 := p.Now()
		repaired, failed, fellBack, err := repair(p, reconstructed, st, place, mode, track)
		st.ReconstructTime += p.Now() - t0
		if err != nil {
			if retryable(err) && iter+1 < maxRepairRounds {
				// A further failure hit the repair itself (Table I's expensive
				// pathology). Retry from the SAME broken communicator: it still
				// carries the original size and rank order, the next shrink
				// excludes every failure so far, and fresh replacements are
				// acquired for all of them; replacements of the abandoned round
				// observed the revocation and exited as orphans.
				continue
			}
			return nil, -1, err
		}

		lg.record(mode, failed, repaired.Size() < reconstructed.Size(), fellBack)
		reconstructed = repaired
	}
}

// ledger is what one reconstruct call accumulates over its repair rounds.
type ledger struct {
	cur []int // original rank behind each current position; nil: see record
	// replaced is the union of failed ORIGINAL ranks, ascending. After one
	// spawn round it is that round's shared failed list itself.
	replaced  []int
	fallbacks int // substitute rounds that degraded to shrink-only
}

// record books one successful repair round: failed is in the broken
// communicator's numbering (ascending, as FailedProcsList returns it) and
// cur translates it to original ranks. Spawn never moves a position, so
// there a nil map is the identity — which is what lets a child that became
// a parent still report the union. A claimed spare's nil map is genuinely
// unknown (earlier fallbacks may have shifted positions): it reports none
// and learns the list from the application's broadcast. A round that shrank
// the communicator drops the failed positions from the map.
func (lg *ledger) record(mode Mode, failed []int, shrank, fellBack bool) {
	if lg.cur != nil || mode == ModeSpawn {
		orig := failed
		if lg.cur != nil {
			orig = make([]int, len(failed))
			for i, r := range failed {
				orig[i] = lg.cur[r]
			}
			slices.Sort(orig)
		}
		lg.replaced = union(lg.replaced, orig)
	}
	if shrank {
		lg.cur = removeIdx(lg.cur, failed)
	}
	if fellBack {
		lg.fallbacks++
	}
}

// OrigAt reads a position map such as ModeResult.OrigOf: the original rank
// behind position pos. A nil map is the identity.
func OrigAt(origOf []int, pos int) int {
	if origOf == nil {
		return pos
	}
	return origOf[pos]
}

// union returns the ascending union of two ascending lists. When a is
// empty it is b itself, not a copy.
func union(a, b []int) []int {
	if len(a) == 0 {
		return b
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || i < len(a) && a[i] < b[j]:
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default: // in both
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// removeIdx returns cur without the positions listed in failed (ascending),
// preserving order — the mapping update for a shrink: survivors keep their
// original relative order (the OMPI_Comm_shrink contract). One merge pass
// walks both lists.
func removeIdx(cur []int, failed []int) []int {
	if cur == nil {
		return nil
	}
	out := make([]int, 0, len(cur)-len(failed))
	j := 0
	for i, v := range cur {
		if j < len(failed) && failed[j] == i {
			j++
			continue
		}
		out = append(out, v)
	}
	return out
}
