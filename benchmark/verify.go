package main

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ftsg/internal/core"
	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
)

// This file holds the benchmark's correctness checks. A failed check is a
// failed operation and a non-zero exit, so a benchmark run doubles as a
// cross-path parity test at 1k and 4k ranks.

// repairCheck verifies one repair run: the repaired communicator has the
// pre-failure size and rank order, and every survivor agrees that exactly
// the two victims were replaced.
type repairCheck struct {
	n       int
	victims [2]int

	survivors atomic.Int64
	children  atomic.Int64
	childRank [2]atomic.Int64 // ranks the two children assumed, +1
	// rank0Stats is rank 0's recovery.Stats: the virtual-time breakdown the
	// transcription of the traced pass is pinned against.
	rank0Stats recovery.Stats
}

func newRepairCheck(n int, victims [2]int) *repairCheck {
	return &repairCheck{n: n, victims: victims}
}

func (c *repairCheck) isVictim(rank int) bool {
	return rank == c.victims[0] || rank == c.victims[1]
}

func (c *repairCheck) survivor(oldRank int, rec *mpi.Comm, newRank int, st *recovery.Stats, err error, sink *errSink) {
	switch {
	case err != nil:
		sink.add("rank %d reconstruct: %v", oldRank, err)
	case rec.Size() != c.n:
		sink.add("rank %d: repaired size %d, want %d", oldRank, rec.Size(), c.n)
	case newRank != oldRank || rec.Rank() != oldRank:
		sink.add("rank %d: came back as rank %d", oldRank, newRank)
	case len(st.FailedRanks) != 2 || st.FailedRanks[0] != c.victims[0] || st.FailedRanks[1] != c.victims[1]:
		sink.add("rank %d: failed list %v, want %v", oldRank, st.FailedRanks, c.victims)
	default:
		c.survivors.Add(1)
		if oldRank == 0 {
			c.rank0Stats = *st
		}
	}
}

func (c *repairCheck) child(rec *mpi.Comm, rank int, err error, sink *errSink) {
	switch {
	case err != nil:
		sink.add("child reconstruct: %v", err)
	case rec.Size() != c.n:
		sink.add("child: repaired size %d, want %d", rec.Size(), c.n)
	case !c.isVictim(rank):
		sink.add("child took rank %d, not a victim's (%v)", rank, c.victims)
	default:
		i := c.children.Add(1) - 1
		if i < 2 {
			c.childRank[i].Store(int64(rank) + 1)
		}
	}
}

// verdict is checked once the run has returned.
func (c *repairCheck) verdict(rep *mpi.Report) error {
	if got := int(c.survivors.Load()); got != c.n-2 {
		return fmt.Errorf("%d survivors passed the checks, want %d", got, c.n-2)
	}
	if got := c.children.Load(); got != 2 {
		return fmt.Errorf("%d replacements attached, want 2", got)
	}
	a, b := int(c.childRank[0].Load())-1, int(c.childRank[1].Load())-1
	if a > b {
		a, b = b, a
	}
	if a != c.victims[0] || b != c.victims[1] {
		return fmt.Errorf("replacements took ranks %d and %d, want %v", a, b, c.victims)
	}
	failed := append([]int(nil), rep.Failed...)
	sort.Ints(failed)
	if len(failed) != 2 || failed[0] != c.victims[0] || failed[1] != c.victims[1] || rep.Spawned != 2 {
		return fmt.Errorf("report: failed %v spawned %d, want %v and 2", rep.Failed, rep.Spawned, c.victims)
	}
	return nil
}

// fingerprint names everything that must be identical between passes and
// between the goroutine and event path of a repair.
func (c *repairCheck) fingerprint(rep *mpi.Report) string {
	if rep == nil {
		return ""
	}
	return fmt.Sprintf("ranks=%d victims=%v virtual=%x", c.n, c.victims, rep.MaxVirtualTime)
}

// l1Bound is the documented bound on the combined solution's l1 error
// after real failures, for every technique (internal/core/app_test.go).
const l1Bound = 0.1

func checkAppResult(res *core.Result) error {
	switch {
	case len(res.FailedRanks) != 2:
		return fmt.Errorf("failed ranks %v, want two", res.FailedRanks)
	case res.FinalProcs != res.Procs:
		return fmt.Errorf("communicator came back with %d of %d ranks", res.FinalProcs, res.Procs)
	case !(res.L1Error > 0 && res.L1Error <= l1Bound):
		return fmt.Errorf("l1 error %g outside (0, %g]", res.L1Error, l1Bound)
	}
	return nil
}

// resultFingerprint renders the full core.Result bit-exactly (%v prints
// the shortest float that round-trips). The telemetry counters are
// populated only when a registry is attached, which the traced pass does
// and the untraced passes do not, so they are left out.
func resultFingerprint(res *core.Result) string {
	r := *res
	r.MPIMessages, r.MPIBytes, r.CheckpointBytesOut, r.CheckpointBytesIn = 0, 0, 0, 0
	return fmt.Sprintf("%+v", r)
}

// twinOf names the workload that must produce bit-identical outputs on the
// other execution path ("" when there is none).
func twinOf(workload string) string {
	switch workload {
	case "app_1k":
		return "app_1k_event"
	case "repair_4k":
		return "repair_4k_event"
	case "steady_4k":
		return "steady_4k_event"
	}
	return ""
}

// checkPasses holds the passes of one workload and seed to each other:
// simulated time and outputs must not differ by a bit, traced or not.
func checkPasses(workload string, passes []passResult) []string {
	var errs []string
	for _, p := range passes[1:] {
		if p.VirtualVS != passes[0].VirtualVS {
			errs = append(errs, fmt.Sprintf("%s: virtual time differs between passes: %v vs %v", workload, p.VirtualVS, passes[0].VirtualVS))
		}
		if p.Fingerprint != passes[0].Fingerprint {
			errs = append(errs, fmt.Sprintf("%s: outputs differ between passes: %s vs %s", workload, p.Fingerprint, passes[0].Fingerprint))
		}
	}
	return errs
}

// checkTwins holds a goroutine-path workload to its event-path twin.
func checkTwins(workload string, a, b passResult) []string {
	var errs []string
	if a.VirtualVS != b.VirtualVS {
		errs = append(errs, fmt.Sprintf("%s vs %s: virtual time differs across paths: %v vs %v", workload, twinOf(workload), a.VirtualVS, b.VirtualVS))
	}
	if a.Fingerprint != b.Fingerprint {
		errs = append(errs, fmt.Sprintf("%s vs %s: outputs differ across paths", workload, twinOf(workload)))
	}
	return errs
}
