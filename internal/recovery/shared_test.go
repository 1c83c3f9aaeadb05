package recovery

import (
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ftsg/internal/mpi"
	"ftsg/internal/vtime"
)

// survivorRun runs an n-rank world in which the ranks in victims die at the
// start and every survivor and replacement calls Reconstruct. Each
// survivor hands its world handle and Stats to record, under a lock; a
// survivor whose Reconstruct fails is reported through t.
func survivorRun(t *testing.T, n int, victims [2]int, record func(world *mpi.Comm, st *Stats)) {
	t.Helper()
	var mu sync.Mutex
	var failures atomic.Int64
	_, err := mpi.Run(mpi.Options{NProcs: n, Machine: vtime.OPL(), Entry: func(p *mpi.Proc) {
		var st Stats
		if parent := p.Parent(); parent != nil {
			if _, _, err := Reconstruct(p, nil, parent, &st); err != nil {
				failures.Add(1)
			}
			return
		}
		c := p.World()
		if r := c.Rank(); r == victims[0] || r == victims[1] {
			p.Kill()
		}
		if _, _, err := Reconstruct(p, c, nil, &st); err != nil {
			failures.Add(1)
			return
		}
		if record != nil {
			mu.Lock()
			record(c, &st)
			mu.Unlock()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d processes failed to reconstruct", f)
	}
}

// TestRepairAllocsPerSurvivor bounds what one survivor of a 1024-rank
// repair allocates, world construction and the replacements included. The
// values every survivor derives identically — Fig. 6's failed list, the
// placement, the acknowledged failures, the reported union — are built
// once per world, and so are the handles on each communicator the repair
// creates, so what is left per survivor is its goroutine and what the Go
// runtime allocates when it parks. The collector is off from the warm-up
// on: a collection inside the run empties the runtime's sudog cache and
// the pools, which costs about one object per survivor whenever it falls
// there. 2.38 objects in the median of 20 runs, 3.36 under -race, whose
// pools drop a quarter of what they are given; the bounds are each
// median + 35 %. It was 10.4 when each survivor allocated its own handles
// and errors, and 22.3–23.7 when each also built its own copy of each
// agreed value.
func TestRepairAllocsPerSurvivor(t *testing.T) {
	const n = 1024
	bound := 3.2
	if raceEnabled {
		bound = 4.5
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	survivorRun(t, n, [2]int{300, 701}, nil) // warm the runtime's pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	survivorRun(t, n, [2]int{300, 701}, nil)
	runtime.ReadMemStats(&after)
	perSurvivor := float64(after.Mallocs-before.Mallocs) / (n - 2)
	t.Logf("%.2f objects per survivor", perSurvivor)
	if perSurvivor > bound {
		t.Errorf("%.2f objects allocated per survivor, want <= %v", perSurvivor, bound)
	}
}

// TestRepairSharesAgreedValues pins the read-only contract of a 256-rank
// repair: every survivor reports the same failed list — one backing array,
// equal to Fig. 6's group algebra done here independently — every world
// handle returns the same acknowledged snapshot, and sharing them moved no
// survivor's virtual times (pinned bit for bit from the per-survivor
// copies these values replaced).
func TestRepairSharesAgreedValues(t *testing.T) {
	const n = 256
	victims := [2]int{37, 200}
	const wantList, wantReconstruct = 0x1.3c4ab66e573e2p+03, 0x1.4ffbff29406b3p+07

	var failed, acked [][]int
	var survivors int
	var oldGroup mpi.Group
	survivorRun(t, n, victims, func(world *mpi.Comm, st *Stats) {
		survivors++
		oldGroup = world.Group()
		failed = append(failed, st.FailedRanks)
		acked = append(acked, world.FailureGetAcked())
		if st.ListTime != wantList || st.ReconstructTime != wantReconstruct {
			t.Errorf("rank %d: list %x reconstruct %x, want %x and %x",
				world.Rank(), st.ListTime, st.ReconstructTime, wantList, wantReconstruct)
		}
	})
	if survivors != n-2 {
		t.Fatalf("%d survivors reported, want %d", survivors, n-2)
	}

	var shrunk mpi.Group
	for _, r := range oldGroup {
		if r != victims[0] && r != victims[1] {
			shrunk = append(shrunk, r)
		}
	}
	diff := oldGroup.Difference(shrunk)
	idx := make([]int, diff.Size())
	for i := range idx {
		idx[i] = i
	}
	want := diff.TranslateRanks(idx, oldGroup)
	if len(want) != 2 || want[0] != victims[0] || want[1] != victims[1] {
		t.Fatalf("independent Fig. 6 list %v, want %v", want, victims)
	}
	for i := range failed {
		if !slices.Equal(failed[i], want) {
			t.Fatalf("survivor %d: failed ranks %v, want %v", i, failed[i], want)
		}
		if &failed[i][0] != &failed[0][0] {
			t.Fatalf("survivor %d's failed list is a copy, not the shared one", i)
		}
		if len(acked[i]) != 2 || &acked[i][0] != &acked[0][0] {
			t.Fatalf("survivor %d: acknowledged %v, not the shared snapshot", i, acked[i])
		}
	}
}
