package recovery

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ftsg/internal/mpi"
	"ftsg/internal/topo"
	"ftsg/internal/vtime"
)

func TestSelectRankKey(t *testing.T) {
	// The paper's running example (Fig. 2): 7 processes, ranks 3 and 5
	// fail. Survivor i of the shrunken communicator must key back to its
	// old rank.
	failed := []int{3, 5}
	want := []int{0, 1, 2, 4, 6}
	for i, w := range want {
		if got := SelectRankKey(i, 5, failed, 7); got != w {
			t.Errorf("SelectRankKey(%d) = %d, want %d", i, got, w)
		}
	}
	if got := SelectRankKey(5, 5, failed, 7); got != -1 {
		t.Errorf("out-of-range rank gave key %d, want -1", got)
	}
	if got := SelectRankKey(-1, 5, failed, 7); got != -1 {
		t.Errorf("negative rank gave key %d, want -1", got)
	}
}

// reconstructWorld runs a world of n processes in which `kill` ranks die at
// the start, all survivors call Reconstruct, and every process (including
// replacements) records its final rank. It returns final rank by world rank
// plus rank-0's stats.
func reconstructWorld(t *testing.T, n int, kill map[int]bool) (map[int]int, map[int]int, *Stats, *mpi.Report) {
	t.Helper()
	var mu sync.Mutex
	finalRank := map[int]int{}
	finalSize := map[int]int{}
	var rootStats *Stats

	rep, err := mpi.Run(mpi.Options{NProcs: n, Machine: vtime.OPL(), Entry: func(p *mpi.Proc) {
		var st Stats
		if p.Parent() == nil {
			c := p.World()
			if kill[c.Rank()] {
				p.Kill()
			}
			rec, rank, err := Reconstruct(p, c, nil, &st)
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			mu.Lock()
			finalRank[p.WorldRank()] = rank
			finalSize[p.WorldRank()] = rec.Size()
			if rank == 0 {
				rootStats = &st
			}
			mu.Unlock()
			if err := rec.Barrier(); err != nil {
				t.Errorf("rank %d: post-reconstruct barrier: %v", rank, err)
			}
			return
		}
		rec, rank, err := Reconstruct(p, nil, p.Parent(), &st)
		if err != nil {
			t.Errorf("child %d: %v", p.WorldRank(), err)
			return
		}
		mu.Lock()
		finalRank[p.WorldRank()] = rank
		finalSize[p.WorldRank()] = rec.Size()
		mu.Unlock()
		if err := rec.Barrier(); err != nil {
			t.Errorf("child at rank %d: post-reconstruct barrier: %v", rank, err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	return finalRank, finalSize, rootStats, rep
}

func TestReconstructNoFailure(t *testing.T) {
	finalRank, finalSize, st, rep := reconstructWorld(t, 6, nil)
	if len(rep.Failed) != 0 || rep.Spawned != 0 {
		t.Fatalf("unexpected failures/spawns: %+v", rep)
	}
	for wr, r := range finalRank {
		if r != wr {
			t.Errorf("world %d got rank %d", wr, r)
		}
		if finalSize[wr] != 6 {
			t.Errorf("world %d sees size %d", wr, finalSize[wr])
		}
	}
	if st.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", st.Iterations)
	}
	if st.ReconstructTime != 0 {
		t.Errorf("reconstruct time %g without failure", st.ReconstructTime)
	}
}

// TestReconstructPaperExample is Fig. 2 end to end: 7 processes, ranks 3
// and 5 fail, and the reconstructed communicator restores both size and
// rank order with replacements on the failed ranks.
func TestReconstructPaperExample(t *testing.T) {
	finalRank, finalSize, st, rep := reconstructWorld(t, 7, map[int]bool{3: true, 5: true})
	if len(rep.Failed) != 2 || rep.Spawned != 2 {
		t.Fatalf("failed %v, spawned %d", rep.Failed, rep.Spawned)
	}
	for _, wr := range []int{0, 1, 2, 4, 6} {
		if finalRank[wr] != wr {
			t.Errorf("survivor %d got rank %d", wr, finalRank[wr])
		}
	}
	// Children are world ranks 7, 8 and must take ranks 3, 5.
	if finalRank[7] != 3 || finalRank[8] != 5 {
		t.Errorf("replacements got ranks %d, %d; want 3, 5", finalRank[7], finalRank[8])
	}
	for wr, s := range finalSize {
		if s != 7 {
			t.Errorf("world %d sees size %d, want 7 (no shrinking of global size)", wr, s)
		}
	}
	if st.FailedRanks == nil || len(st.FailedRanks) != 2 || st.FailedRanks[0] != 3 || st.FailedRanks[1] != 5 {
		t.Errorf("stats failed ranks = %v", st.FailedRanks)
	}
	if st.Iterations != 2 {
		t.Errorf("iterations = %d, want 2 (repair + verify)", st.Iterations)
	}
}

func TestReconstructSingleFailure(t *testing.T) {
	finalRank, _, st, rep := reconstructWorld(t, 5, map[int]bool{2: true})
	if rep.Spawned != 1 {
		t.Fatalf("spawned %d", rep.Spawned)
	}
	if finalRank[5] != 2 {
		t.Errorf("replacement got rank %d, want 2", finalRank[5])
	}
	if st.SpawnTime <= 0 || st.ShrinkTime <= 0 {
		t.Errorf("component times not recorded: %+v", st)
	}
}

// TestReconstructTimesFollowBetaModel: two failures on 19 ranks must charge
// the Table I costs (0.01 s spawn + 0.01 s shrink at 19 cores) rather than
// the single-failure scale.
func TestReconstructTimesFollowBetaModel(t *testing.T) {
	_, _, st, _ := reconstructWorld(t, 19, map[int]bool{3: true, 5: true})
	u := vtime.OPL().ULFM
	if st.ShrinkTime < u.ShrinkCost(19, 2) {
		t.Errorf("shrink time %g below model %g", st.ShrinkTime, u.ShrinkCost(19, 2))
	}
	if st.SpawnTime < u.SpawnCost(19, 2) {
		t.Errorf("spawn time %g below model %g", st.SpawnTime, u.SpawnCost(19, 2))
	}
	one, _, stOne, _ := reconstructWorld(t, 19, map[int]bool{3: true})
	_ = one
	if stOne.SpawnTime >= st.SpawnTime {
		t.Errorf("single-failure spawn %g not cheaper than double %g", stOne.SpawnTime, st.SpawnTime)
	}
}

// TestFailedProcsListViaWorld exercises Fig. 6 against live shrink results.
func TestFailedProcsListViaWorld(t *testing.T) {
	var mu sync.Mutex
	var lists [][]int
	_, err := mpi.Run(mpi.Options{NProcs: 6, Entry: func(p *mpi.Proc) {
		c := p.World()
		if c.Rank() == 1 || c.Rank() == 4 {
			p.Kill()
		}
		_ = c.Barrier() // let failures land
		shrunk, err := c.Shrink()
		if err != nil {
			t.Error(err)
			return
		}
		got := FailedProcsList(c, shrunk)
		mu.Lock()
		lists = append(lists, got)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(lists) != 4 {
		t.Fatalf("%d survivors reported", len(lists))
	}
	for _, l := range lists {
		if len(l) != 2 || l[0] != 1 || l[1] != 4 {
			t.Fatalf("failed list = %v, want [1 4] on every survivor", l)
		}
	}
}

// TestErrorHandlerAcks: the Fig. 4 handler acknowledges failures, and the
// communicator goes on serving receives from the survivors.
func TestErrorHandlerAcks(t *testing.T) {
	_, err := mpi.Run(mpi.Options{NProcs: 3, Entry: func(p *mpi.Proc) {
		c := p.World()
		c.SetErrhandler(ErrorHandler(p))
		switch c.Rank() {
		case 0:
			// Named receive triggers the handler, which acks; afterwards
			// the acked group must contain the dead process.
			_, _, _ = mpi.Recv[int](c, 2, 0)
			acked := c.FailureGetAcked()
			if acked.Size() != 1 {
				t.Errorf("acked group %v after handler", acked)
			}
			if err := mpi.SendOne(c, 1, 2, 0); err != nil { // release sender
				t.Error(err)
			}
			// A receive from a survivor completes with rank 1's message.
			v, _, err := mpi.RecvOne[int](c, 1, 1)
			if err != nil || v != 5 {
				t.Errorf("receive after ack: %v %v", v, err)
			}
			if err := mpi.SendOne(c, 1, 3, 0); err != nil { // let it exit
				t.Error(err)
			}
		case 1:
			// Hold until rank 0 has acked (an exited process counts as
			// departed and would change the acked set).
			if _, _, err := mpi.RecvOne[int](c, 0, 2); err != nil {
				t.Error(err)
			}
			if err := mpi.SendOne(c, 0, 1, 5); err != nil {
				t.Error(err)
			}
			if _, _, err := mpi.RecvOne[int](c, 0, 3); err != nil {
				t.Error(err)
			}
		case 2:
			p.Kill()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplacementsLandOnFailedHosts checks the same-host placement that
// preserves load balance (Fig. 5 lines 5-12).
func TestReplacementsLandOnFailedHosts(t *testing.T) {
	var mu sync.Mutex
	hostOfRank := map[int]int{}
	_, err := mpi.Run(mpi.Options{NProcs: 26, Machine: vtime.OPL(), Entry: func(p *mpi.Proc) {
		var st Stats
		if p.Parent() == nil {
			c := p.World()
			if c.Rank() == 13 || c.Rank() == 20 {
				p.Kill()
			}
			rec, rank, err := Reconstruct(p, c, nil, &st)
			if err != nil {
				t.Error(err)
				return
			}
			_ = rec
			mu.Lock()
			hostOfRank[rank] = p.Host()
			mu.Unlock()
			return
		}
		_, rank, err := Reconstruct(p, nil, p.Parent(), &st)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		hostOfRank[rank] = p.Host()
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	// OPL: 12 slots per host; ranks 13 and 20 lived on host 1; their
	// replacements must be there too.
	if hostOfRank[13] != 1 || hostOfRank[20] != 1 {
		t.Fatalf("replacements on hosts %d, %d; want 1, 1", hostOfRank[13], hostOfRank[20])
	}
}

// TestSpareNodePlacement: a whole-node failure recovered onto a spare host
// (the paper's future-work scenario at the protocol level).
func TestSpareNodePlacement(t *testing.T) {
	var mu sync.Mutex
	hostOfRank := map[int]int{}
	cluster := topo.New(3, 4) // hosts 0,1 used by 8 ranks; host 2 spare
	place := SpareNodePlacement("node02")
	_, err := mpi.Run(mpi.Options{NProcs: 8, Machine: vtime.OPL(), Cluster: cluster, Entry: func(p *mpi.Proc) {
		var st Stats
		if p.Parent() != nil {
			res, err := ReconstructMode(p, nil, p.Parent(), &st, place, ModeSpawn, nil)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			hostOfRank[res.Rank] = p.Host()
			mu.Unlock()
			return
		}
		c := p.World()
		// Host 1 = ranks 4..7 all die (node failure).
		if c.Rank() >= 4 {
			p.Kill()
		}
		res, err := ReconstructMode(p, c, nil, &st, place, ModeSpawn, nil)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		hostOfRank[res.Rank] = p.Host()
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if hostOfRank[r] != 0 {
			t.Errorf("survivor rank %d on host %d, want 0", r, hostOfRank[r])
		}
	}
	for r := 4; r < 8; r++ {
		if hostOfRank[r] != 2 {
			t.Errorf("replacement rank %d on host %d, want spare host 2", r, hostOfRank[r])
		}
	}
}

func TestSpareNodePlacementUnknownHost(t *testing.T) {
	_, err := mpi.Run(mpi.Options{NProcs: 2, Entry: func(p *mpi.Proc) {
		if p.World().Rank() == 0 {
			place := SpareNodePlacement("no-such-host")
			if _, err := place(p, []int{1}); err == nil {
				t.Error("unknown spare host accepted")
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFailureDuringRecovery: a survivor dies AFTER the first repair
// completes but before verification — the Fig. 3 loop must detect it on the
// verify round and repair again, converging in three iterations.
func TestFailureDuringRecovery(t *testing.T) {
	var mu sync.Mutex
	finalRank := map[int]int{}
	var iterations int

	rep, err := mpi.Run(mpi.Options{NProcs: 7, Machine: vtime.OPL(), Entry: func(p *mpi.Proc) {
		var st Stats
		record := func(c *mpi.Comm, rank int) {
			mu.Lock()
			finalRank[p.WorldRank()] = rank
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				t.Errorf("world %d: post-recovery barrier: %v", p.WorldRank(), err)
			}
		}
		if p.Parent() != nil {
			rec, rank, err := Reconstruct(p, nil, p.Parent(), &st)
			if err != nil {
				t.Errorf("child %d: %v", p.WorldRank(), err)
				return
			}
			record(rec, rank)
			return
		}
		c := p.World()
		switch c.Rank() {
		case 2:
			p.Kill()
		case 4:
			// Follow the protocol by hand up to the end of the first
			// repair, then die before verification. The detection order
			// must match reconstruct (barrier, then uniform agree).
			c.SetErrhandler(ErrorHandler(p))
			_ = c.Barrier()
			_, _ = c.Agree(1)
			if _, _, _, err := repair(p, c, &st, SameHostPlacement, ModeSpawn); err != nil {
				t.Errorf("rank 4 repair: %v", err)
			}
			p.Kill()
		default:
			rec, rank, err := Reconstruct(p, c, nil, &st)
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			if rank == 0 {
				mu.Lock()
				iterations = st.Iterations
				mu.Unlock()
			}
			record(rec, rank)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spawned != 2 {
		t.Fatalf("spawned %d replacements, want 2 (rank 2's replacement survives into the second repair)", rep.Spawned)
	}
	if iterations != 3 {
		t.Errorf("iterations = %d, want 3 (detect, repair rank 2, repair rank 4)", iterations)
	}
	// Every original rank position must be filled in the final communicator.
	filled := map[int]bool{}
	for _, r := range finalRank {
		filled[r] = true
	}
	for r := 0; r < 7; r++ {
		if !filled[r] {
			t.Errorf("rank %d unfilled after double recovery (map %v)", r, finalRank)
		}
	}
}

// TestSelectRankKeyProperty: for random failure sets, the survivor keys and
// the failed (= replacement) keys must together form exactly {0..n-1}, with
// survivor keys strictly increasing — splitting on those keys therefore
// restores a communicator of the original size in the original rank order.
func TestSelectRankKeyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		failed := rng.Perm(n)[:1+rng.Intn(n-1)]
		sort.Ints(failed)
		shrunk := n - len(failed)

		seen := make([]bool, n)
		prev := -1
		for i := 0; i < shrunk; i++ {
			key := SelectRankKey(i, shrunk, failed, n)
			if key < 0 || key >= n || seen[key] {
				t.Fatalf("trial %d (n=%d failed=%v): survivor %d got key %d", trial, n, failed, i, key)
			}
			if key <= prev {
				t.Fatalf("trial %d (n=%d failed=%v): survivor keys not increasing at %d (%d after %d)",
					trial, n, failed, i, key, prev)
			}
			prev = key
			seen[key] = true
		}
		// Replacements key on the old rank they take over.
		for _, f := range failed {
			if seen[f] {
				t.Fatalf("trial %d (n=%d failed=%v): failed rank %d also keyed by a survivor", trial, n, failed, f)
			}
			seen[f] = true
		}
		for r, ok := range seen {
			if !ok {
				t.Fatalf("trial %d (n=%d failed=%v): rank %d keyed by nobody", trial, n, failed, r)
			}
		}
	}
}

// refSelectRankKey is Fig. 7 as the paper writes it — build the list of
// surviving old ranks, index it — which SelectRankKey computes without the
// list.
func refSelectRankKey(mpiRank, shrinkedGroupSize int, failedRanks []int, totalProcs int) int {
	failed := make(map[int]bool, len(failedRanks))
	for _, r := range failedRanks {
		failed[r] = true
	}
	var shrinkMergeList []int
	for i := 0; i < totalProcs; i++ {
		if !failed[i] {
			shrinkMergeList = append(shrinkMergeList, i)
		}
	}
	if mpiRank < 0 || mpiRank >= shrinkedGroupSize || mpiRank >= len(shrinkMergeList) {
		return -1
	}
	return shrinkMergeList[mpiRank]
}

// TestSelectRankKeyExhaustive compares SelectRankKey with the list
// construction for every world of up to 10 processes, every subset of failed
// ranks (ascending, as FailedProcsList reports them, and descending), every
// caller rank from -1 to one past the end, and shrunken-group sizes on both
// sides of the true one.
func TestSelectRankKeyExhaustive(t *testing.T) {
	for n := 0; n <= 10; n++ {
		for set := 0; set < 1<<n; set++ {
			var failed []int
			for r := 0; r < n; r++ {
				if set>>r&1 == 1 {
					failed = append(failed, r)
				}
			}
			reversed := append([]int(nil), failed...)
			sort.Sort(sort.Reverse(sort.IntSlice(reversed)))
			survivors := n - len(failed)
			for _, list := range [][]int{failed, reversed} {
				for _, size := range []int{survivors - 1, survivors, survivors + 1} {
					for rank := -1; rank <= n; rank++ {
						got := SelectRankKey(rank, size, list, n)
						if want := refSelectRankKey(rank, size, list, n); got != want {
							t.Fatalf("SelectRankKey(%d, %d, %v, %d) = %d, want %d", rank, size, list, n, got, want)
						}
					}
				}
			}
		}
	}
}

// TestFailedListAllocatesPerFailure pins that what every rank runs between
// shrink and spawn — FailedProcsList and SelectRankKey — costs memory in
// proportion to the failures, not to the communicator: under 1 KiB for two
// failures among 4096 members, where copying the groups alone was 64 KiB.
// The other ranks wait on a channel while rank 0 measures, so the process-wide
// allocation counters see only its calls.
func TestFailedListAllocatesPerFailure(t *testing.T) {
	const n = 4096
	victims := map[int]bool{1234: true, 3001: true}
	var waiting atomic.Int64
	release := make(chan struct{})
	_, err := mpi.Run(mpi.Options{NProcs: n, Machine: vtime.OPL(), Entry: func(p *mpi.Proc) {
		broken := p.World()
		if victims[broken.Rank()] {
			p.Kill()
		}
		_, _ = broken.Agree(1) // every survivor learns of both deaths
		shrunk, err := broken.Shrink()
		if err != nil {
			t.Errorf("rank %d: shrink: %v", broken.Rank(), err)
			return
		}
		if broken.Rank() != 0 {
			waiting.Add(1)
			<-release
			return
		}
		defer close(release)
		for waiting.Load() < n-int64(len(victims))-1 {
			runtime.Gosched()
		}
		var failed []int
		var key int
		work := func() {
			failed = FailedProcsList(broken, shrunk)
			key = SelectRankKey(shrunk.Rank(), shrunk.Size(), failed, n)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			work()
		}
		runtime.ReadMemStats(&after)
		if len(failed) != 2 || failed[0] != 1234 || failed[1] != 3001 || key != 0 {
			t.Errorf("failed = %v, key = %d; want [1234 3001], 0", failed, key)
		}
		if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 1024 {
			t.Errorf("FailedProcsList + SelectRankKey allocate %d B per call at %d members, want < 1 KiB", perRun, n)
		}
		if allocs := testing.AllocsPerRun(runs, work); allocs > 6 {
			t.Errorf("FailedProcsList + SelectRankKey make %v allocations per call, want <= 6", allocs)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReconstructRandomFailures drives the full repair through Comm_split
// for randomized world sizes and failure sets and checks the same-size /
// same-order property end to end: every survivor keeps its rank, every
// replacement takes exactly one failed rank, and no process observes a
// different communicator size.
func TestReconstructRandomFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 5 + rng.Intn(6)
		kill := map[int]bool{}
		for _, r := range rng.Perm(n)[:1+rng.Intn(3)] {
			kill[r] = true
		}
		finalRank, finalSize, _, rep := reconstructWorld(t, n, kill)
		if rep.Spawned != len(kill) {
			t.Errorf("trial %d (n=%d kill=%v): spawned %d", trial, n, kill, rep.Spawned)
		}
		taken := map[int]int{}
		for wr, r := range finalRank {
			if wr < n && !kill[wr] && r != wr {
				t.Errorf("trial %d (n=%d kill=%v): survivor %d moved to rank %d", trial, n, kill, wr, r)
			}
			if wr >= n && !kill[r] {
				t.Errorf("trial %d (n=%d kill=%v): replacement %d took non-failed rank %d", trial, n, kill, wr, r)
			}
			taken[r]++
			if finalSize[wr] != n {
				t.Errorf("trial %d (n=%d kill=%v): world %d sees size %d", trial, n, kill, wr, finalSize[wr])
			}
		}
		for r := 0; r < n; r++ {
			if taken[r] != 1 {
				t.Errorf("trial %d (n=%d kill=%v): rank %d held by %d processes", trial, n, kill, r, taken[r])
			}
		}
	}
}

// TestFailureDuringSpawn: a second survivor dies at the entry of
// SpawnMultiple, mid-repair, before any replacement exists. The spawn
// collective must abort uniformly across the remaining survivors (no child
// is created for the abandoned round) and the retry from the original
// broken communicator must repair both failures in one further round.
func TestFailureDuringSpawn(t *testing.T) {
	var mu sync.Mutex
	finalRank := map[int]int{}
	var rootStats *Stats

	rep, err := mpi.Run(mpi.Options{NProcs: 7, Machine: vtime.OPL(), Entry: func(p *mpi.Proc) {
		var st Stats
		record := func(c *mpi.Comm, rank int) {
			mu.Lock()
			finalRank[p.WorldRank()] = rank
			if rank == 0 {
				rootStats = &st
			}
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				t.Errorf("world %d: post-recovery barrier: %v", p.WorldRank(), err)
			}
		}
		if p.Parent() != nil {
			rec, rank, err := Reconstruct(p, nil, p.Parent(), &st)
			if err != nil {
				t.Errorf("child %d: %v", p.WorldRank(), err)
				return
			}
			record(rec, rank)
			return
		}
		c := p.World()
		switch c.Rank() {
		case 2:
			p.Kill()
		case 4:
			// Die at the first spawn this process reaches: inside the
			// repair, after the shrink, before any child exists.
			p.SetOpHook(func(op string) {
				if op == mpi.OpSpawn {
					p.Kill()
				}
			})
		}
		rec, rank, err := Reconstruct(p, c, nil, &st)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		record(rec, rank)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spawned != 2 {
		t.Fatalf("spawned %d replacements, want 2 (the aborted round must not spawn)", rep.Spawned)
	}
	if rootStats == nil {
		t.Fatal("rank 0 recorded no stats")
	}
	if len(rootStats.FailedRanks) != 2 || rootStats.FailedRanks[0] != 2 || rootStats.FailedRanks[1] != 4 {
		t.Errorf("failed ranks = %v, want [2 4]", rootStats.FailedRanks)
	}
	filled := map[int]bool{}
	for _, r := range finalRank {
		filled[r] = true
	}
	for r := 0; r < 7; r++ {
		if !filled[r] {
			t.Errorf("rank %d unfilled after failure during spawn (map %v)", r, finalRank)
		}
	}
}

// TestUntracedPhaseBookkeepingAllocatesNothing pins the per-phase cost of
// a repair that no recorder and no registry watch: opening and closing a
// phase span with int args, building the spawn detail, charging the
// phase and taking the Fig. 4 handler that every detection point installs
// allocate nothing.
func TestUntracedPhaseBookkeepingAllocatesNothing(t *testing.T) {
	st := &Stats{ModeLabel: "substitute"}
	hosts := []string{"n007", "n012"}
	var handler mpi.Errhandler
	phase := func() {
		handler = ErrorHandler(nil)
		st.span(1, 3, "split", "restore rank order, key %d", 3).End(2)
		st.span(2, 3, "spawn", st.spawnDetail(len(hosts), hosts)).End(3)
		st.charge("split", 1)
	}
	if n := testing.AllocsPerRun(100, phase); n != 0 {
		t.Errorf("untraced phase: %v allocations, want 0", n)
	}
	if handler == nil {
		t.Error("ErrorHandler returned nil")
	}
}
