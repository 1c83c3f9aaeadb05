package recovery

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ftsg/internal/mpi"
	"ftsg/internal/topo"
	"ftsg/internal/vtime"
)

// The matrix world: 8 ranks on two 4-slot hosts (so the verification barrier
// is the two-level one), a third host for spares, ranks 2 and 5 dead before
// anyone reaches the first detection round.
const matrixProcs = 8

var matrixVictims = []int{2, 5}

// promise is what a row guarantees about the reconstructed communicator.
type promise int

const (
	restores promise = iota // full size, every rank where it was
	shrinks                 // the survivors only, in their original order
	degrades                // a spare pool that empties part-way: agreement only
)

// matrixRow is one row of the mode matrix.
type matrixRow struct {
	name    string
	mode    Mode
	spares  int
	promise promise
}

var matrixRows = []matrixRow{
	{"spawn", ModeSpawn, 0, restores},
	{"shrink", ModeShrink, 0, shrinks},
	{"substitute", ModeSubstitute, 2, restores},
	{"substitute-no-spares", ModeSubstitute, 0, shrinks},
	{"norepair", ModeNoRepair, 0, shrinks},
}

// procOut is what one process of a matrix run reports, keyed by its
// world-unique id.
type procOut struct {
	orig      int // original rank; -1 for a replacement
	done      bool
	err       error
	rank      int
	size      int
	origOf    []int
	fallbacks int
	stats     Stats
	ops       []string
}

// nestedKill is a failure during the repair: the process with world id id
// dies at its k-th operation, counted from its shrink call for an original
// rank and from its first operation for a replacement.
type nestedKill struct{ id, k int }

// runMatrix runs one row on one execution path, with an optional nested
// failure, and returns every process's report by world id.
func runMatrix(t *testing.T, row matrixRow, event bool, kill *nestedKill) (map[int]*procOut, *mpi.Report) {
	t.Helper()
	var mu sync.Mutex
	outs := map[int]*procOut{}

	// begin registers the process and arms its hook: record every operation,
	// and for the nested victim count and die at the k-th.
	begin := func(p *mpi.Proc, orig int) *procOut {
		out := &procOut{orig: orig}
		mu.Lock()
		outs[p.WorldRank()] = out
		mu.Unlock()
		counting, n := orig < 0, 0
		p.SetOpHook(func(op string) {
			out.ops = append(out.ops, op)
			if kill == nil || kill.id != p.WorldRank() {
				return
			}
			if op == mpi.OpShrink {
				counting = true
			}
			if counting {
				if n++; n == kill.k {
					p.Kill()
				}
			}
		})
		return out
	}
	end := func(p *mpi.Proc, out *procOut, st *Stats, res *ModeResult, err error) {
		p.SetOpHook(nil)
		out.done, out.err, out.stats = true, err, *st
		if err == nil {
			out.rank, out.size = res.Rank, res.Comm.Size()
			out.origOf, out.fallbacks = res.OrigOf, res.Fallbacks
		}
	}
	// Every kill lands inside the reconstruct call, so the communicator it
	// returns must be usable by all of its members.
	checkBarrier := func(p *mpi.Proc, err error) {
		if err != nil {
			t.Errorf("world id %d: barrier on the reconstructed communicator: %v", p.WorldRank(), err)
		}
	}

	cluster := topo.New(3, 4)
	o := mpi.Options{
		NProcs:     matrixProcs,
		Machine:    vtime.OPL(),
		Cluster:    cluster,
		SpareRanks: row.spares,
		SpareHosts: []string{cluster.Host(2).Name},
		// A deadlock aborts the run: mpi.Run returns the stall dump.
		Watchdog: mpi.Watchdog{Timeout: 20 * time.Second},
	}
	dead := map[int]bool{}
	for _, v := range matrixVictims {
		dead[v] = true
	}
	if event {
		o.EventEntry = func(p *mpi.Proc, f *mpi.Fiber) {
			st := new(Stats)
			if parent := p.Parent(); parent != nil {
				out := begin(p, -1)
				FiberReconstructMode(p, f, nil, parent, st, SameHostPlacement, row.mode, nil, func(res *ModeResult, err error) {
					end(p, out, st, res, err)
					if err == nil {
						mpi.FiberBarrier(f, res.Comm, func(err error) { checkBarrier(p, err) })
					}
				})
				return
			}
			c := p.World()
			out := begin(p, c.Rank())
			if dead[c.Rank()] {
				p.Kill()
			}
			FiberReconstructMode(p, f, c, nil, st, SameHostPlacement, row.mode, identityMap(matrixProcs), func(res *ModeResult, err error) {
				end(p, out, st, res, err)
				if err == nil {
					mpi.FiberBarrier(f, res.Comm, func(err error) { checkBarrier(p, err) })
				}
			})
		}
	} else {
		o.Entry = func(p *mpi.Proc) {
			var st Stats
			var out *procOut
			var res *ModeResult
			var err error
			if parent := p.Parent(); parent != nil {
				out = begin(p, -1)
				res, err = ReconstructMode(p, nil, parent, &st, SameHostPlacement, row.mode, nil)
			} else {
				c := p.World()
				out = begin(p, c.Rank())
				if dead[c.Rank()] {
					p.Kill()
				}
				res, err = ReconstructMode(p, c, nil, &st, SameHostPlacement, row.mode, identityMap(matrixProcs))
			}
			end(p, out, &st, res, err)
			if err == nil {
				checkBarrier(p, res.Comm.Barrier())
			}
		}
	}
	rep, err := mpi.Run(o)
	if err != nil {
		t.Fatalf("%s event=%v kill=%v: %v", row.name, event, kill, err)
	}
	return outs, rep
}

func identityMap(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// survivorsWithout returns 0..matrixProcs-1 minus failed, ascending.
func survivorsWithout(failed []int) []int {
	var out []int
	for r := 0; r < matrixProcs; r++ {
		if i := sort.SearchInts(failed, r); i == len(failed) || failed[i] != r {
			out = append(out, r)
		}
	}
	return out
}

// checkPromise asserts what a row promises once failed (original ranks,
// ascending) are gone: nobody but an orphaned replacement returns an error,
// every member sees rank 0's size, the ranks 0..size-1 are each held once,
// the original survivors agree on the failed list, the position map and the
// fallback count, each sits where the map says, and the row's size and order
// hold.
func checkPromise(t *testing.T, row matrixRow, outs map[int]*procOut, failed []int) {
	t.Helper()
	r0 := outs[0] // rank 0 is never a victim
	if !r0.done || r0.err != nil {
		t.Fatalf("rank 0: done %v, err %v", r0.done, r0.err)
	}
	held := map[int]int{}
	for id, out := range outs {
		if !out.done {
			continue // killed
		}
		if out.err != nil {
			if out.orig >= 0 || !errors.Is(out.err, ErrOrphaned) {
				t.Errorf("world id %d (orig %d): %v", id, out.orig, out.err)
			}
			continue
		}
		held[out.rank]++
		if out.size != r0.size || out.stats.Iterations > maxRepairRounds {
			t.Errorf("world id %d: size %d (rank 0 sees %d) after %d iterations", id, out.size, r0.size, out.stats.Iterations)
		}
		if out.orig < 0 {
			continue // replacements learn the rest from the application
		}
		if !reflect.DeepEqual(out.stats.FailedRanks, failed) {
			t.Errorf("orig %d reports failed ranks %v, want %v", out.orig, out.stats.FailedRanks, failed)
		}
		if !reflect.DeepEqual(out.origOf, r0.origOf) || out.fallbacks != r0.fallbacks {
			t.Errorf("orig %d: map %v and %d fallbacks, rank 0 has %v and %d", out.orig, out.origOf, out.fallbacks, r0.origOf, r0.fallbacks)
		}
		if out.rank >= len(out.origOf) || out.origOf[out.rank] != out.orig {
			t.Errorf("orig %d sits at rank %d of map %v", out.orig, out.rank, out.origOf)
		}
	}
	for r := 0; r < r0.size; r++ {
		if held[r] != 1 {
			t.Errorf("rank %d of the reconstructed communicator held %d times", r, held[r])
		}
	}
	wantMap := identityMap(matrixProcs)
	switch row.promise {
	case shrinks:
		wantMap = survivorsWithout(failed)
	case degrades:
		wantMap = r0.origOf
	}
	if r0.size != len(wantMap) || !reflect.DeepEqual(r0.origOf, wantMap) {
		t.Errorf("size %d map %v, want %d %v", r0.size, r0.origOf, len(wantMap), wantMap)
	}
	if fellBack := row.mode == ModeSubstitute && row.promise != restores; (r0.fallbacks > 0) != fellBack {
		t.Errorf("%d fallbacks", r0.fallbacks)
	}
}

// spawnOps is the spawn row's operation sequence per world id, recorded at
// the commit before the four modes were folded into one repair and one loop
// (ids 0..7 are the original ranks, 8 and 9 the replacements of 2 and 5).
var spawnOps = map[int]string{
	0: "recv recv agree shrink spawn merge agree send send split recv recv send recv send send agree",
	1: "send recv agree shrink spawn merge agree split send recv agree",
	3: "send recv agree shrink spawn merge agree split send recv agree",
	4: "recv agree shrink spawn merge agree split recv recv send recv send send agree",
	6: "recv send recv agree shrink spawn merge agree split recv send recv send agree",
	7: "send recv agree shrink spawn merge agree split send recv agree",
	8: "agree merge recv split recv send recv send agree",
	9: "agree merge recv split send recv agree",
}

// TestModeMatrix runs every mode on both execution paths and checks the
// mode's promise, that the two paths agree on every rank's Stats and
// operation sequence, and that spawn still issues exactly the operations it
// did when it had a repair of its own.
func TestModeMatrix(t *testing.T) {
	for _, row := range matrixRows {
		t.Run(row.name, func(t *testing.T) {
			blocking, rep := runMatrix(t, row, false, nil)
			fiber, frep := runMatrix(t, row, true, nil)
			for name, outs := range map[string]map[int]*procOut{"goroutine": blocking, "fiber": fiber} {
				t.Run(name, func(t *testing.T) { checkPromise(t, row, outs, matrixVictims) })
			}
			// Report.Failed is in real-time death order, which the two initial
			// victims race for; compare it as a set.
			sort.Ints(rep.Failed)
			sort.Ints(frep.Failed)
			if !reflect.DeepEqual(rep.Failed, frep.Failed) || rep.Spawned != frep.Spawned || rep.SparesUsed != frep.SparesUsed ||
				math.Float64bits(rep.MaxVirtualTime) != math.Float64bits(frep.MaxVirtualTime) {
				t.Errorf("reports differ across paths: %+v vs %+v", rep, frep)
			}
			if len(blocking) != len(fiber) {
				t.Fatalf("%d processes on the goroutine path, %d on the fiber path", len(blocking), len(fiber))
			}
			for id, b := range blocking {
				f := fiber[id]
				if f == nil {
					t.Fatalf("world id %d missing on the fiber path", id)
				}
				if !reflect.DeepEqual(b.stats, f.stats) {
					t.Errorf("world id %d: Stats differ across paths:\n%+v\n%+v", id, b.stats, f.stats)
				}
				if !reflect.DeepEqual(b.ops, f.ops) {
					t.Errorf("world id %d: operations differ across paths:\n%v\n%v", id, b.ops, f.ops)
				}
				if row.mode == ModeSpawn && b.done {
					if got := strings.Join(b.ops, " "); got != spawnOps[id] {
						t.Errorf("world id %d: spawn operations\n got %s\nwant %s", id, got, spawnOps[id])
					}
				}
			}
		})
	}
}

// TestKillPoints exhausts the nested-failure points of the small world: for
// every mode, every non-zero survivor and every replacement, and every k up
// to the number of operations that process performs from its shrink call (a
// replacement: from its first operation) to the end of an undisturbed
// reconstruct, it kills the process at its k-th operation and requires that
// the run terminates, that the survivors agree on the failed list, and that
// the mode keeps its size and order promise — on both execution paths, with
// one executor thread and with all of them.
func TestKillPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-point enumeration skipped in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rows := append([]matrixRow(nil), matrixRows...)
	rows[2].promise = degrades // a third failure empties the two-spare pool
	rows = append(rows, matrixRow{"substitute-ample", ModeSubstitute, 8, restores})
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			clean, _ := runMatrix(t, row, false, nil)
			points := 0
			defer func() { t.Logf("%d kill points x 2 paths x 2 GOMAXPROCS settings", points/4) }()
			for _, procs := range []int{1, runtime.NumCPU()} {
				runtime.GOMAXPROCS(procs)
				for id, c := range clean {
					if c.orig == 0 || !c.done {
						continue
					}
					failed := matrixVictims // a replacement dies on an already failed rank
					first := 0
					if c.orig > 0 {
						failed = append([]int{c.orig}, matrixVictims...)
						sort.Ints(failed)
						first = indexOf(c.ops, mpi.OpShrink)
					}
					for k := 1; first+k <= len(c.ops); k++ {
						for _, event := range []bool{false, true} {
							points++
							outs, rep := runMatrix(t, row, event, &nestedKill{id, k})
							if outs[id].done || indexOf(rep.Failed, id) < 0 {
								t.Errorf("the victim survived")
							}
							checkPromise(t, row, outs, failed)
							if t.Failed() {
								t.Fatalf("first failure: GOMAXPROCS %d, event %v, world id %d (orig %d) killed at its operation %d (%s)",
									procs, event, id, c.orig, first+k, c.ops[first+k-1])
							}
						}
					}
				}
			}
		})
	}
}

func indexOf[T comparable](list []T, x T) int {
	for i, v := range list {
		if v == x {
			return i
		}
	}
	return -1
}
