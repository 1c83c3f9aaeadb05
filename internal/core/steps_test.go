package core

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
	"ftsg/internal/topo"
	"ftsg/internal/vtime"
)

// The steps below are the decisions of the rank program that need no world:
// what a repaired communicator must look like, which state survives a
// repair, and what rank 0 announces. Everything else in steps.go is reached
// through core.Run on both execution paths (TestEventResultParity).

func TestCheckPromise(t *testing.T) {
	// An 8-rank world in which original rank 2 failed. The caller is original
	// rank 5: position 5 where the size is restored, position 4 after a shrink.
	ident := []int{0, 1, 2, 3, 4, 5, 6, 7}
	shrunk := []int{0, 1, 3, 4, 5, 6, 7}
	type row struct {
		name      string
		pos, size int
		origOf    []int
		fallbacks int
		want      string // substring of the error; "" = promise kept
	}
	shrinking := []row{
		{"kept", 4, 7, shrunk, 0, ""},
		{"rank moved", 3, 7, shrunk, 0, "holds original rank 4, want 5"},
		{"size wrong", 5, 8, ident, 0, "did not shrink"},
		{"position map too short", 4, 7, shrunk[:4], 0, "position map covers 4"},
		{"shrunk, identity map", 5, 7, nil, 0, "kept the identity position map"},
	}
	for mode, rows := range map[recovery.Mode][]row{
		recovery.ModeSpawn: { // the nil map is the identity and has nothing to cover
			{"kept", 5, 8, nil, 0, ""},
			{"rank moved", 4, 8, nil, 0, "holds original rank 4, want 5"},
			{"size wrong", 5, 7, nil, 0, "changed communicator size 8 -> 7"},
		},
		recovery.ModeShrink:   shrinking,
		recovery.ModeNoRepair: shrinking,
		recovery.ModeSubstitute: {
			{"kept", 5, 8, ident, 0, ""},
			{"kept, identity map", 5, 8, nil, 0, ""},
			{"rank moved", 4, 8, ident, 0, "holds original rank 4, want 5"},
			{"size wrong", 4, 7, shrunk, 0, "changed communicator size 8 -> 7"},
			{"position map too short", 5, 8, ident[:5], 0, "position map covers 5"},
			{"fell back", 4, 7, shrunk, 1, ""},
			{"fell back, size wrong", 5, 8, ident, 1, "did not shrink"},
		},
	} {
		for _, tc := range rows {
			mr := &recovery.ModeResult{Rank: tc.pos, OrigOf: tc.origOf, Fallbacks: tc.fallbacks}
			err := checkPromise(mode, 5, 8, tc.size, mr)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%v/%s: %v", mode, tc.name, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%v/%s: error %v, want one containing %q", mode, tc.name, err, tc.want)
			}
		}
	}
}

func TestRestorable(t *testing.T) {
	const gridID = 3
	for _, grid := range []string{"untouched", "damaged", "abandoned"} {
		st := &modeState{abandoned: []int{1, 5}}
		if grid == "abandoned" {
			st.abandoned = []int{1, gridID, 5}
		}
		damaged := grid != "untouched" // an abandoned grid was damaged first
		// Every mode follows the agreed damage, whatever the member saw.
		if got, want := st.restorable(damaged, gridID), !damaged; got != want {
			t.Errorf("grid %s: restorable = %v, want %v", grid, got, want)
		}
	}
}

func TestRecoveryInfoRoundTrip(t *testing.T) {
	failed := []int{2, 6}
	for _, mode := range recovery.Modes {
		mc := modeCtx{mode: mode, st: &modeState{failed: failed}}
		want := recoveryInfo{step: 40, failed: failed}
		if mode != recovery.ModeSpawn {
			mc.st.origOf = []int{0, 1, 3, 4, 5, 7}
			mc.st.abandoned = []int{1, 4}
			want.abandoned, want.origOf = []int{1, 4}, mc.st.origOf
		}
		size := 8 - len(failed)
		buf := mc.encodeInfo(40, size)
		got, err := decodeInfo(mode, size, buf)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got.step != want.step || !slices.Equal(got.failed, want.failed) ||
			!slices.Equal(got.abandoned, want.abandoned) || !slices.Equal(got.origOf, want.origOf) {
			t.Errorf("%v: decoded %+v, want %+v", mode, got, want)
		}
		if mode == recovery.ModeSpawn {
			if len(buf) != 1+len(failed) {
				t.Errorf("spawn announcement is %d ints, want the short layout's %d", len(buf), 1+len(failed))
			}
			if got.origOf != nil {
				t.Errorf("spawn decoded a position map %v, want nil (the identity)", got.origOf)
			}
		}

		// Damage: nothing, a payload cut anywhere, counts that overrun it, and
		// a communicator of another size.
		if _, err := decodeInfo(mode, size, nil); err == nil {
			t.Errorf("%v: empty payload accepted", mode)
		}
		if mode == recovery.ModeSpawn {
			continue // [step, failed...] has no shorter malformed form
		}
		// A rank still on the identity (nil) spells it out.
		ident := modeCtx{mode: mode, st: &modeState{failed: failed}}
		spelled, err := decodeInfo(mode, 8, ident.encodeInfo(40, 8))
		if err != nil || !slices.Equal(spelled.origOf, []int{0, 1, 2, 3, 4, 5, 6, 7}) || !ident.st.sameMap(spelled.origOf) || mc.st.sameMap(spelled.origOf) {
			t.Errorf("%v: identity announced as %v (%v)", mode, spelled.origOf, err)
		}
		buf = mc.encodeInfo(40, size)
		for n := 1; n < len(buf); n++ {
			if _, err := decodeInfo(mode, size, buf[:n]); err == nil {
				t.Errorf("%v: payload truncated to %d of %d ints accepted", mode, n, len(buf))
			}
		}
		for _, idx := range []int{1, 2 + len(failed)} { // the failed and abandoned counts
			for _, n := range []int{-1, len(buf) - idx, len(buf)} {
				over := append([]int(nil), buf...)
				over[idx] = n
				if _, err := decodeInfo(mode, size, over); err == nil {
					t.Errorf("%v: count at %d set to %d accepted", mode, idx, n)
				}
			}
		}
		if _, err := decodeInfo(mode, size+1, buf); err == nil {
			t.Errorf("%v: %d-position map accepted for a size-%d communicator", mode, size, size+1)
		}
	}
}

// TestLostGridIDs checks failed ranks map onto their sub-grids as one
// ascending list without repeats, skipping ranks outside every group.
func TestLostGridIDs(t *testing.T) {
	rs := &runState{cfg: Config{RealFailures: true}, grids: []SubGrid{
		{ID: 0, Procs: 4, FirstRank: 0}, {ID: 1, Procs: 4, FirstRank: 4}, {ID: 2, Procs: 2, FirstRank: 8},
	}}
	for _, tc := range []struct{ failed, want []int }{
		{[]int{9, 5, 1, 6, 8, 42}, []int{0, 1, 2}},
		{[]int{6, 5}, []int{1}},
		{[]int{42}, nil},
		{nil, nil},
	} {
		if got := rs.lostGridIDs(tc.failed); !slices.Equal(got, tc.want) {
			t.Errorf("lostGridIDs(%v) = %v, want %v", tc.failed, got, tc.want)
		}
	}
}

// TestSubstituteStateIsTheCommunicators drives the repair steps (repaired,
// agreed, admit) through two failure events of an 8-rank substitute-mode
// world with one spare. The first event claims the spare, and every rank of
// the repaired communicator — the claimed spare too — holds its one state
// value, whose content is what rank 0's announcement describes. The second
// finds the pool empty and shrinks: its holes are the complement of its map,
// rank 0's history is the union of both events, and the first state is as
// it was.
func TestSubstituteStateIsTheCommunicators(t *testing.T) {
	const procs = 8
	victims := [][]int{{6}, {3}} // original ranks, by event
	rs := &runState{
		cfg:   Config{Technique: AlternateCombination, RecoveryMode: recovery.ModeSubstitute},
		grids: []SubGrid{{ID: 0, Procs: 4, FirstRank: 0}, {ID: 1, Procs: 4, FirstRank: 4}},
		place: recovery.SameHostPlacement,
		ranks: make([]rankState, procs),
		res:   Result{Procs: procs},
	}
	var mu sync.Mutex
	states := make([]map[int]*modeState, len(victims)) // by event and original rank
	for e := range states {
		states[e] = map[int]*modeState{}
	}
	var first modeState // the first event's state, copied before the second
	record := func(r *rankState, e int) {
		mu.Lock()
		defer mu.Unlock()
		states[e][r.rank] = r.mc.st
		if e == 0 && r.rank == 0 {
			first = *r.mc.st
			for _, l := range []*[]int{&first.origOf, &first.holes, &first.abandoned, &first.failed, &first.lost, &first.recover} {
				*l = slices.Clone(*l)
			}
		}
	}
	program := func(p *mpi.Proc) error {
		r, err := rs.newRank(p)
		if err != nil {
			return err
		}
		e := 0
		if r.replacement {
			tAttach := r.beginDetect()
			if err := recovery.ReconstructModeInto(&r.mr, p, nil, p.Parent(), &r.st, rs.place, r.mc.mode, nil); err != nil {
				return err
			}
			buf, err := mpi.Bcast[int](r.mr.Comm, 0, nil)
			if err := r.admit(&r.mr, buf, err, tAttach, p.Now()); err != nil {
				return err
			}
			record(r, e)
			e++
		}
		for ; e < len(victims); e++ {
			if slices.Contains(victims[e], r.rank) {
				p.Kill()
			}
			r.beginDetect()
			if err := recovery.ReconstructModeInto(&r.mr, p, r.world, nil, &r.st, rs.place, r.mc.mode, r.mc.st.origOf); err != nil {
				return err
			}
			announce, err := r.repaired(&r.mr)
			if err != nil {
				return err
			}
			buf, err := mpi.Bcast(r.world, 0, announce)
			if err := r.agreed(buf, err); err != nil {
				return err
			}
			record(r, e)
		}
		return nil
	}
	cluster := topo.New(3, 4)
	if _, err := mpi.Run(mpi.Options{
		NProcs:     procs,
		Machine:    vtime.OPL(),
		Cluster:    cluster,
		SpareRanks: 1,
		SpareHosts: []string{cluster.Host(2).Name},
		Watchdog:   mpi.Watchdog{Timeout: 20 * time.Second},
		Entry: func(p *mpi.Proc) {
			if err := program(p); err != nil {
				p.Abort(err)
			}
		},
	}); err != nil {
		t.Fatal(err)
	}

	// Every rank on each repaired communicator holds its one value: seven
	// survivors and the spare after the first event, the spare among the
	// seven after the second.
	for e, byRank := range states {
		if len(byRank) != procs-e {
			t.Fatalf("event %d: %d ranks recorded a state, want %d", e, len(byRank), procs-e)
		}
		for rank, st := range byRank {
			if st != byRank[0] {
				t.Errorf("event %d: rank %d holds a state of its own: %+v, rank 0 %+v", e, rank, *st, *byRank[0])
			}
		}
	}
	st1, st2 := states[0][0], states[1][0]
	if st1.origOf != nil || len(st1.holes) != 0 || !slices.Equal(st1.failed, []int{6}) || !slices.Equal(st1.lost, []int{1}) ||
		!slices.Equal(st1.abandoned, []int{1}) || len(st1.recover) != 0 {
		t.Errorf("after the first event: %+v, want the identity map, no holes, failed [6], grid 1 lost and abandoned", *st1)
	}
	// The state a replacement that asked first would have built from rank
	// 0's announcement is the survivors' in content, and shares none of the
	// announcement's memory.
	mc := modeCtx{mode: recovery.ModeSubstitute, st: st1}
	buf := mc.encodeInfo(40, procs)
	info, err := decodeInfo(mc.mode, procs, buf)
	if err != nil {
		t.Fatal(err)
	}
	announced := rs.infoState(info)
	clear(buf)
	if !reflect.DeepEqual(*announced, *st1) {
		t.Errorf("state built from the announcement: %+v, want the survivors' %+v", *announced, *st1)
	}

	wantMap := []int{0, 1, 2, 4, 5, 6, 7}
	if !slices.Equal(st2.origOf, wantMap) || !slices.Equal(st2.holes, []int{3}) {
		t.Errorf("after the second event: map %v holes %v, want %v and its complement [3]", st2.origOf, st2.holes, wantMap)
	}
	if !slices.Equal(st2.failed, []int{3}) || !slices.Equal(st2.abandoned, []int{0, 1}) || len(st2.recover) != 0 {
		t.Errorf("after the second event: failed %v, abandoned %v, recover %v; want [3], [0 1], none", st2.failed, st2.abandoned, st2.recover)
	}
	if !slices.Equal(rs.res.FailedRanks, []int{3, 6}) || rs.res.RepairFallbacks != 1 {
		t.Errorf("rank 0's history: failed %v, %d fallbacks; want [3 6] and 1", rs.res.FailedRanks, rs.res.RepairFallbacks)
	}
	if !reflect.DeepEqual(*st1, first) {
		t.Errorf("the first event's state now reads %+v, want %+v", *st1, first)
	}
}
