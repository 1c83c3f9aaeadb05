package core

import (
	"slices"
	"strings"
	"testing"

	"ftsg/internal/recovery"
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
	for _, mode := range recovery.Modes {
		for _, grid := range []string{"untouched", "damaged", "abandoned"} {
			mc := newModeCtx(mode, 8)
			if grid == "abandoned" {
				mc.abandoned.add(gridID)
			}
			damaged := grid != "untouched" // an abandoned grid was damaged first
			// Every mode follows the agreed damage, whatever the member saw.
			if got, want := mc.restorable(damaged, gridID), !damaged; got != want {
				t.Errorf("%v, grid %s: restorable = %v, want %v", mode, grid, got, want)
			}
		}
	}
}

func TestRecoveryInfoRoundTrip(t *testing.T) {
	failed := []int{2, 6}
	for _, mode := range recovery.Modes {
		rs := &runState{}
		mc := newModeCtx(mode, 8)
		want := recoveryInfo{step: 40, failed: failed}
		if mode != recovery.ModeSpawn {
			mc.origOf = []int{0, 1, 3, 4, 5, 7}
			mc.abandoned.add(4)
			mc.abandoned.add(1)
			want.abandoned, want.origOf = []int{1, 4}, mc.origOf
		}
		size := 8 - len(failed)
		buf := mc.encodeInfo(40, failed)
		got, err := rs.decodeInfo(&mc, size, buf)
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
		clear(buf) // the decoded lists are the run's copy
		if !slices.Equal(got.failed, failed) {
			t.Errorf("%v: decoded info aliases the broadcast buffer", mode)
		}

		// Damage: nothing, a payload cut anywhere, counts that overrun it, and
		// a communicator of another size.
		if _, err := rs.decodeInfo(&mc, size, nil); err == nil {
			t.Errorf("%v: empty payload accepted", mode)
		}
		if mode == recovery.ModeSpawn {
			continue // [step, failed...] has no shorter malformed form
		}
		buf = mc.encodeInfo(40, failed)
		for n := 1; n < len(buf); n++ {
			if _, err := rs.decodeInfo(&mc, size, buf[:n]); err == nil {
				t.Errorf("%v: payload truncated to %d of %d ints accepted", mode, n, len(buf))
			}
		}
		for _, idx := range []int{1, 2 + len(failed)} { // the failed and abandoned counts
			for _, n := range []int{-1, len(buf) - idx, len(buf)} {
				over := append([]int(nil), buf...)
				over[idx] = n
				if _, err := rs.decodeInfo(&mc, size, over); err == nil {
					t.Errorf("%v: count at %d set to %d accepted", mode, idx, n)
				}
			}
		}
		if _, err := rs.decodeInfo(&mc, size+1, buf); err == nil {
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

// TestAdoptedStateSharesOnlyReadOnlyLists follows a claimed spare through
// its admission and a later failure event: the hole and failure lists it
// derives match the complement of its map and the union of both events,
// and folding the event into its position map leaves the run's decoded
// announcement — which every replacement admitted by it shares — as it was.
func TestAdoptedStateSharesOnlyReadOnlyLists(t *testing.T) {
	rs := &runState{
		cfg:   Config{Technique: CheckpointRestart, RealFailures: true},
		grids: []SubGrid{{ID: 0, Procs: 4, FirstRank: 0}, {ID: 1, Procs: 4, FirstRank: 4}},
		res:   Result{Procs: 8},
	}
	announced := []int{0, 1, 2, 3, 4, 5, 7} // rank 6 shrunk out earlier
	rank0 := newModeCtx(recovery.ModeSubstitute, 8)
	rank0.origOf = slices.Clone(announced)
	info, err := rs.decodeInfo(&rank0, len(announced), rank0.encodeInfo(40, []int{6}))
	if err != nil {
		t.Fatal(err)
	}

	spare := newModeCtx(recovery.ModeSubstitute, 8)
	rs.adopt(&spare, info)
	if !slices.Equal(spare.dead, []int{6}) || !slices.Equal(spare.failed, []int{6}) {
		t.Fatalf("adopted holes %v, failed %v; want [6] and [6]", spare.dead, spare.failed)
	}
	rs.applyEvent(&spare, []int{0, 1, 2, 3, 5, 7}, []int{4})
	if !slices.Equal(spare.dead, []int{4, 6}) || !slices.Equal(spare.failed, []int{4, 6}) {
		t.Errorf("after the event: holes %v, failed %v; want [4 6] and [4 6]", spare.dead, spare.failed)
	}
	if !slices.Equal(info.origOf, announced) {
		t.Errorf("the run's decoded announcement now maps %v, want %v", info.origOf, announced)
	}
	if !spare.holed(rs.grids[1]) || spare.holed(rs.grids[0]) || spare.liveRootOf(rs.grids[1]) != 5 {
		t.Errorf("grid 1 holed %v, grid 0 holed %v, grid 1's live root %d; want true, false, 5",
			spare.holed(rs.grids[1]), spare.holed(rs.grids[0]), spare.liveRootOf(rs.grids[1]))
	}
}
