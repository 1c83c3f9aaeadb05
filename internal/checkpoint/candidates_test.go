package checkpoint

import (
	"reflect"
	"testing"

	"ftsg/internal/mpi"
	"ftsg/internal/vtime"
)

// TestAppendCandidateStepsAllocatesNothing pins the restart negotiation's
// per-rank header checks on the in-memory backend: with a reused step list
// they allocate nothing, and appending keeps what dst already holds.
func TestAppendCandidateStepsAllocatesNothing(t *testing.T) {
	s, err := Open(Options{Backend: NewMem(), Generations: 3})
	if err != nil {
		t.Fatal(err)
	}
	withProc(t, vtime.Generic(), func(p *mpi.Proc) {
		for _, step := range []int{10, 20, 30} {
			if err := s.Write(p, 1, 2, step, []float64{float64(step)}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got := s.AppendCandidateSteps([]int{7}, 1, 2); !reflect.DeepEqual(got, []int{7, 30, 20, 10}) {
		t.Fatalf("AppendCandidateSteps([7]) = %v, want [7 30 20 10]", got)
	}
	dst := make([]int, 0, 3)
	if n := testing.AllocsPerRun(100, func() { dst = s.AppendCandidateSteps(dst[:0], 1, 2) }); n != 0 {
		t.Errorf("AppendCandidateSteps allocates %.1f objects per call with a reused list, want 0", n)
	}
}
