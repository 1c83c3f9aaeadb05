package checkpoint

import (
	"fmt"
	"testing"

	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/vtime"
)

// TestStoreConcurrentRanks exercises the store from many simulated ranks at
// once (run under -race in CI): concurrent writes, rotation and reads.
func TestStoreConcurrentRanks(t *testing.T) {
	b := NewMem()
	s, err := Open(Options{Backend: b, Generations: 2, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	const nprocs = 8
	_, err = mpi.Run(mpi.Options{NProcs: nprocs, Machine: vtime.Generic(), Entry: func(p *mpi.Proc) {
		me := p.World().Rank()
		for i := 1; i <= 10; i++ {
			if err := s.Write(p, 0, me, i, []float64{float64(me), float64(i)}); err != nil {
				t.Errorf("rank %d: %v", me, err)
				return
			}
		}
		step, data, err := s.Read(p, 0, me)
		if err != nil {
			t.Errorf("rank %d: %v", me, err)
			return
		}
		if step != 10 || data[0] != float64(me) {
			t.Errorf("rank %d read (%d, %g)", me, step, data[0])
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	names := blobNames(t, b)
	if want := nprocs * 2; len(names) != want {
		t.Errorf("backend holds %d blobs, want %d", len(names), want)
	}
	for _, n := range names {
		var g, r, gen int
		if _, err := fmt.Sscanf(n, "grid%03d_rank%04d.gen%06d.ckpt", &g, &r, &gen); err != nil {
			t.Errorf("unexpected blob name %q", n)
		}
	}
}
