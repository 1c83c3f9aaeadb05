package pde

import (
	"fmt"
	"math"
	"testing"

	"ftsg/internal/grid"
	"ftsg/internal/mpi"
)

func BenchmarkSerialStep(b *testing.B) {
	p := testProblem()
	g := grid.New(grid.Level{I: 8, J: 8})
	g.Fill(p.U0)
	var scratch []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = Step(g, p, 1e-4, scratch)
	}
	cells := (g.Nx - 1) * (g.Ny - 1)
	b.ReportMetric(float64(cells), "cells/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
}

// BenchmarkParallelUpdate times the local half of a parallel step — the
// stencil over one rank's block and the buffer swap — at the block shapes the
// paper's sweeps are made of (nx columns × owned rows; 1024×2 is an app_1k
// block), once per row path ("avx", "go"). The solver is built in place,
// without a world: update touches no communicator. The halo rows are filled
// once and never refreshed, which the timing cannot see.
func BenchmarkParallelUpdate(b *testing.B) {
	defer func(saved bool) { useAVX = saved }(useAVX)
	for _, blk := range []struct{ nx, rows int }{{64, 8}, {512, 4}, {16, 2}, {1024, 2}} {
		for _, path := range rowPathsHere() {
			b.Run(fmt.Sprintf("%dx%d/%s", blk.nx, blk.rows, path.name), func(b *testing.B) {
				useAVX = path.avx
				s := &ParallelSolver{
					Prob: testProblem(), Dt: 1e-4,
					nx: blk.nx, ny: blk.rows, r1: blk.rows,
					local:   make([]float64, (blk.rows+2)*blk.nx),
					scratch: make([]float64, (blk.rows+2)*blk.nx),
				}
				for k := range s.local {
					s.local[k] = math.Sin(float64(k))
					s.scratch[k] = s.local[k]
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.update()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blk.nx*blk.rows), "ns/cell")
			})
		}
	}
}

// timeOnWorld builds a ParallelSolver on every rank of a persistent 8-rank
// world and times run(s, b.N) there, fenced by barriers, so world
// construction and teardown are outside the timer. run(s, 16) beforehand
// fills the buffer pool.
func timeOnWorld(b *testing.B, lv grid.Level, dt float64, run func(s *ParallelSolver, n int) error) {
	const ranks = 8
	p := testProblem()
	b.ReportAllocs()
	_, err := mpi.Run(mpi.Options{NProcs: ranks, Entry: func(proc *mpi.Proc) {
		c := proc.World()
		s, err := NewParallelSolver(c, p, lv, dt)
		if err != nil {
			b.Error(err)
			return
		}
		defer s.Release()
		fence := func(onRoot func()) {
			if err := c.Barrier(); err != nil {
				b.Error(err)
			}
			if c.Rank() == 0 {
				onRoot()
			}
			if err := c.Barrier(); err != nil {
				b.Error(err)
			}
		}
		if err := run(s, 16); err != nil {
			b.Error(err)
		}
		fence(b.ResetTimer)
		if err := run(s, b.N); err != nil {
			b.Error(err)
		}
		fence(b.StopTimer)
	}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ranks), "ns/rank-op")
}

// BenchmarkGather times gathering a 32 × 256 sub-grid from eight row bands
// onto rank 0, which frees it again.
func BenchmarkGather(b *testing.B) {
	timeOnWorld(b, grid.Level{I: 5, J: 8}, 1e-4, func(s *ParallelSolver, n int) error {
		for i := 0; i < n; i++ {
			g, err := s.Gather(0)
			if err != nil {
				return err
			}
			if g != nil {
				g.Free()
			}
		}
		return nil
	})
}

// BenchmarkHaloRing times the shipped parallel step — halo exchange and
// stencil — at nx = 128 (a 1 KiB halo row, eight owned rows per rank).
func BenchmarkHaloRing(b *testing.B) {
	timeOnWorld(b, grid.Level{I: 7, J: 6}, 0.25/128.0, (*ParallelSolver).Run)
}
