// Advection2d demonstrates the substrate without fault tolerance: a plain
// parallel sparse-grid-combination solve of the 2D advection equation on
// the simulated MPI runtime, compared against the analytic solution and a
// single full-grid solve — showing the combination technique's accuracy at
// a fraction of the cost.
package main

import (
	"fmt"
	"log"
	"math"
	"sync"

	"ftsg/internal/combine"
	"ftsg/internal/grid"
	"ftsg/internal/mpi"
	"ftsg/internal/pde"
	"ftsg/internal/vtime"
)

func main() {
	prob := &pde.Problem{Ax: 1, Ay: 0.5, U0: pde.SinProduct}
	ly := combine.Layout{N: 8, L: 4}
	h := math.Pow(2, -float64(ly.N))
	dt := pde.StableDt(h, h, prob.Ax, prob.Ay, 0.8)
	const steps = 200

	scheme := ly.Classic()
	nprocsPer := 4 // processes per sub-grid group
	nprocs := len(scheme) * nprocsPer

	var mu sync.Mutex
	sols := make(map[grid.Level]*grid.Grid)
	var maxTime float64

	rep, err := mpi.Run(mpi.Options{
		NProcs:  nprocs,
		Machine: vtime.OPL(),
		Entry: func(p *mpi.Proc) {
			world := p.World()
			gridIdx := world.Rank() / nprocsPer
			gc, err := world.Split(gridIdx, world.Rank())
			if err != nil {
				log.Fatal(err)
			}
			lv := scheme[gridIdx].Lv
			s, err := pde.NewParallelSolver(gc, prob, lv, dt)
			if err != nil {
				log.Fatal(err)
			}
			s.ChargeScale = 1
			if err := s.Run(steps); err != nil {
				log.Fatal(err)
			}
			g, err := s.Gather(0)
			if err != nil {
				log.Fatal(err)
			}
			if gc.Rank() == 0 {
				mu.Lock()
				sols[lv] = g
				mu.Unlock()
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	maxTime = rep.MaxVirtualTime

	comb, err := combine.Evaluate(scheme, sols, grid.Level{I: ly.N, J: ly.N})
	if err != nil {
		log.Fatal(err)
	}
	exact := prob.Exact(float64(steps) * dt)
	combErr := comb.L1Error(exact)

	// Reference: a single full-grid solve at the same resolution.
	full := pde.Solve(grid.Level{I: ly.N, J: ly.N}, prob, dt, steps)
	fullErr := full.L1Error(exact)

	var combPoints int
	for _, c := range scheme {
		combPoints += c.Lv.Points()
	}
	fullPoints := grid.Level{I: ly.N, J: ly.N}.Points()

	fmt.Println("sparse grid combination vs full grid (2D advection, Lax-Wendroff)")
	fmt.Printf("  %d sub-grids on %d simulated processes, %d steps\n", len(scheme), nprocs, steps)
	fmt.Printf("  combination l1 error: %.3e using %8d points\n", combErr, combPoints)
	fmt.Printf("  full grid l1 error:   %.3e using %8d points (%.1fx more)\n",
		fullErr, fullPoints, float64(fullPoints)/float64(combPoints))
	fmt.Printf("  virtual run time:     %.2f s\n", maxTime)
}
