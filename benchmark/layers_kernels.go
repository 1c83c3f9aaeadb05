package main

import (
	"fmt"
	"math"

	"ftsg/internal/combine"
	"ftsg/internal/ftcomb"
	"ftsg/internal/grid"
	"ftsg/internal/mpi"
	"ftsg/internal/pde"
)

// kernelSamples trims the sample count of the kernel drivers: one call
// takes 0.1-0.5 ms, so a thousand of each would cost the layers phase more
// than the 4096-rank drivers do.
func kernelSamples(sz sizes) int { return max(sz.samples/4, 10) }

func filledGrid(lv grid.Level) *grid.Grid {
	g := grid.New(lv)
	g.Fill(func(x, y float64) float64 { return math.Sin(2*math.Pi*x) * math.Cos(2*math.Pi*y) })
	return g
}

func layerGrid(sz sizes, out *layerOut) error {
	n := kernelSamples(sz)
	full := grid.Level{I: 8, J: 8}
	sub := grid.Level{I: 5, J: 8}
	src, fine, dst := filledGrid(sub), filledGrid(full), grid.New(full)
	coarse := grid.New(sub)

	dst.AccumulateSampled(src, 1) // warm the pooled per-column tables
	d := distOf(timeOps(n, func() { dst.AccumulateSampled(src, 1) }))
	out.setDist("grid.accumulate_ns_per_cell", d, 1e9/float64(full.Points()), fmt.Sprintf("per target point, %d points", full.Points()))

	var err error
	d = distOf(timeOps(n, func() {
		if e := grid.RestrictInto(fine, coarse); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}
	out.setDist("grid.restrict_ns_per_cell", d, 1e9/float64(sub.Points()), fmt.Sprintf("per coarse point, %d points", sub.Points()))

	var sink *grid.Grid
	d = distOf(timeOps(n, func() { sink = grid.Hierarchize(fine) }))
	if sink.Lv != full {
		return fmt.Errorf("hierarchize changed the level to %v", sink.Lv)
	}
	out.setDist("grid.hierarchize_ns_per_cell", d, 1e9/float64(full.Points()), fmt.Sprintf("per point, %d points", full.Points()))
	return nil
}

func layerPDE(sz sizes, out *layerOut) error {
	prob := &pde.Problem{Ax: 1, Ay: 0.5, U0: pde.SinProduct}
	lv := grid.Level{I: 8, J: 8}
	g := grid.New(lv)
	g.Fill(prob.U0)
	dt := pde.StableDt(g.Hx(), g.Hy(), prob.Ax, prob.Ay, 0.8)
	scratch := pde.Step(g, prob, dt, nil)
	cells := lv.Cells()
	d := distOf(timeOps(kernelSamples(sz), func() { scratch = pde.Step(g, prob, dt, scratch) }))
	out.setDist("pde.step_ns_per_cell", d, 1e9/float64(cells), fmt.Sprintf("per cell update, %d cells", cells))
	// Step reads v and writes w, then copies w back over v: each array is
	// traversed twice. Computed from array sizes; cache misses are not seen.
	out.set("pde.step_computed_bytes_per_cell", 4*8, "computed: 2 arrays x 2 traversals x 8 B")

	// Eight ranks solve one (5,8) sub-grid together: per step including the
	// halo exchange, timed on rank 0 of a world built once.
	const ranks = 8
	steps := sz.samples
	var sink errSink
	var perStep float64
	_, err := mpi.Run(mpi.Options{NProcs: ranks, Entry: func(p *mpi.Proc) {
		sub := grid.Level{I: 5, J: 8}
		s, err := pde.NewParallelSolver(p.World(), prob, sub, 1e-4)
		if err != nil {
			sink.add("solver: %v", err)
			return
		}
		if err := s.Run(8); err != nil {
			sink.add("warm-up: %v", err)
			return
		}
		samples := timeOps(1, func() {
			if err := s.Run(steps); err != nil {
				sink.add("run: %v", err)
			}
		})
		if p.World().Rank() == 0 {
			perStep = samples[0] / float64(steps)
		}
	}})
	if err == nil {
		err = sink.err()
	}
	if err != nil {
		return err
	}
	out.set("pde.parallel_step_us.8", perStep*1e6, fmt.Sprintf("n=%d steps, 8 ranks, (5,8) grid, incl. halo exchange", steps))
	return nil
}

func layerCombine(sz sizes, out *layerOut) error {
	ly := combine.Layout{N: 8, L: 4}
	scheme := ly.Classic()
	sols := make(map[grid.Level]*grid.Grid, len(scheme))
	for _, c := range scheme {
		g := grid.New(c.Lv)
		g.Fill(pde.SinProduct)
		sols[c.Lv] = g
	}
	target := grid.Level{I: 8, J: 8}
	dst := grid.New(target)
	var err error
	d := distOf(timeOps(max(kernelSamples(sz)/4, 5), func() {
		if e := combine.EvaluateInto(dst, scheme, sols); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}
	out.setDist("combine.evaluate_ns_per_point", d, 1e9/float64(target.Points()),
		fmt.Sprintf("per target point, %d points x %d components", target.Points(), len(scheme)))

	// The alternate-combination coefficient solve at the paper's nominal
	// problem size (n = 13).
	J := ftcomb.Downset(combine.Layout{N: 13, L: 4}.Diagonal())
	var coeffs map[grid.Level]int
	d = distOf(timeOps(kernelSamples(sz), func() { coeffs = ftcomb.Coefficients(J) }))
	if len(coeffs) == 0 {
		return fmt.Errorf("ftcomb: no coefficients")
	}
	out.setDist("ftcomb.coefficients_us", d, 1e6, fmt.Sprintf("per solve over a %d-level downset", len(J)))
	return nil
}
