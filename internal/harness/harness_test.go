package harness

import (
	"bytes"
	"strings"
	"testing"

	"ftsg/internal/core"
)

func quickOpts() Options {
	return Options{Quick: true, Trials: 1, ErrTrials: 2, Steps: 32}
}

func TestFig8ShapesMatchPaper(t *testing.T) {
	rows, err := Fig8(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[[2]int]Fig8Row{}
	for _, r := range rows {
		byKey[[2]int{r.Cores, r.Failures}] = r
	}
	// Monotone growth with cores for two failures, and 2-failure repair
	// far above 1-failure repair at the largest core count.
	if byKey[[2]int{76, 2}].Reconstruct <= byKey[[2]int{19, 2}].Reconstruct {
		t.Errorf("reconstruction time did not grow with cores: %+v", rows)
	}
	big1, big2 := byKey[[2]int{76, 1}], byKey[[2]int{76, 2}]
	if big2.Reconstruct <= big1.Reconstruct {
		t.Errorf("2-failure reconstruct (%g) not above 1-failure (%g)",
			big2.Reconstruct, big1.Reconstruct)
	}
	if big2.ListTime <= 0 || big2.Reconstruct <= 0 {
		t.Errorf("times not recorded: %+v", big2)
	}
	var buf bytes.Buffer
	fig8Report.write(&buf, rows, false)
	if !strings.Contains(buf.String(), "Fig. 8a") {
		t.Error("render missing header")
	}
}

func TestTable1ShapesMatchPaper(t *testing.T) {
	rows, err := Table1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Shapes from Table I: spawn and shrink dominate and grow with cores;
	// merge stays tiny.
	last := rows[len(rows)-1]
	if last.Spawn < rows[0].Spawn || last.Shrink < rows[0].Shrink {
		t.Errorf("spawn/shrink did not grow with cores: %+v", rows)
	}
	if last.Merge > 1 {
		t.Errorf("merge time %g implausibly large", last.Merge)
	}
	if last.Spawn < last.Merge {
		t.Errorf("spawn (%g) below merge (%g)", last.Spawn, last.Merge)
	}
	var buf bytes.Buffer
	table1Report.write(&buf, rows, false)
	if !strings.Contains(buf.String(), "Comm_shrink") {
		t.Error("render missing column")
	}
}

func TestFig9ShapesMatchPaper(t *testing.T) {
	rows, err := Fig9(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	get := func(machine string, tech core.Technique, lost int) Fig9Row {
		for _, r := range rows {
			if r.Machine == machine && r.Technique == tech && r.LostGrids == lost {
				return r
			}
		}
		t.Fatalf("missing row %s/%v/%d", machine, tech, lost)
		return Fig9Row{}
	}
	// Fig. 9a ordering on OPL: CR highest, AC lowest, RC in between.
	cr, rc, ac := get("OPL", core.CheckpointRestart, 1), get("OPL", core.ResamplingCopying, 1), get("OPL", core.AlternateCombination, 1)
	if !(cr.Overhead > rc.Overhead && rc.Overhead > ac.Overhead) {
		t.Errorf("Fig 9a ordering broken: CR=%g RC=%g AC=%g", cr.Overhead, rc.Overhead, ac.Overhead)
	}
	// Fig. 9b on OPL: AC lowest; CR highest.
	if !(cr.ProcessTime > ac.ProcessTime) {
		t.Errorf("Fig 9b: CR (%g) not above AC (%g) on OPL", cr.ProcessTime, ac.ProcessTime)
	}
	// Raijin: CR has the least process-time overhead (the crossover).
	raijinCR := get("Raijin", core.CheckpointRestart, 1)
	if raijinCR.ProcessTime >= ac.ProcessTime {
		t.Errorf("Raijin CR (%g) not below AC (%g): the T_I/O crossover is missing",
			raijinCR.ProcessTime, ac.ProcessTime)
	}
	// Recovery time nearly independent of the number of lost grids.
	cr3 := get("OPL", core.CheckpointRestart, 3)
	if cr3.Overhead > 2.5*cr.Overhead {
		t.Errorf("CR overhead tripled with lost grids: %g -> %g", cr.Overhead, cr3.Overhead)
	}
}

func TestFig10ShapesMatchPaper(t *testing.T) {
	// Error shapes need more averaging than the timing tests: with very few
	// trials RC's mean is dominated by whichever grids the draws lose
	// (duplicate losses are harmless), and the AC < RC ordering is an
	// average effect (the paper averages 20 trials).
	opts := quickOpts()
	opts.ErrTrials = 8
	opts.Steps = 64
	rows, err := Fig10(opts)
	if err != nil {
		t.Fatal(err)
	}
	get := func(tech core.Technique, lost int) float64 {
		for _, r := range rows {
			if r.Technique == tech && r.LostGrids == lost {
				return r.L1Error
			}
		}
		t.Fatalf("missing row %v/%d", tech, lost)
		return 0
	}
	// CR error independent of losses.
	if get(core.CheckpointRestart, 0) != get(core.CheckpointRestart, 3) {
		t.Error("CR error depends on lost grids (exact recovery broken)")
	}
	// RC and AC grow with losses.
	var rcSum, acSum float64
	for lost := 1; lost <= 3; lost++ {
		rc, ac := get(core.ResamplingCopying, lost), get(core.AlternateCombination, lost)
		if rc <= get(core.ResamplingCopying, 0) {
			t.Errorf("RC error did not grow at lost=%d", lost)
		}
		if ac <= get(core.AlternateCombination, 0) {
			t.Errorf("AC error did not grow at lost=%d", lost)
		}
		rcSum += rc
		acSum += ac
	}
	// The paper's surprising result — AC more accurate than the near-exact
	// RC — holds on average (individual loss draws can go either way at
	// this reduced trial count; the full experiment shows AC below RC at
	// every point by 3-8x).
	if acSum >= rcSum {
		t.Errorf("mean AC error %g not below mean RC %g", acSum/3, rcSum/3)
	}
}

func TestFig11ShapesMatchPaper(t *testing.T) {
	rows, err := Fig11(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	get := func(tech core.Technique, failures, sweep int) Fig11Row {
		for _, r := range rows {
			if r.Technique == tech && r.Failures == failures && r.SweepCores == sweep {
				return r
			}
		}
		t.Fatalf("missing row %v/%d/%d", tech, failures, sweep)
		return Fig11Row{}
	}
	// Fig. 11a ordering at every scale with no failures: CR most costly,
	// then RC, AC least costly.
	for _, sweep := range []int{19, 38, 76} {
		cr := get(core.CheckpointRestart, 0, sweep).Time
		rc := get(core.ResamplingCopying, 0, sweep).Time
		ac := get(core.AlternateCombination, 0, sweep).Time
		if !(cr > rc && rc > ac) {
			t.Errorf("sweep %d: Fig 11a ordering broken: CR=%g RC=%g AC=%g", sweep, cr, rc, ac)
		}
	}
	// Efficiency at the base scale is 1 by construction; at the largest
	// scale it stays in a plausible band, and CR is the least scalable
	// technique (the paper's Fig. 11b: AC and RC are more scalable than
	// CR, whose disk I/O does not shrink with cores).
	for _, tech := range []core.Technique{core.CheckpointRestart, core.AlternateCombination} {
		base := get(tech, 0, 19)
		if base.Efficiency != 1 {
			t.Errorf("%v base efficiency = %g", tech, base.Efficiency)
		}
		if e := get(tech, 0, 76).Efficiency; e <= 0.3 || e > 1.3 {
			t.Errorf("%v efficiency %g implausible at larger scale", tech, e)
		}
	}
	if cr, ac := get(core.CheckpointRestart, 0, 76).Efficiency, get(core.AlternateCombination, 0, 76).Efficiency; cr >= ac {
		t.Errorf("CR efficiency %g not below AC %g at the largest scale", cr, ac)
	}
	// Two failures cost more than none at the largest sweep point.
	if get(core.AlternateCombination, 2, 76).Time <= get(core.AlternateCombination, 0, 76).Time {
		t.Error("two-failure run not slower than failure-free run")
	}
}
