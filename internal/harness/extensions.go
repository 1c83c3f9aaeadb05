package harness

import (
	"fmt"

	"ftsg/internal/checkpoint"
	"ftsg/internal/core"
	"ftsg/internal/vtime"
)

// The experiments in this file go beyond the paper's evaluation: a
// combination-level sweep for the error/cost tradeoff, the node-failure /
// spare-node scenario of the paper's future work, and a sensitivity study
// of the checkpoint-interval rule that resolves the ambiguity in the
// paper's Eq. 2.

// LevelSweepRow is one point of the level-sweep extension: accuracy and
// sub-grid cost of the combination at a given level l.
type LevelSweepRow struct {
	Level     int
	Grids     int
	Points    int // total sub-grid points (memory/compute proxy)
	L1Error   float64
	TotalTime float64
}

// LevelSweep measures the failure-free AC configuration across combination
// levels, showing the accuracy/cost tradeoff the paper's future work hints
// at ("more advanced sparse grid combination techniques").
func LevelSweep(o Options) ([]LevelSweepRow, error) {
	o = o.WithDefaults()
	var pts []point
	for _, l := range []int{4, 5, 6} {
		cfg := core.Config{Technique: core.AlternateCombination, DiagProcs: 4, Steps: o.Steps, Seed: 131}
		cfg.Layout.N, cfg.Layout.L = 9, l
		pts = append(pts, point{cfg, 1, fmt.Sprintf("levelsweep l=%d", l)})
	}
	return sweep(o, pts, func(cfg core.Config, rs []*core.Result) LevelSweepRow {
		points := 0
		for _, g := range cfg.WithDefaults().Grids() {
			points += g.Lv.Points()
		}
		return LevelSweepRow{
			Level:     cfg.Layout.L,
			Grids:     rs[0].GridCount,
			Points:    points,
			L1Error:   rs[0].L1Error,
			TotalTime: rs[0].TotalTime,
		}
	})
}

var levelSweepReport = report[LevelSweepRow]{
	title: []string{"Extension — combination level sweep (n = 9, AC, no failures)"},
	cols: []column[LevelSweepRow]{
		{"level", "level", 6, "d", func(r LevelSweepRow) any { return r.Level }, always},
		{"grids", "grids", 6, "d", func(r LevelSweepRow) any { return r.Grids }, always},
		{"points", "points", 10, "d", func(r LevelSweepRow) any { return r.Points }, always},
		{"l1 error", "l1_error", 12, ".3e", func(r LevelSweepRow) any { return r.L1Error }, always},
		{"time (s)", "time_s", 10, ".1f", func(r LevelSweepRow) any { return r.TotalTime }, always},
	},
}

// NodeFailureRow is one point of the node-failure extension.
type NodeFailureRow struct {
	Technique   core.Technique
	FailedProcs int
	Reconstruct float64
	L1Error     float64
	BaseError   float64
}

// NodeFailure runs the paper's future-work scenario: one whole host dies
// and its processes are re-spawned on a spare node.
func NodeFailure(o Options) ([]NodeFailureRow, error) {
	o = o.WithDefaults()
	var pts []point
	for _, tech := range []core.Technique{core.CheckpointRestart, core.AlternateCombination} {
		base := core.Config{Technique: tech, DiagProcs: 8, Steps: o.Steps, Seed: 151}
		fail := base
		fail.RealFailures, fail.NodeFailure, fail.SpareNodes = true, true, 1
		pts = append(pts,
			point{base, 1, fmt.Sprintf("nodefailure %v baseline", tech)},
			point{fail, 1, fmt.Sprintf("nodefailure %v", tech)})
	}
	res, err := sweep(o, pts, func(_ core.Config, rs []*core.Result) *core.Result { return rs[0] })
	if err != nil {
		return nil, err
	}
	var rows []NodeFailureRow
	for i := 0; i < len(res); i += 2 {
		base, fail := res[i], res[i+1]
		rows = append(rows, NodeFailureRow{
			Technique:   pts[i].cfg.Technique,
			FailedProcs: len(fail.FailedRanks),
			Reconstruct: fail.ReconstructTime,
			L1Error:     fail.L1Error,
			BaseError:   base.L1Error,
		})
	}
	return rows, nil
}

var nodeFailureReport = report[NodeFailureRow]{
	title: []string{"Extension — node failure with spare-node recovery (paper future work)"},
	cols: []column[NodeFailureRow]{
		{"tech", "technique", 4, "s", func(r NodeFailureRow) any { return r.Technique }, always},
		{"failed procs", "failed_procs", 13, "d", func(r NodeFailureRow) any { return r.FailedProcs }, always},
		{"reconstruct (s)", "reconstruct_s", 16, ".1f", func(r NodeFailureRow) any { return r.Reconstruct }, always},
		{"l1 error", "l1_error", 12, ".3e", func(r NodeFailureRow) any { return r.L1Error }, always},
		{"baseline", "base_l1_error", 12, ".3e", func(r NodeFailureRow) any { return r.BaseError }, always},
	},
}

// CheckpointRuleRow compares checkpoint-interval rules for Eq. 2.
type CheckpointRuleRow struct {
	Machine  string
	Rule     string
	Count    int
	Overhead float64 // count * T_I/O
}

// CheckpointRule contrasts the paper's Eq. 2 as printed (C = T/T_IO) with
// Young's optimal interval, on both machine profiles — the analysis behind
// this reproduction's interpretation choice (see internal/checkpoint).
func CheckpointRule(o Options) ([]CheckpointRuleRow, error) {
	o = o.WithDefaults()
	var rows []CheckpointRuleRow
	for _, m := range []*vtime.Machine{vtime.OPL(), vtime.Raijin()} {
		cfg := core.Config{Technique: core.CheckpointRestart, DiagProcs: 8, Steps: o.Steps}.WithDefaults()
		cfg.Machine = m
		stepTime := cfg.EstimateStepTime()
		mtbf := float64(cfg.Steps) * stepTime / 2

		young := checkpoint.NewPlan(cfg.Steps, stepTime, mtbf, m.TIOWrite)
		rows = append(rows, CheckpointRuleRow{
			Machine: m.Name, Rule: "young",
			Count:    young.Count,
			Overhead: float64(young.Count) * m.TIOWrite,
		})

		paperCount := checkpoint.PaperCount(mtbf, m.TIOWrite)
		if paperCount > cfg.Steps {
			paperCount = cfg.Steps
		}
		rows = append(rows, CheckpointRuleRow{
			Machine: m.Name, Rule: "eq2-as-printed",
			Count:    paperCount,
			Overhead: float64(paperCount) * m.TIOWrite,
		})
	}
	return rows, nil
}

var checkpointRuleReport = report[CheckpointRuleRow]{
	title: []string{"Extension — checkpoint interval rules (Eq. 2 as printed vs Young's optimum)"},
	cols: []column[CheckpointRuleRow]{
		{"machine", "machine", 8, "s", func(r CheckpointRuleRow) any { return r.Machine }, always},
		{"rule", "rule", 16, "s", func(r CheckpointRuleRow) any { return r.Rule }, always},
		{"count", "count", 8, "d", func(r CheckpointRuleRow) any { return r.Count }, always},
		{"overhead (s)", "overhead_s", 14, ".2f", func(r CheckpointRuleRow) any { return r.Overhead }, always},
	},
}

// ACLayersRow is one point of the extra-layers ablation: the Alternate
// Combination's error under losses as a function of how many extra coarse
// layers it holds.
type ACLayersRow struct {
	ExtraLayers int
	Procs       int
	L1Error     float64
	BaseError   float64
}

// ACLayers sweeps the number of extra layers held by the Alternate
// Combination (the design space behind the paper's future-work remark on
// "more advanced sparse grid combination techniques"): with no extra layers
// deep losses force coarse truncations; two layers (the paper's choice)
// absorb typical loss cascades.
func ACLayers(o Options) ([]ACLayersRow, error) {
	o = o.WithDefaults()
	var pts []point
	for _, layers := range []int{-1, 1, 2} {
		cfg := core.Config{Technique: core.AlternateCombination, DiagProcs: 8, Steps: o.Steps, ExtraLayers: layers, Seed: 211}
		loss := cfg
		loss.NumFailures = 3
		pts = append(pts,
			point{cfg, 1, fmt.Sprintf("aclayers k=%d baseline", layers)},
			point{loss, o.ErrTrials, fmt.Sprintf("aclayers k=%d", layers)})
	}
	res, err := sweep(o, pts, func(_ core.Config, rs []*core.Result) []*core.Result { return rs })
	if err != nil {
		return nil, err
	}
	var rows []ACLayersRow
	for i := 0; i < len(res); i += 2 {
		base := res[i][0]
		rows = append(rows, ACLayersRow{
			ExtraLayers: max(pts[i].cfg.ExtraLayers, 0),
			Procs:       base.Procs,
			L1Error:     meanL1(res[i+1]),
			BaseError:   base.L1Error,
		})
	}
	return rows, nil
}

var acLayersReport = report[ACLayersRow]{
	title: []string{"Extension — Alternate Combination error vs extra layers (3 lost grids)"},
	cols: []column[ACLayersRow]{
		{"extra layers", "extra_layers", 13, "d", func(r ACLayersRow) any { return r.ExtraLayers }, always},
		{"procs", "procs", 6, "d", func(r ACLayersRow) any { return r.Procs }, always},
		{"l1 error", "l1_error", 12, ".3e", func(r ACLayersRow) any { return r.L1Error }, always},
		{"baseline", "base_l1_error", 12, ".3e", func(r ACLayersRow) any { return r.BaseError }, always},
	},
}
