package harness

import (
	"fmt"
	"io"

	"ftsg/internal/core"
	"ftsg/internal/recovery"
	"ftsg/internal/vtime"
)

// Fig8Row is one point of the paper's Fig. 8: wall time for creating the
// failed-process list (8a) and reconstructing the faulty communicator (8b)
// at a given core count and failure count.
type Fig8Row struct {
	Cores       int
	Failures    int
	ListTime    float64 // Fig. 8a series
	Reconstruct float64 // Fig. 8b series
	// Telemetry columns (Options.Telemetry; mean per trial, zero when off).
	Messages int64
	Bytes    int64
}

// Fig8 reproduces Fig. 8: real process failures injected before the
// combination, on the OPL profile, sweeping cores with one and two
// failures. All (point, trial) runs execute concurrently on the experiment
// scheduler; rows come back in sweep order.
func Fig8(o Options) ([]Fig8Row, error) {
	o = o.WithDefaults()
	var pts []point
	for _, failures := range []int{1, 2} {
		for _, dp := range o.DiagProcsList {
			pts = append(pts, point{core.Config{
				Technique:    core.ResamplingCopying,
				DiagProcs:    dp,
				Steps:        o.Steps,
				NumFailures:  failures,
				RealFailures: true,
				Seed:         41,
				Telemetry:    o.Telemetry,
			}, o.Trials, fmt.Sprintf("fig8 cores=%d f=%d", coresFor(dp), failures)})
		}
	}
	return sweep(o, pts, func(cfg core.Config, rs []*core.Result) Fig8Row {
		return Fig8Row{
			Cores:       coresFor(cfg.DiagProcs),
			Failures:    cfg.NumFailures,
			ListTime:    avg(rs, func(r *core.Result) float64 { return r.ListTime }),
			Reconstruct: avg(rs, func(r *core.Result) float64 { return r.ReconstructTime }),
			Messages:    avg(rs, func(r *core.Result) int64 { return r.MPIMessages }),
			Bytes:       avg(rs, func(r *core.Result) int64 { return r.MPIBytes }),
		}
	})
}

// fig8Report prints both panels; every real run moves a message, so a row
// with none was collected with telemetry off.
var fig8Report = report[Fig8Row]{
	title: []string{
		"Fig. 8a — time for creating a list of failed processes (s)",
		"Fig. 8b — time for reconstructing the faulty communicator (s)",
	},
	cols: []column[Fig8Row]{
		{"cores", "cores", 8, "d", func(r Fig8Row) any { return r.Cores }, always},
		{"failures", "failures", 9, "d", func(r Fig8Row) any { return r.Failures }, always},
		{"list (8a)", "list_s", 12, ".3f", func(r Fig8Row) any { return r.ListTime }, always},
		{"reconstruct (8b)", "reconstruct_s", 14, ".2f", func(r Fig8Row) any { return r.Reconstruct }, always},
		{"messages", "messages", 12, "d", func(r Fig8Row) any { return r.Messages }, withTelemetry},
		{"bytes", "bytes", 14, "d", func(r Fig8Row) any { return r.Bytes }, withTelemetry},
	},
	telemetry: func(r Fig8Row) bool { return r.Messages > 0 },
}

// Table1Row is one row of the paper's Table I: component times of the beta
// fault-tolerant Open MPI when two processes have failed.
type Table1Row struct {
	Cores  int
	Spawn  float64
	Shrink float64
	Agree  float64
	Merge  float64
}

// Table1 reproduces Table I by running real double failures and extracting
// the component times of the repair.
func Table1(o Options) ([]Table1Row, error) {
	o = o.WithDefaults()
	var pts []point
	for _, dp := range o.DiagProcsList {
		pts = append(pts, point{core.Config{
			Technique:    core.ResamplingCopying,
			DiagProcs:    dp,
			Steps:        o.Steps,
			NumFailures:  2,
			RealFailures: true,
			Seed:         61,
		}, o.Trials, fmt.Sprintf("table1 cores=%d", coresFor(dp))})
	}
	return sweep(o, pts, func(cfg core.Config, rs []*core.Result) Table1Row {
		return Table1Row{
			Cores:  coresFor(cfg.DiagProcs),
			Spawn:  avg(rs, func(r *core.Result) float64 { return r.SpawnTime }),
			Shrink: avg(rs, func(r *core.Result) float64 { return r.ShrinkTime }),
			Agree:  avg(rs, func(r *core.Result) float64 { return r.AgreeTime }),
			Merge:  avg(rs, func(r *core.Result) float64 { return r.MergeTime }),
		}
	})
}

// table1Report prints Table I in the paper's layout.
var table1Report = report[Table1Row]{
	title: []string{"Table I — beta Open MPI component wall time (s), two processes failed"},
	cols: []column[Table1Row]{
		{"# cores", "cores", 8, "d", func(r Table1Row) any { return r.Cores }, always},
		{"Comm_spawn_multiple", "spawn_s", 20, ".2f", func(r Table1Row) any { return r.Spawn }, always},
		{"Comm_shrink", "shrink_s", 12, ".2f", func(r Table1Row) any { return r.Shrink }, always},
		{"Comm_agree", "agree_s", 12, ".2f", func(r Table1Row) any { return r.Agree }, always},
		{"Intercomm_merge", "merge_s", 16, ".2f", func(r Table1Row) any { return r.Merge }, always},
	},
}

// Fig9Row is one point of Figs. 9a/9b: per-technique data-recovery overhead
// at a given number of lost grids, plain (9a) and process-time normalized
// (9b), on a given machine profile. Mode is always spawn: the experiment
// simulates grid losses without running the repair protocol, so no other
// mode can apply — the column exists so Fig. 9 and Fig. 11 CSVs share a
// schema.
type Fig9Row struct {
	Machine     string
	Technique   core.Technique
	Mode        recovery.Mode
	LostGrids   int
	Overhead    float64 // Fig. 9a
	ProcessTime float64 // Fig. 9b (normalized to CR's process count)
}

// Fig9 reproduces Figs. 9a and 9b: simulated failures of 1-5 grids (no
// communicator reconstruction), per-grid processes 8/4/2/1, on OPL; the CR
// series is also run on Raijin, whose ultra-low disk write latency flips
// the ordering (the paper's crossover observation).
func Fig9(o Options) ([]Fig9Row, error) {
	o = o.WithDefaults()
	maxLost := 5
	if o.Quick {
		maxLost = 3
	}
	variants := []struct {
		machine *vtime.Machine
		tech    core.Technique
	}{
		{vtime.OPL(), core.CheckpointRestart},
		{vtime.OPL(), core.ResamplingCopying},
		{vtime.OPL(), core.AlternateCombination},
		{vtime.Raijin(), core.CheckpointRestart},
	}
	// Pc: the process count of the CR configuration at the same scale,
	// the normalization of the paper's process-time formulas.
	pc := core.Config{Technique: core.CheckpointRestart, DiagProcs: 8}.WithDefaults().NumProcs()

	var pts []point
	for _, v := range variants {
		for lost := 1; lost <= maxLost; lost++ {
			cfg := core.Config{Technique: v.tech, Machine: v.machine, DiagProcs: 8, Steps: o.Steps, NumFailures: lost, Seed: 71}
			pts = append(pts, point{cfg, o.Trials, fmt.Sprintf("fig9 %s/%v lost=%d", v.machine.Name, v.tech, lost)})
		}
	}
	return sweep(o, pts, func(cfg core.Config, rs []*core.Result) Fig9Row {
		return Fig9Row{
			Machine:     cfg.Machine.Name,
			Technique:   cfg.Technique,
			Mode:        recovery.ModeSpawn,
			LostGrids:   cfg.NumFailures,
			Overhead:    avg(rs, (*core.Result).RecoveryOverhead),
			ProcessTime: avg(rs, func(r *core.Result) float64 { return r.ProcessTimeOverhead(pc) }),
		}
	})
}

// fig9Report prints both panels.
var fig9Report = report[Fig9Row]{
	title: []string{
		"Fig. 9a — failed grid data recovery overhead (s)",
		"Fig. 9b — process-time data recovery overhead (s, normalized to CR's process count)",
	},
	cols: []column[Fig9Row]{
		{"machine", "machine", 8, "s", func(r Fig9Row) any { return r.Machine }, always},
		{"tech", "technique", 4, "s", func(r Fig9Row) any { return r.Technique }, always},
		{"mode", "mode", 6, "s", func(r Fig9Row) any { return r.Mode }, always},
		{"lost grids", "lost_grids", 11, "d", func(r Fig9Row) any { return r.LostGrids }, always},
		{"overhead (9a)", "overhead_s", 14, ".4g", func(r Fig9Row) any { return r.Overhead }, always},
		{"process-time (9b)", "process_time_s", 18, ".4g", func(r Fig9Row) any { return r.ProcessTime }, always},
	},
}

// Fig10Row is one point of Fig. 10: average l1 approximation error of the
// combined solution vs the number of lost grids.
type Fig10Row struct {
	Technique core.Technique
	LostGrids int
	L1Error   float64
}

// Fig10 reproduces Fig. 10: simulated failures of 0-5 grids, error averaged
// over ErrTrials random loss draws (the paper averages 20), on OPL.
func Fig10(o Options) ([]Fig10Row, error) {
	o = o.WithDefaults()
	maxLost := 5
	if o.Quick {
		maxLost = 3
	}
	var pts []point
	for _, tech := range []core.Technique{core.CheckpointRestart, core.ResamplingCopying, core.AlternateCombination} {
		for lost := 0; lost <= maxLost; lost++ {
			trials := o.ErrTrials
			if lost == 0 {
				trials = 1 // deterministic baseline
			}
			cfg := core.Config{Technique: tech, DiagProcs: 8, Steps: o.Steps, NumFailures: lost, Seed: 91}
			pts = append(pts, point{cfg, trials, fmt.Sprintf("fig10 %v lost=%d", tech, lost)})
		}
	}
	return sweep(o, pts, func(cfg core.Config, rs []*core.Result) Fig10Row {
		return Fig10Row{Technique: cfg.Technique, LostGrids: cfg.NumFailures, L1Error: meanL1(rs)}
	})
}

// fig10Report prints the error series.
var fig10Report = report[Fig10Row]{
	title: []string{"Fig. 10 — average l1 approximation error of the combined solution"},
	cols: []column[Fig10Row]{
		{"tech", "technique", 4, "s", func(r Fig10Row) any { return r.Technique }, always},
		{"lost grids", "lost_grids", 11, "d", func(r Fig10Row) any { return r.LostGrids }, always},
		{"l1 error", "l1_error", 12, ".4e", func(r Fig10Row) any { return r.L1Error }, always},
	},
}

// Fig11Row is one point of Figs. 11a/11b: overall execution time and
// parallel efficiency at a core count, for a technique, recovery mode and
// failure count.
type Fig11Row struct {
	Technique  core.Technique
	Mode       recovery.Mode
	Failures   int
	Cores      int // total processes of THIS technique's grid set
	SweepCores int // the shared x-axis (RC-set core count at this scale)
	Time       float64
	Efficiency float64
	// Telemetry columns (Options.Telemetry; mean per trial, zero when
	// off): application solve time, repair time, MPI traffic, and total
	// checkpoint I/O volume.
	SolveTime  float64
	RepairTime float64
	Messages   int64
	Bytes      int64
	CkptBytes  int64
}

// Fig11 reproduces Figs. 11a and 11b: overall parallel performance across
// the core-count sweep for the three techniques with zero, one and two real
// failures, on OPL, under each recovery mode of Options.RecoveryModes
// (default: spawn, the paper's protocol). Efficiency is relative to each
// series' smallest configuration: eff(p) = T(p0)·p0 / (T(p)·p).
func Fig11(o Options) ([]Fig11Row, error) {
	o = o.WithDefaults()
	failuresList := []int{0, 1, 2}
	if o.Quick {
		failuresList = []int{0, 2}
	}
	var pts []point
	for _, mode := range o.RecoveryModes {
		for _, tech := range []core.Technique{core.CheckpointRestart, core.ResamplingCopying, core.AlternateCombination} {
			for _, failures := range failuresList {
				for _, dp := range o.DiagProcsList {
					pts = append(pts, point{core.Config{
						Technique:    tech,
						RecoveryMode: mode,
						DiagProcs:    dp,
						Steps:        o.Steps,
						NumFailures:  failures,
						RealFailures: failures > 0,
						Seed:         111,
						Telemetry:    o.Telemetry,
					}, o.Trials, fmt.Sprintf("fig11 %v/%v f=%d dp=%d", tech, mode, failures, dp)})
				}
			}
		}
	}
	rows, err := sweep(o, pts, func(cfg core.Config, rs []*core.Result) Fig11Row {
		return Fig11Row{
			Technique:  cfg.Technique,
			Mode:       cfg.RecoveryMode,
			Failures:   cfg.NumFailures,
			Cores:      cfg.WithDefaults().NumProcs(),
			SweepCores: coresFor(cfg.DiagProcs),
			Time:       avg(rs, func(r *core.Result) float64 { return r.TotalTime }),
			SolveTime:  avg(rs, (*core.Result).AppTime),
			RepairTime: avg(rs, func(r *core.Result) float64 { return r.ListTime + r.ReconstructTime }),
			Messages:   avg(rs, func(r *core.Result) int64 { return r.MPIMessages }),
			Bytes:      avg(rs, func(r *core.Result) int64 { return r.MPIBytes }),
			CkptBytes:  avg(rs, func(r *core.Result) int64 { return r.CheckpointBytesOut + r.CheckpointBytesIn }),
		}
	})
	if err != nil {
		return nil, err
	}
	// Each (mode, technique, failures) series occupies len(DiagProcsList)
	// consecutive rows; efficiency is relative to its first point.
	stride := len(o.DiagProcsList)
	for i := range rows {
		base, r := rows[i-i%stride], &rows[i]
		r.Efficiency = base.Time * float64(base.Cores) / (r.Time * float64(r.Cores))
	}
	return rows, nil
}

// fig11Report prints both panels; sweep_cores is in the CSV only.
var fig11Report = report[Fig11Row]{
	title: []string{
		"Fig. 11a — overall execution time (s)",
		"Fig. 11b — overall parallel efficiency (relative to each series' smallest run)",
	},
	cols: []column[Fig11Row]{
		{"tech", "technique", 4, "s", func(r Fig11Row) any { return r.Technique }, always},
		{"mode", "mode", 10, "s", func(r Fig11Row) any { return r.Mode }, always},
		{"failures", "failures", 9, "d", func(r Fig11Row) any { return r.Failures }, always},
		{"cores", "cores", 7, "d", func(r Fig11Row) any { return r.Cores }, always},
		{"", "sweep_cores", 0, "d", func(r Fig11Row) any { return r.SweepCores }, csvOnly},
		{"time (11a)", "time_s", 12, ".1f", func(r Fig11Row) any { return r.Time }, always},
		{"eff (11b)", "efficiency", 12, ".2f", func(r Fig11Row) any { return r.Efficiency }, always},
		{"solve", "solve_s", 10, ".1f", func(r Fig11Row) any { return r.SolveTime }, withTelemetry},
		{"repair", "repair_s", 10, ".2f", func(r Fig11Row) any { return r.RepairTime }, withTelemetry},
		{"messages", "messages", 12, "d", func(r Fig11Row) any { return r.Messages }, withTelemetry},
		{"bytes", "bytes", 14, "d", func(r Fig11Row) any { return r.Bytes }, withTelemetry},
		{"ckpt bytes", "ckpt_bytes", 12, "d", func(r Fig11Row) any { return r.CkptBytes }, withTelemetry},
	},
	telemetry: func(r Fig11Row) bool { return r.Messages > 0 },
}

// CSVFig8, CSVTable1, CSVFig9, CSVFig10 and CSVFig11 write a figure's rows
// as CSV, the records -format csv prints.
func CSVFig8(w io.Writer, rows []Fig8Row) error     { return fig8Report.write(w, rows, true) }
func CSVTable1(w io.Writer, rows []Table1Row) error { return table1Report.write(w, rows, true) }
func CSVFig9(w io.Writer, rows []Fig9Row) error     { return fig9Report.write(w, rows, true) }
func CSVFig10(w io.Writer, rows []Fig10Row) error   { return fig10Report.write(w, rows, true) }
func CSVFig11(w io.Writer, rows []Fig11Row) error   { return fig11Report.write(w, rows, true) }
