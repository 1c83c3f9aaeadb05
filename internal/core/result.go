package core

import (
	"fmt"
	"strings"

	"ftsg/internal/checkpoint"
)

// Result summarises one run of the fault-tolerant application. All times
// are virtual seconds; component times are maxima over the process ranks.
type Result struct {
	Technique Technique
	Machine   string
	// Procs is the communicator size (preserved across failures).
	Procs int
	// GridCount is the number of sub-grids (including redundancy).
	GridCount int
	Steps     int

	// TotalTime is the end-to-end virtual run time (max over processes).
	TotalTime float64
	// ListTime is the failure-information time (Fig. 8a): detection agree
	// + barrier + group algebra at the failure event.
	ListTime float64
	// ReconstructTime is the communicator reconstruction time (Fig. 8b).
	ReconstructTime float64
	// Component times within reconstruction (Table I).
	ShrinkTime float64
	SpawnTime  float64
	MergeTime  float64
	AgreeTime  float64
	SplitTime  float64
	// DetectOverhead is the failure-free detection cost (CR tests for
	// failures before every checkpoint write).
	DetectOverhead float64
	// DataRecoveryTime is the data-recovery window (Fig. 9a): checkpoint
	// read + recomputation for CR, copy/resample transfers for RC,
	// coefficient computation for AC.
	DataRecoveryTime float64
	// CheckpointWrites counts completed checkpoint writes; the plan
	// records the interval used.
	CheckpointWrites int
	CheckpointPlan   checkpoint.Plan
	// CombineTime is the gather/combine phase duration at rank 0.
	CombineTime float64

	// L1Error is the mean absolute error of the combined solution against
	// the analytic solution (Fig. 10).
	L1Error float64

	// FailedRanks lists every original rank that failed during the run,
	// ascending — the union over all failure events, in every recovery mode —
	// and LostGrids the sub-grids they belonged to (under simulated losses,
	// the grids marked lost).
	LostGrids   []int
	FailedRanks []int
	Spawned     int
	// Deaths counts the processes the runtime saw die (mpi.Report.Failed).
	// Where nothing is ever replaced (shrink, no-repair) it must equal
	// len(FailedRanks): a death no detection round reported would leave a
	// dead member in the final communicator.
	Deaths int

	// Mode is the recovery mode the run used (spawn unless configured).
	Mode string
	// FinalProcs is the communicator size at the end of the run: equal to
	// Procs under spawn and substitute (while spares last), smaller under
	// shrink/norepair when failures struck.
	FinalProcs int
	// SparesUsed counts pre-allocated spare processes consumed by
	// substitute repairs (including spares orphaned by abandoned rounds).
	SparesUsed int
	// RepairFallbacks counts substitute repair rounds that found the spare
	// pool exhausted and degraded to shrink-only.
	RepairFallbacks int
	// Survivors lists the original ranks present in the final communicator,
	// in communicator order. Spawn replaces every rank in place — the list
	// would be the identity — and leaves it nil.
	Survivors []int
	// AbandonedGrids lists sub-grids abandoned by shrink/norepair
	// recovery (no data, coefficients redistributed), ascending.
	AbandonedGrids []int

	// Telemetry (populated only when Config.Metrics or Config.Telemetry is
	// set; zero otherwise): total MPI traffic of the run and checkpoint
	// I/O volume.
	MPIMessages        int64
	MPIBytes           int64
	CheckpointBytesOut int64
	CheckpointBytesIn  int64

	// TIOWrite is the per-checkpoint disk write latency of the machine the
	// run used (for overhead accounting).
	TIOWrite float64
}

// AppTime returns the run time excluding communicator reconstruction — the
// quantity the paper's process-time overhead formulas call T_app.
func (r *Result) AppTime() float64 {
	t := r.TotalTime - r.ReconstructTime - r.ListTime
	if t < 0 {
		return 0
	}
	return t
}

// RecoveryOverhead returns the paper's Fig. 9a quantity for this run: for
// CR the total checkpoint writes plus read/recompute, for RC and AC the
// data-recovery window.
func (r *Result) RecoveryOverhead() float64 {
	if r.Technique == CheckpointRestart {
		return float64(r.CheckpointWrites)*r.TIOWrite + r.DataRecoveryTime
	}
	return r.DataRecoveryTime
}

// ProcessTimeOverhead implements the paper's normalized process-time
// overheads (Section III-B): CR is charged its checkpoint I/O and
// recomputation; RC and AC are additionally charged for their extra
// processes relative to CR's process count pc:
//
//	T'rec,c = C*T_IO + Trec,c
//	T'rec,r = (Trec,r*Pr + Tapp,r*(Pr-Pc)) / Pc
//	T'rec,a = (Trec,a*Pa + Tapp,a*(Pa-Pc)) / Pc
func (r *Result) ProcessTimeOverhead(pc int) float64 {
	switch r.Technique {
	case CheckpointRestart:
		return r.RecoveryOverhead()
	default:
		p := float64(r.Procs)
		return (r.DataRecoveryTime*p + r.AppTime()*(p-float64(pc))) / float64(pc)
	}
}

// String renders a compact one-line summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: procs=%d total=%.2fs err=%.3e", r.Technique, r.Machine, r.Procs, r.TotalTime, r.L1Error)
	if len(r.FailedRanks) > 0 {
		fmt.Fprintf(&b, " failed=%v list=%.2fs reconstruct=%.2fs", r.FailedRanks, r.ListTime, r.ReconstructTime)
	}
	if len(r.LostGrids) > 0 {
		fmt.Fprintf(&b, " lostGrids=%v recovery=%.3fs", r.LostGrids, r.DataRecoveryTime)
	}
	return b.String()
}
