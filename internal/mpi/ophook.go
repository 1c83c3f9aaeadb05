package mpi

// This file implements per-process operation hooks: a lightweight observer
// invoked at the entry of every MPI operation the process starts, in the
// process's program order. The chaos campaign uses it to kill a process at
// its N-th operation — inside a barrier's dissemination rounds, a solver's
// halo exchange, a gather, or the recovery protocol's shrink/spawn/merge —
// rather than only at the solver-step granularity of a faultgen plan.
//
// The hook runs before the operation touches any transport state and with no
// transport lock held, so a hook that calls Proc.Kill unwinds exactly like a
// kill between operations: the runtime marks the process failed at its
// current virtual time and wakes every blocked peer. Because invocations
// follow the process's own program order, a hook that counts operations and
// kills at a fixed count is deterministic regardless of goroutine scheduling.

// Operation names passed to an OpHook. Collectives decompose into their
// constituent point-to-point operations (OpSend/OpRecv), so a hook observes
// every dissemination round of a barrier or reduction individually; the
// rendezvous-style management and ULFM operations report under their own
// names.
const (
	OpSend   = "send"
	OpRecv   = "recv"
	OpShrink = "shrink"
	OpAgree  = "agree"
	OpSpawn  = "spawn"
	OpSplit  = "split"
	OpMerge  = "merge"
)

// OpHook observes one MPI operation about to start on the calling process.
// It may call Proc.Kill to abort the process at exactly this operation.
type OpHook func(op string)

// SetOpHook installs (or, with nil, removes) the process's operation hook.
// The hook is owner-only state: it must be set by the process's own
// goroutine, like any other call on Proc.
func (p *Proc) SetOpHook(h OpHook) { p.st.opHook = h }

// hookOp invokes the process's hook, if any, for an operation about to
// start. Once the job has been aborted it unwinds the process instead, like
// Kill: the abort has already failed it. Callers must hold no transport lock.
func (st *procState) hookOp(op string) {
	if st.w.aborted.Load() {
		panic(killSignal{})
	}
	if st.opHook != nil {
		st.opHook(op)
	}
}
