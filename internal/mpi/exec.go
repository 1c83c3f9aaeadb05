package mpi

import (
	"runtime"
	"sync"
)

// The bounded continuation executor of the event-driven path. Ranks on this
// path are fibers (event.go), not goroutines: a blocked rank is a registered
// completion on its own procState (procState.cont), and the pool below — a
// fixed worker set over a FIFO ready queue, the same claim-based discipline
// as harness.ParallelOrdered — resumes fibers as wakeup events hand them
// back via notifyLocked. A 512- or 8192-rank world therefore holds
// O(workers) live goroutines mid-collective, not O(ranks).
//
// Lock hierarchy: executor.mu is a strict leaf. ready is called under a
// procState.mu (often with World.state also held, e.g. wakeWaiters from a
// revoke); pop and fiberDone take only executor.mu; a worker drives fibers
// with no executor lock held, so the transport locks the fiber takes nest
// outside nothing new.
type executor struct {
	mu      sync.Mutex
	cond    sync.Cond
	head    *Fiber // FIFO ready queue, linked through Fiber.next
	tail    *Fiber
	active  int // fibers not yet finished or dead; 0 shuts the pool down
	done    bool
	workers int
	pops    uint64 // dispatch count, for the periodic goroutine-peak sample
}

func newExecutor(workers int) *executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ex := &executor{workers: workers}
	ex.cond.L = &ex.mu
	return ex
}

// ready enqueues a runnable fiber. Safe under any transport lock (leaf
// mutex); each fiber is enqueued by exactly one party — its creator at
// startup, or the notifyLocked that cleared procState.cont — so it can
// never be queued twice.
func (ex *executor) ready(f *Fiber) {
	ex.mu.Lock()
	f.next = nil
	if ex.tail != nil {
		ex.tail.next = f
	} else {
		ex.head = f
	}
	ex.tail = f
	ex.cond.Signal()
	ex.mu.Unlock()
}

// pop blocks until a fiber is runnable or the pool is shut down (nil).
func (ex *executor) pop(w *World) *Fiber {
	ex.mu.Lock()
	for ex.head == nil && !ex.done {
		ex.cond.Wait()
	}
	f := ex.head
	if f != nil {
		ex.head = f.next
		if ex.head == nil {
			ex.tail = nil
		}
		f.next = nil
		// Periodic high-water sample: cheap relative to a dispatch, and
		// wall-clock-only (never part of a determinism fingerprint).
		if ex.pops&63 == 0 {
			defer w.noteGoroutines()
		}
		ex.pops++
	}
	ex.mu.Unlock()
	return f
}

// reserve accounts for n fibers that are about to be attached, before any
// of them is enqueued with ready. Attach is therefore a two-step protocol —
// reserve, then ready — so the pool can never observe the all-retired window
// between "the last pre-existing fiber called fiberDone" and "the new fiber
// reached the queue": the reservation keeps active above zero across the
// attach. runEvent reserves the initial rank fibers the same way, and
// spawnLocked/claimLocked reserve their children while the spawning
// collective's own fibers are still accounted active, so done can only flip
// once every fiber that will ever exist has retired.
func (ex *executor) reserve(n int) {
	ex.mu.Lock()
	if ex.done {
		ex.mu.Unlock()
		panic("mpi: executor: reserve after shutdown")
	}
	ex.active += n
	ex.mu.Unlock()
}

// fiberDone retires one fiber (normal finish or death). The last one shuts
// the pool down and releases every worker.
func (ex *executor) fiberDone() {
	ex.mu.Lock()
	ex.active--
	if ex.active == 0 {
		ex.done = true
		ex.cond.Broadcast()
	}
	ex.mu.Unlock()
}

// run drives the pool to completion: workers-1 spawned goroutines plus the
// caller itself (so a one-worker pool, like a one-worker ParallelOrdered
// sweep, runs entirely inline), returning when every fiber has retired.
func (ex *executor) run(w *World) {
	var wg sync.WaitGroup
	for i := 1; i < ex.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex.worker(w)
		}()
	}
	w.noteGoroutines()
	ex.worker(w)
	wg.Wait()
}

func (ex *executor) worker(w *World) {
	for {
		f := ex.pop(w)
		if f == nil {
			return
		}
		w.driveFiber(f)
	}
}

// noteGoroutines folds the current runtime.NumGoroutine() into the run's
// high-water mark and mirrors it to the mpi.goroutines.peak gauge (event
// worlds only — the value is wall-clock noise, so it never enters golden
// outputs or fingerprints; see metrics.go).
func (w *World) noteGoroutines() {
	n := int64(runtime.NumGoroutine())
	for {
		cur := w.goroPeak.Load()
		if n <= cur {
			return
		}
		if w.goroPeak.CompareAndSwap(cur, n) {
			w.wm.setGoroutinesPeak(n)
			return
		}
	}
}

// noteParked adjusts the count of ranks currently parked as continuations
// and mirrors it to the mpi.ranks.parked gauge.
func (w *World) noteParked(delta int64) {
	n := w.parkedNow.Add(delta)
	w.wm.setRanksParked(n)
}
