// Package trace records a timeline of application and protocol events in
// virtual time: solve segments, failure detection, the repair components,
// data recovery and combination. It exists for observability — the ftpde
// CLI, the telemetry server and the flight-recorder dumps render it — and
// for tests that assert the protocol went through the expected phases in
// the expected order.
//
// A Recorder holds two kinds of record per rank: timed spans (BeginSpan)
// and structured failure-handling notes (Note), which render as the JSONL
// journal, as text (Render) and as instants on the Chrome timeline. Every
// read orders them the same way: virtual time, then rank, then the rank's
// program order.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// DefaultFlightDepth is the per-rank retention used when a flight recorder
// is created with a non-positive depth. 64 spans cover several
// solve→checkpoint→repair rounds per rank; a full 8-phase repair emits well
// under 20 spans on the coordinating rank.
const DefaultFlightDepth = 64

// Recorder collects spans and notes from many simulated processes.
// A nil Recorder is valid and drops everything, so call sites need no
// guards.
//
// A Recorder's depth bounds what it keeps per rank: New keeps everything;
// NewFlight keeps the most recent depth closed spans and notes of each
// rank, plus every span still open. The bounded form is the flight
// recorder: its cost stays flat however long the run, so it can be attached
// to every run and dumped only when something goes wrong (abort, watchdog
// fire, chaos invariant violation). Both forms serve the same read API; a
// flight recorder's history is just truncated on the left.
type Recorder struct {
	mu           sync.Mutex
	depth        int // per-rank retention; 0 keeps everything
	logs         map[int]*rankLog
	reserved     []rankLog // rank i's log, for i below its length (Reserve)
	droppedSpans int64
	droppedNotes int64
}

// rankLog is one rank's share of the timeline. Guarded by the Recorder's
// mutex. Its first spans live in the log itself, so a rank that records a
// few costs one allocation; a busier one grows its ring (see ring.push).
type rankLog struct {
	notes ring[Note]
	spans ring[spanRec] // closed spans, in close order
	open  []spanRec     // spans still open, innermost last
	begun int32         // spans begun so far: the next span's seq

	spanBuf [4]spanRec // the spans ring's first slots
	openBuf [2]spanRec // the open stack's first slots
}

// New returns a Recorder that keeps the whole timeline.
func New() *Recorder {
	return &Recorder{logs: make(map[int]*rankLog)}
}

// NewFlight returns a Recorder that keeps the last perRank closed spans and
// notes of each rank (DefaultFlightDepth when perRank <= 0). Dump
// it with ExportChromeTrace / DumpChromeTrace after the fact.
func NewFlight(perRank int) *Recorder {
	if perRank <= 0 {
		perRank = DefaultFlightDepth
	}
	r := New()
	r.depth = perRank
	return r
}

// Dropped returns how many spans and notes have been evicted so far (both 0
// for nil recorders and those that keep everything). A non-zero count in a
// dump means the timeline's left edge is truncated, not empty.
func (r *Recorder) Dropped() (spans, notes int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedSpans, r.droppedNotes
}

// Reserve allocates the logs of ranks 0..ranks-1 in one block, and the
// index for them, ahead of their first records: a recorder that every rank
// of a world writes to then costs a few allocations, not one per rank.
func (r *Recorder) Reserve(ranks int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reserved = make([]rankLog, ranks)
	if len(r.logs) == 0 {
		r.logs = make(map[int]*rankLog, ranks)
	}
}

// log returns rank's log, creating it. Callers hold r.mu.
func (r *Recorder) log(rank int) *rankLog {
	l := r.logs[rank]
	if l == nil {
		if rank >= 0 && rank < len(r.reserved) {
			l = &r.reserved[rank]
		} else {
			l = &rankLog{}
		}
		l.spans.buf, l.open = l.spanBuf[:0], l.openBuf[:0]
		r.logs[rank] = l
	}
	return l
}

// eachRank calls f on every rank's log in ascending rank order, under r.mu.
func (r *Recorder) eachRank(f func(rank int, l *rankLog)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ranks := make([]int, 0, len(r.logs))
	for rk := range r.logs {
		ranks = append(ranks, rk)
	}
	sort.Ints(ranks)
	for _, rk := range ranks {
		f(rk, r.logs[rk])
	}
}

// ring is a FIFO that, given a depth, overwrites its oldest entry once it
// holds depth entries; depth 0 never evicts. It grows fourfold when full
// (to at most depth), so a rank that records three entries pays for at most
// four, not for the whole window, and one that fills a 64-deep window
// reallocates only twice.
type ring[T any] struct {
	buf  []T
	next int // index of the oldest entry once full
	full bool
}

// push appends v, reporting whether an older entry was evicted.
func (g *ring[T]) push(v T, depth int) bool {
	if depth == 0 || len(g.buf) < depth {
		if len(g.buf) == cap(g.buf) {
			n := max(4, 4*cap(g.buf))
			if depth > 0 {
				n = min(n, depth)
			}
			g.buf = append(make([]T, 0, n), g.buf...)
		}
		g.buf = append(g.buf, v)
		return false
	}
	g.buf[g.next] = v
	g.next = (g.next + 1) % len(g.buf)
	g.full = true
	return true
}

// each calls f on the retained entries, oldest first.
func (g *ring[T]) each(f func(*T)) {
	start := 0
	if g.full {
		start = g.next
	}
	for i := range g.buf {
		f(&g.buf[(start+i)%len(g.buf)])
	}
}

// byTime stable-sorts records collected in ascending rank order by virtual
// time, giving the canonical (time, rank, program order) order.
func byTime[T any](out []T, t func(T) float64) []T {
	sort.SliceStable(out, func(i, j int) bool { return t(out[i]) < t(out[j]) })
	return out
}

// Render writes the notes as text, one line per note in canonical order:
// virtual time, rank, epoch, kind, then the note's attributes as key=value.
// Like the canonical journal it carries no wall clock.
func (r *Recorder) Render(w io.Writer) {
	for _, n := range r.Notes() {
		fmt.Fprintf(w, "[%10.3fs] rank %3d  epoch %d  %s", n.VT, n.Rank, n.Epoch, n.Kind)
		for _, a := range n.Attrs {
			fmt.Fprintf(w, " %s", a)
		}
		fmt.Fprintln(w)
	}
}
