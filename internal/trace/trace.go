// Package trace records a timeline of application and protocol events in
// virtual time: solve segments, failure detection, the repair components,
// data recovery and combination. It exists for observability — the
// recovery example and the ftpde CLI render it — and for tests that assert
// the protocol went through the expected phases in the expected order.
//
// A Recorder holds three kinds of record per rank: point events (Emit),
// timed spans (BeginSpan), and structured failure-handling notes (Note)
// that render as the JSONL journal. Every read orders them the same way:
// virtual time, then rank, then the rank's program order.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Event is one timeline entry.
type Event struct {
	// T is the virtual time of the event in seconds.
	T float64
	// Rank is the communicator rank that emitted it (-1 = whole job).
	Rank int
	// Phase is a stable machine-readable label (e.g. "detect", "shrink",
	// "spawn", "recover-data", "checkpoint", "combine").
	Phase string
	// Detail is free-form human-readable context.
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("[%10.3fs] rank %3d  %-14s %s", e.T, e.Rank, e.Phase, e.Detail)
}

// DefaultFlightDepth is the per-rank retention used when a flight recorder
// is created with a non-positive depth. 64 spans cover several
// solve→checkpoint→repair rounds per rank; a full 8-phase repair emits well
// under 20 spans on the coordinating rank.
const DefaultFlightDepth = 64

// Recorder collects events, spans and notes from many simulated processes.
// A nil Recorder is valid and drops everything, so call sites need no
// guards.
//
// A Recorder's depth bounds what it keeps per rank: New keeps everything;
// NewFlight keeps the most recent depth closed spans, events and notes of
// each rank, plus every span still open. The bounded form is the flight
// recorder: its cost stays flat however long the run, so it can be attached
// to every run and dumped only when something goes wrong (abort, watchdog
// fire, chaos invariant violation). Both forms serve the same read API; a
// flight recorder's history is just truncated on the left.
type Recorder struct {
	mu            sync.Mutex
	depth         int // per-rank retention; 0 keeps everything
	logs          map[int]*rankLog
	droppedSpans  int64
	droppedEvents int64
}

// rankLog is one rank's share of the timeline. Guarded by the Recorder's
// mutex.
type rankLog struct {
	events ring[Event]
	notes  ring[Note]
	spans  ring[Span]    // closed spans, in close order
	open   []*SpanHandle // spans still open, innermost last
	begun  int32         // spans begun so far: the next span's seq
}

// New returns a Recorder that keeps the whole timeline.
func New() *Recorder {
	return &Recorder{logs: make(map[int]*rankLog)}
}

// NewFlight returns a Recorder that keeps the last perRank closed spans,
// events and notes of each rank (DefaultFlightDepth when perRank <= 0). Dump
// it with ExportChromeTrace / DumpChromeTrace after the fact.
func NewFlight(perRank int) *Recorder {
	if perRank <= 0 {
		perRank = DefaultFlightDepth
	}
	r := New()
	r.depth = perRank
	return r
}

// Dropped returns how many spans and events have been evicted so far (both
// 0 for nil recorders and those that keep everything). A non-zero count in
// a dump means the timeline's left edge is truncated, not empty.
func (r *Recorder) Dropped() (spans, events int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedSpans, r.droppedEvents
}

// log returns rank's log, creating it. Callers hold r.mu.
func (r *Recorder) log(rank int) *rankLog {
	l := r.logs[rank]
	if l == nil {
		l = &rankLog{}
		r.logs[rank] = l
	}
	return l
}

// eachRank calls f on every rank's log in ascending rank order, under r.mu.
func (r *Recorder) eachRank(f func(*rankLog)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ranks := make([]int, 0, len(r.logs))
	for rk := range r.logs {
		ranks = append(ranks, rk)
	}
	sort.Ints(ranks)
	for _, rk := range ranks {
		f(r.logs[rk])
	}
}

// ring is a FIFO that, given a depth, overwrites its oldest entry once it
// holds depth entries; depth 0 never evicts. It grows by append, so a rank
// that records three entries pays for three, not for the whole window.
type ring[T any] struct {
	buf  []T
	next int // index of the oldest entry once full
	full bool
}

// push appends v, reporting whether an older entry was evicted.
func (g *ring[T]) push(v T, depth int) bool {
	if depth == 0 || len(g.buf) < depth {
		g.buf = append(g.buf, v)
		return false
	}
	g.buf[g.next] = v
	g.next = (g.next + 1) % len(g.buf)
	g.full = true
	return true
}

// appendTo appends the retained entries to out, oldest first.
func (g *ring[T]) appendTo(out []T) []T {
	if !g.full {
		return append(out, g.buf...)
	}
	out = append(out, g.buf[g.next:]...)
	return append(out, g.buf[:g.next]...)
}

// byTime stable-sorts records collected in ascending rank order by virtual
// time, giving the canonical (time, rank, program order) order.
func byTime[T any](out []T, t func(T) float64) []T {
	sort.SliceStable(out, func(i, j int) bool { return t(out[i]) < t(out[j]) })
	return out
}

// Emit records one event.
func (r *Recorder) Emit(t float64, rank int, phase, format string, args ...any) {
	if r == nil {
		return
	}
	e := Event{T: t, Rank: rank, Phase: phase, Detail: fmt.Sprintf(format, args...)}
	r.mu.Lock()
	if r.log(rank).events.push(e, r.depth) {
		r.droppedEvents++
	}
	r.mu.Unlock()
}

// Events returns a copy of the recorded events sorted by virtual time
// (ties by rank, then emission order).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	r.eachRank(func(l *rankLog) { out = l.events.appendTo(out) })
	return byTime(out, func(e Event) float64 { return e.T })
}

// Phases returns the distinct phases in first-occurrence (virtual time)
// order.
func (r *Recorder) Phases() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range r.Events() {
		if !seen[e.Phase] {
			seen[e.Phase] = true
			out = append(out, e.Phase)
		}
	}
	return out
}

// Count returns how many events carry the given phase.
func (r *Recorder) Count(phase string) int {
	n := 0
	for _, e := range r.Events() {
		if e.Phase == phase {
			n++
		}
	}
	return n
}

// Render writes the sorted timeline.
func (r *Recorder) Render(w io.Writer) {
	for _, e := range r.Events() {
		fmt.Fprintln(w, e)
	}
}
