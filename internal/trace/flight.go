package trace

import "sort"

// Flight mode turns a Recorder into a bounded post-mortem buffer: instead of
// retaining every span and event for the lifetime of a run (unbounded on a
// 4096-rank campaign), it keeps the most recent N closed spans and N events
// *per rank* in fixed-capacity ring buffers, plus whatever spans are still
// open. Recording cost stays flat — one ring slot write under the same mutex
// the full recorder already takes — so a flight recorder can be attached to
// every run unconditionally and dumped only when something goes wrong
// (abort, watchdog fire, chaos invariant violation). Spans(), Events() and
// therefore ExportChromeTrace work unchanged on a flight recorder; they just
// see a truncated history.

// DefaultFlightDepth is the per-rank span/event retention used when a flight
// recorder is created with a non-positive depth. 64 spans cover several
// solve→checkpoint→repair rounds per rank; a full 8-phase repair emits well
// under 20 spans on the coordinating rank.
const DefaultFlightDepth = 64

// ring is a FIFO of at most depth entries that overwrites its oldest entry
// when full. It grows by append up to depth, so a rank that records three
// spans pays for three, not for the whole retention window.
type ring[T any] struct {
	buf   []T
	depth int
	next  int // index of the oldest entry once full
	full  bool
}

func newRing[T any](depth int) *ring[T] {
	return &ring[T]{depth: depth}
}

// push appends v, reporting whether an older entry was evicted.
func (g *ring[T]) push(v T) bool {
	if len(g.buf) < g.depth {
		g.buf = append(g.buf, v)
		return false
	}
	g.buf[g.next] = v
	g.next = (g.next + 1) % len(g.buf)
	g.full = true
	return true
}

// items returns the retained entries oldest-first.
func (g *ring[T]) items() []T {
	if !g.full {
		return append([]T(nil), g.buf...)
	}
	out := make([]T, 0, len(g.buf))
	out = append(out, g.buf[g.next:]...)
	out = append(out, g.buf[:g.next]...)
	return out
}

// flightState holds the ring buffers of a flight-mode Recorder. All fields
// are guarded by the Recorder's mutex.
type flightState struct {
	depth         int
	spans         map[int]*ring[Span]  // rank -> closed spans, oldest evicted
	events        map[int]*ring[Event] // rank -> events, oldest evicted
	open          map[int][]*Span      // rank -> stack of open spans
	droppedSpans  int64
	droppedEvents int64
}

// NewFlight returns a flight-mode Recorder retaining the last perRank closed
// spans and events on each rank's timeline (DefaultFlightDepth when
// perRank <= 0). It never renders events eagerly; dump it with
// ExportChromeTrace / DumpChromeTrace after the fact.
func NewFlight(perRank int) *Recorder {
	if perRank <= 0 {
		perRank = DefaultFlightDepth
	}
	return &Recorder{fl: &flightState{
		depth:  perRank,
		spans:  make(map[int]*ring[Span]),
		events: make(map[int]*ring[Event]),
		open:   make(map[int][]*Span),
	}}
}

// FlightDepth returns the per-rank retention of a flight recorder, or 0 for
// a nil or full (unbounded) recorder.
func (r *Recorder) FlightDepth() int {
	if r == nil || r.fl == nil {
		return 0
	}
	return r.fl.depth
}

// Dropped returns how many spans and events have been evicted from the rings
// so far (both 0 for nil or full recorders). A non-zero count in a dump
// means the timeline's left edge is truncated, not empty.
func (r *Recorder) Dropped() (spans, events int64) {
	if r == nil || r.fl == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fl.droppedSpans, r.fl.droppedEvents
}

// The flight-path halves of Emit/BeginSpan/End/Spans/Events. Callers hold
// r.mu.

func (fl *flightState) emit(e Event) {
	g := fl.events[e.Rank]
	if g == nil {
		g = newRing[Event](fl.depth)
		fl.events[e.Rank] = g
	}
	if g.push(e) {
		fl.droppedEvents++
	}
}

func (fl *flightState) begin(s Span) *Span {
	s.Depth = len(fl.open[s.Rank])
	sp := &s
	fl.open[s.Rank] = append(fl.open[s.Rank], sp)
	return sp
}

func (fl *flightState) end(sp *Span) {
	stack := fl.open[sp.Rank]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == sp {
			fl.open[sp.Rank] = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	g := fl.spans[sp.Rank]
	if g == nil {
		g = newRing[Span](fl.depth)
		fl.spans[sp.Rank] = g
	}
	if g.push(*sp) {
		fl.droppedSpans++
	}
}

// allSpans collects retained closed spans plus still-open spans, visiting
// ranks in ascending order so the (stable) sort downstream sees a
// deterministic input order.
func (fl *flightState) allSpans() []Span {
	var out []Span
	for _, rk := range sortedRanks(len(fl.spans)+len(fl.open), fl.spans, fl.open) {
		if g := fl.spans[rk]; g != nil {
			out = append(out, g.items()...)
		}
		for _, sp := range fl.open[rk] {
			out = append(out, *sp)
		}
	}
	return out
}

func (fl *flightState) allEvents() []Event {
	var out []Event
	for _, rk := range sortedRanks(len(fl.events), fl.events, map[int][]*Span(nil)) {
		if g := fl.events[rk]; g != nil {
			out = append(out, g.items()...)
		}
	}
	return out
}

// sortedRanks returns the union of the two maps' keys in ascending order.
func sortedRanks[A, B any](sizeHint int, a map[int]A, b map[int][]B) []int {
	seen := make(map[int]bool, sizeHint)
	out := make([]int, 0, sizeHint)
	for rk := range a {
		if !seen[rk] {
			seen[rk] = true
			out = append(out, rk)
		}
	}
	for rk := range b {
		if !seen[rk] {
			seen[rk] = true
			out = append(out, rk)
		}
	}
	sort.Ints(out)
	return out
}
