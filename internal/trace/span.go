package trace

import (
	"fmt"
	"sort"
)

// Span is a timed interval on one rank's timeline: a solve segment, a
// checkpoint write, or one component of the repair protocol. Spans nest —
// Depth is the number of spans already open on the same rank when this one
// began — so exporters can render a flame-graph-style track per rank.
type Span struct {
	Rank   int
	Phase  string
	Detail string
	Start  float64
	End    float64 // valid only when Closed
	Depth  int
	Closed bool
	// seq is the begin order on the rank (a parent precedes its children).
	// An int32 fits in Closed's padding, so retaining it costs no bytes.
	seq int32
}

func (s Span) String() string {
	if !s.Closed {
		return fmt.Sprintf("[%10.3fs ...       ] rank %3d  %-14s %s (unclosed)", s.Start, s.Rank, s.Phase, s.Detail)
	}
	return fmt.Sprintf("[%10.3fs %9.3fs] rank %3d  %-14s %s", s.Start, s.End, s.Rank, s.Phase, s.Detail)
}

// SpanHandle is an open span; End closes it. A nil handle is valid and
// inert, mirroring the nil-Recorder contract.
type SpanHandle struct {
	r *Recorder
	s Span
}

// BeginSpan opens a span at virtual time t on the given rank's timeline and
// returns the handle that closes it. A nil Recorder returns a nil handle.
func (r *Recorder) BeginSpan(t float64, rank int, phase, format string, args ...any) *SpanHandle {
	if r == nil {
		return nil
	}
	h := &SpanHandle{r: r, s: Span{Rank: rank, Phase: phase, Detail: fmt.Sprintf(format, args...), Start: t}}
	r.mu.Lock()
	l := r.log(rank)
	h.s.Depth, h.s.seq = len(l.open), l.begun
	l.begun++
	l.open = append(l.open, h)
	r.mu.Unlock()
	return h
}

// End closes the span at virtual time t. Ending an already-closed span is a
// no-op, and a nil handle is inert.
func (h *SpanHandle) End(t float64) {
	if h == nil {
		return
	}
	r := h.r
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &h.s
	if s.Closed {
		return
	}
	s.Closed = true
	s.End = max(t, s.Start)
	l := r.logs[s.Rank]
	for i := len(l.open) - 1; i >= 0; i-- {
		if l.open[i] == h {
			l.open = append(l.open[:i], l.open[i+1:]...)
			break
		}
	}
	if l.spans.push(*s, r.depth) {
		r.droppedSpans++
	}
}

// Spans returns a copy of all retained spans (closed and open) sorted by
// start time, ties broken by rank, then begin order (which places a parent
// before the children it encloses) — a deterministic rendering order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	r.eachRank(func(l *rankLog) {
		out = l.spans.appendTo(out)
		for _, h := range l.open {
			out = append(out, h.s)
		}
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.seq < b.seq
	})
	return out
}

// OpenSpans returns the spans that were never closed, in the same order as
// Spans. A non-empty result after a run usually indicates a begin/end pairing
// bug (or a rank that died inside the spanned phase).
func (r *Recorder) OpenSpans() []Span {
	var out []Span
	for _, s := range r.Spans() {
		if !s.Closed {
			out = append(out, s)
		}
	}
	return out
}

// SpanCount returns how many spans carry the given phase.
func (r *Recorder) SpanCount(phase string) int {
	n := 0
	for _, s := range r.Spans() {
		if s.Phase == phase {
			n++
		}
	}
	return n
}
