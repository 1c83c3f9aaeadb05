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

// spanRec is a span as its rank's log stores it. The detail stays
// unformatted — its format and int arguments — until the span is read, so
// recording one allocates nothing. Whether it is closed is where it lives:
// the log's open stack or its ring of closed spans.
type spanRec struct {
	phase, format string
	args          [maxDetailArgs]int
	nargs         int32
	seq, depth    int32
	start, end    float64
}

// maxDetailArgs bounds the int arguments a span detail carries.
const maxDetailArgs = 2

// detail formats the span's detail: format with the args substituted as
// by fmt.Sprintf, or format verbatim when there are none.
func (s *spanRec) detail() string {
	switch s.nargs {
	case 0:
		return s.format
	case 1:
		return fmt.Sprintf(s.format, s.args[0])
	default:
		return fmt.Sprintf(s.format, s.args[0], s.args[1])
	}
}

// span renders the record as rank's Span.
func (s *spanRec) span(rank int, closed bool) Span {
	return Span{Rank: rank, Phase: s.phase, Detail: s.detail(), Start: s.start, End: s.end,
		Depth: int(s.depth), Closed: closed, seq: s.seq}
}

// SpanHandle is an open span; End closes it. The zero handle is valid and
// inert, mirroring the nil-Recorder contract.
type SpanHandle struct {
	r    *Recorder
	rank int
	seq  int32
}

// BeginSpan opens a span at virtual time t on the given rank's timeline and
// returns the handle that closes it. The span's detail is format with args
// substituted as by fmt.Sprintf — or format verbatim when there are no args —
// and is formatted only when the span is read (Spans, the Chrome export), so
// recording allocates nothing once the rank's log is warm. At most two args
// are allowed. A nil Recorder returns the zero handle.
func (r *Recorder) BeginSpan(t float64, rank int, phase, format string, args ...int) SpanHandle {
	if r == nil {
		return SpanHandle{}
	}
	if len(args) > maxDetailArgs {
		panic(fmt.Sprintf("trace: span %q detail has %d args, at most %d", phase, len(args), maxDetailArgs))
	}
	s := spanRec{phase: phase, format: format, nargs: int32(len(args)), start: t}
	copy(s.args[:], args)
	r.mu.Lock()
	l := r.log(rank)
	s.depth, s.seq = int32(len(l.open)), l.begun
	l.begun++
	l.open = append(l.open, s)
	r.mu.Unlock()
	return SpanHandle{r: r, rank: rank, seq: s.seq}
}

// End closes the span at virtual time t. Ending an already-closed span is a
// no-op, and the zero handle is inert.
func (h SpanHandle) End(t float64) {
	r := h.r
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.logs[h.rank]
	for i := len(l.open) - 1; i >= 0; i-- {
		if l.open[i].seq != h.seq {
			continue
		}
		s := l.open[i]
		l.open = append(l.open[:i], l.open[i+1:]...)
		s.end = max(t, s.start)
		if l.spans.push(s, r.depth) {
			r.droppedSpans++
		}
		return
	}
}

// Spans returns a copy of all retained spans (closed and open) sorted by
// start time, ties broken by rank, then begin order (which places a parent
// before the children it encloses) — a deterministic rendering order. Span
// details are formatted here.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	r.eachRank(func(rank int, l *rankLog) {
		l.spans.each(func(s *spanRec) { out = append(out, s.span(rank, true)) })
		for i := range l.open {
			out = append(out, l.open[i].span(rank, false))
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
