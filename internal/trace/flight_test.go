package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestFlightRingWraparound checks the flight recorder retains exactly the
// last N closed spans per rank and counts what it evicted.
func TestFlightRingWraparound(t *testing.T) {
	r := NewFlight(4)
	if got := r.depth; got != 4 {
		t.Fatalf("depth = %d, want 4", got)
	}
	for i := 0; i < 10; i++ {
		sp := r.BeginSpan(float64(i), 0, "solve", "step %d", i)
		sp.End(float64(i) + 0.5)
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		wantStart := float64(6 + i) // steps 6..9 survive
		if s.Start != wantStart || !s.Closed {
			t.Errorf("span %d: start %v closed %v, want start %v closed", i, s.Start, s.Closed, wantStart)
		}
	}
	ds, dn := r.Dropped()
	if ds != 6 || dn != 0 {
		t.Errorf("Dropped = (%d, %d), want (6, 0)", ds, dn)
	}
}

// TestFlightRingGrowsToDepth checks a rank's span and note rings grow only
// as far as the depth, whether it is below, between or above the growth
// steps (the log's inline first slots aside), and that the retained window
// is the same in each case.
func TestFlightRingGrowsToDepth(t *testing.T) {
	for _, depth := range []int{3, 6, 64, 100} {
		r := NewFlight(depth)
		for i := 0; i < 200; i++ {
			r.BeginSpan(float64(i), 0, "solve", "step %d", i).End(float64(i) + 0.5)
			r.Note(float64(i), 0, 0, "tick")
		}
		l := r.logs[0]
		if c := cap(l.spans.buf); c > max(depth, len(l.spanBuf)) {
			t.Errorf("depth %d: span ring capacity %d", depth, c)
		}
		if c := cap(l.notes.buf); c > depth {
			t.Errorf("depth %d: note ring capacity %d", depth, c)
		}
		spans, notes := r.Spans(), r.Notes()
		if len(spans) != depth || len(notes) != depth {
			t.Fatalf("depth %d: retained %d spans, %d notes", depth, len(spans), len(notes))
		}
		first := float64(200 - depth)
		if spans[0].Start != first || spans[0].Detail != fmt.Sprintf("step %d", 200-depth) || notes[0].VT != first {
			t.Errorf("depth %d: window starts at span %+v, note %v", depth, spans[0], notes[0].VT)
		}
	}
}

// TestFlightNotesWraparound is the same contract for journal notes.
func TestFlightNotesWraparound(t *testing.T) {
	r := NewFlight(3)
	for i := 0; i < 5; i++ {
		r.Note(float64(i), 1, 0, "tick")
	}
	notes := r.Notes()
	if len(notes) != 3 {
		t.Fatalf("retained %d notes, want 3", len(notes))
	}
	if notes[0].VT != 2 || notes[2].VT != 4 {
		t.Errorf("retained window [%v..%v], want [2..4]", notes[0].VT, notes[2].VT)
	}
	if ds, dn := r.Dropped(); ds != 0 || dn != 2 {
		t.Errorf("Dropped = (%d, %d), want (0, 2)", ds, dn)
	}
}

// TestFlightMultiRankOrder checks the dump orders ranks ascending so the
// export is deterministic.
func TestFlightMultiRankOrder(t *testing.T) {
	r := NewFlight(8)
	for _, rank := range []int{5, 1, 3} {
		sp := r.BeginSpan(float64(rank), rank, "solve", "")
		sp.End(float64(rank) + 1)
	}
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i, want := range []int{1, 3, 5} {
		if spans[i].Rank != want {
			t.Errorf("span %d on rank %d, want %d", i, spans[i].Rank, want)
		}
	}
}

// TestFlightOpenSpansSurvive checks spans still open at dump time are
// reported unclosed — an aborted run's in-flight phase stays visible.
func TestFlightOpenSpansSurvive(t *testing.T) {
	r := NewFlight(4)
	r.BeginSpan(1, 0, "repair", "stuck here")
	spans := r.Spans()
	if len(spans) != 1 || spans[0].Closed {
		t.Fatalf("open span not reported: %+v", spans)
	}
	var b strings.Builder
	if err := r.ExportChromeTrace(&b); err != nil {
		t.Fatalf("export: %v", err)
	}
	if !strings.Contains(b.String(), "repair") {
		t.Errorf("export missing open span:\n%s", b.String())
	}
}

// TestFlightNesting checks depth bookkeeping matches the full recorder's:
// a child span open under a parent records depth 1.
func TestFlightNesting(t *testing.T) {
	r := NewFlight(8)
	outer := r.BeginSpan(0, 0, "outer", "")
	inner := r.BeginSpan(1, 0, "inner", "")
	inner.End(2)
	outer.End(3)
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	byPhase := map[string]Span{}
	for _, s := range spans {
		byPhase[s.Phase] = s
	}
	if byPhase["outer"].Depth != 0 || byPhase["inner"].Depth != 1 {
		t.Errorf("depths outer=%d inner=%d, want 0 and 1", byPhase["outer"].Depth, byPhase["inner"].Depth)
	}
}

// TestFlightParentBeforeChild checks a flight recorder orders a parent and
// the child it opened at the same instant by begin order, as a full recorder
// does, even though the child closes first.
func TestFlightParentBeforeChild(t *testing.T) {
	for _, r := range []*Recorder{New(), NewFlight(8)} {
		parent := r.BeginSpan(1, 0, "repair", "")
		child := r.BeginSpan(1, 0, "shrink", "")
		child.End(2)
		parent.End(3)
		spans := r.Spans()
		if len(spans) != 2 || spans[0].Phase != "repair" || spans[1].Phase != "shrink" {
			t.Errorf("depth %d: order %v, want repair then shrink", r.depth, spans)
		}
	}
}

// TestFlightDumpSaysTruncated checks a dump that lost history says how much
// in the process metadata, and a complete one carries no such args.
func TestFlightDumpSaysTruncated(t *testing.T) {
	processArgs := func(r *Recorder) map[string]string {
		var b strings.Builder
		if err := r.ExportChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string            `json:"name"`
				Args map[string]string `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.TraceEvents) == 0 || doc.TraceEvents[0].Name != "process_name" {
			t.Fatalf("first trace event is not process_name: %s", b.String())
		}
		return doc.TraceEvents[0].Args
	}
	r := NewFlight(2)
	for i := 0; i < 5; i++ {
		r.BeginSpan(float64(i), 0, "solve", "").End(float64(i) + 0.5)
	}
	for i := 0; i < 3; i++ {
		r.Note(float64(i), 0, 0, "tick")
	}
	args := processArgs(r)
	if args["dropped_spans"] != "3" || args["dropped_notes"] != "1" {
		t.Errorf("truncated dump args = %v, want dropped_spans 3, dropped_notes 1", args)
	}
	full := New()
	full.BeginSpan(0, 0, "solve", "").End(1)
	if args := processArgs(full); len(args) != 1 {
		t.Errorf("complete dump args = %v, want only the name", args)
	}
}

// TestFlightReserveAllocatesOnce checks that once Reserve has laid out the
// logs of a world's ranks, each rank's first records allocate nothing,
// while a rank outside the block still gets a log of its own, and every
// rank's records read back as before.
func TestFlightReserveAllocatesOnce(t *testing.T) {
	const ranks = 64
	r := NewFlight(0)
	r.Reserve(ranks)
	rank := 0
	if n := testing.AllocsPerRun(ranks-1, func() {
		sp := r.BeginSpan(float64(rank), rank, "solve", "steps %d..%d", 1, rank)
		sp.End(float64(rank) + 0.5)
		rank++
	}); n != 0 {
		t.Errorf("a reserved rank's first span allocated %v objects, want 0", n)
	}
	r.BeginSpan(1, ranks+5, "solve", "").End(2)
	spans := r.Spans()
	if len(spans) != ranks+1 {
		t.Fatalf("%d spans read back, want %d", len(spans), ranks+1)
	}
	seen := map[int]bool{}
	for _, s := range spans {
		seen[s.Rank] = true
	}
	if len(seen) != ranks+1 || !seen[ranks+5] {
		t.Errorf("spans on %d ranks, want %d including rank %d", len(seen), ranks+1, ranks+5)
	}
}
