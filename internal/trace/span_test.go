package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderSpansSafe(t *testing.T) {
	var r *Recorder
	h := r.BeginSpan(1, 0, "solve", "step %d", 1)
	if h != (SpanHandle{}) {
		t.Fatal("nil recorder returned a live handle")
	}
	h.End(2) // the zero handle must be inert
	if r.Spans() != nil || r.OpenSpans() != nil || r.SpanCount("solve") != 0 {
		t.Fatal("nil recorder returned span data")
	}
	var buf bytes.Buffer
	if err := r.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Fatalf("nil export: %q", buf.String())
	}
}

func TestSpanPairingAndNesting(t *testing.T) {
	r := New()
	outer := r.BeginSpan(1, 0, "repair", "")
	inner := r.BeginSpan(1.5, 0, "shrink", "")
	other := r.BeginSpan(1.2, 1, "repair", "") // different rank: own stack
	inner.End(2)
	outer.End(3)
	other.End(2.5)

	ss := r.Spans()
	if len(ss) != 3 {
		t.Fatalf("%d spans", len(ss))
	}
	// Sorted by start: repair@0 (1.0), repair@1 (1.2), shrink@0 (1.5).
	if ss[0].Phase != "repair" || ss[0].Rank != 0 || ss[0].Depth != 0 {
		t.Fatalf("spans[0] = %+v", ss[0])
	}
	if ss[1].Rank != 1 || ss[1].Depth != 0 {
		t.Fatalf("spans[1] = %+v", ss[1])
	}
	if ss[2].Phase != "shrink" || ss[2].Depth != 1 {
		t.Fatalf("nested span depth: %+v", ss[2])
	}
	for _, s := range ss {
		if !s.Closed {
			t.Fatalf("span not closed: %+v", s)
		}
	}
	if got := r.OpenSpans(); len(got) != 0 {
		t.Fatalf("open spans: %v", got)
	}
	inner.End(99) // double End is a no-op
	if got := r.Spans()[2].End; got != 2 {
		t.Fatalf("double End moved end time to %g", got)
	}
}

func TestUnclosedSpanDetection(t *testing.T) {
	r := New()
	r.BeginSpan(1, 2, "solve", "dies mid-phase")
	done := r.BeginSpan(2, 3, "solve", "")
	done.End(3)
	open := r.OpenSpans()
	if len(open) != 1 || open[0].Rank != 2 || open[0].Closed {
		t.Fatalf("open spans = %+v", open)
	}
	if !strings.Contains(open[0].String(), "unclosed") {
		t.Fatalf("String() of open span: %q", open[0].String())
	}
}

func TestSpanEndBeforeStartClamped(t *testing.T) {
	r := New()
	h := r.BeginSpan(5, 0, "x", "")
	h.End(4)
	if s := r.Spans()[0]; s.End != s.Start {
		t.Fatalf("End < Start not clamped: %+v", s)
	}
}

// TestConcurrentMultiRankEmission hammers notes and spans from many
// rank-goroutines at once; run with -race in CI.
func TestConcurrentMultiRankEmission(t *testing.T) {
	r := New()
	const ranks, per = 8, 200
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tm := float64(i)
				r.Note(tm, rank, 0, "step")
				h := r.BeginSpan(tm, rank, "solve", "")
				h.End(tm + 0.5)
			}
		}(rank)
	}
	wg.Wait()
	if got := len(r.Notes()); got != ranks*per {
		t.Fatalf("%d notes, want %d", got, ranks*per)
	}
	if got := r.SpanCount("solve"); got != ranks*per {
		t.Fatalf("%d spans, want %d", got, ranks*per)
	}
	if got := len(r.OpenSpans()); got != 0 {
		t.Fatalf("%d unclosed spans", got)
	}
}

// TestDeterministicSortedRendering: identical emissions in different orders
// must render and export identically.
func TestDeterministicSortedRendering(t *testing.T) {
	build := func(order []int) *Recorder {
		r := New()
		type item struct {
			t    float64
			rank int
		}
		items := []item{{3, 1}, {1, 0}, {2, 2}, {1, 1}}
		for _, i := range order {
			it := items[i]
			r.Note(it.t, it.rank, 0, "p", slog.String("detail", "d"))
			h := r.BeginSpan(it.t, it.rank, "s", "")
			h.End(it.t + 1)
		}
		return r
	}
	a, b := build([]int{0, 1, 2, 3}), build([]int{3, 2, 1, 0})
	var ra, rb, ea, eb bytes.Buffer
	a.Render(&ra)
	b.Render(&rb)
	if ra.String() != rb.String() {
		t.Fatalf("render differs:\n%s\nvs\n%s", ra.String(), rb.String())
	}
	if err := a.ExportChromeTrace(&ea); err != nil {
		t.Fatal(err)
	}
	if err := b.ExportChromeTrace(&eb); err != nil {
		t.Fatal(err)
	}
	if ea.String() != eb.String() {
		t.Fatalf("export differs:\n%s\nvs\n%s", ea.String(), eb.String())
	}
}

// TestExportChromeTraceFormat parses the export and checks the trace_event
// structure: metadata, complete spans with microsecond timestamps, note
// instants, and begin events for unclosed spans.
func TestExportChromeTraceFormat(t *testing.T) {
	r := New()
	r.Note(0.25, 3, 1, "failure-detected", slog.String("failed", "[3]"), slog.Float64("seconds", 0.5))
	h := r.BeginSpan(1.0, 3, "repair", "2 failures")
	h.End(1.5)
	r.BeginSpan(2.0, 0, "solve", "") // left open

	var buf bytes.Buffer
	if err := r.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	byPh := map[string][]map[string]any{}
	for _, ev := range parsed.TraceEvents {
		ph := ev["ph"].(string)
		byPh[ph] = append(byPh[ph], ev)
	}
	// Metadata: process name + one thread per track (ranks 0 and 3).
	if got := len(byPh["M"]); got != 3 {
		t.Fatalf("%d metadata events, want 3", got)
	}
	names := map[string]bool{}
	for _, ev := range byPh["M"] {
		if args, ok := ev["args"].(map[string]any); ok {
			names[fmt.Sprint(args["name"])] = true
		}
	}
	for _, want := range []string{"rank 0", "rank 3"} {
		if !names[want] {
			t.Fatalf("missing track %q in %v", want, names)
		}
	}
	// The closed repair span: X with ts=1e6 us, dur=0.5e6 us, tid=4.
	if got := len(byPh["X"]); got != 1 {
		t.Fatalf("%d complete events, want 1", got)
	}
	x := byPh["X"][0]
	if x["name"] != "repair" || x["ts"].(float64) != 1e6 || x["dur"].(float64) != 5e5 || x["tid"].(float64) != 4 {
		t.Fatalf("X event = %v", x)
	}
	if args := x["args"].(map[string]any); args["detail"] != "2 failures" {
		t.Fatalf("X args = %v", args)
	}
	// The unclosed solve span: B on rank 0's track.
	if got := len(byPh["B"]); got != 1 || byPh["B"][0]["name"] != "solve" || byPh["B"][0]["tid"].(float64) != 1 {
		t.Fatalf("B events = %v", byPh["B"])
	}
	// The note: an instant on rank 3's track named by its kind, with the
	// epoch and attributes as args and no wall clock.
	if got := len(byPh["i"]); got != 1 {
		t.Fatalf("%d instant events, want 1", got)
	}
	in := byPh["i"][0]
	if in["name"] != "failure-detected" || in["ts"].(float64) != 2.5e5 || in["tid"].(float64) != 4 || in["s"] != "t" {
		t.Fatalf("i event = %v", in)
	}
	if args := in["args"].(map[string]any); len(args) != 3 || args["epoch"] != "1" || args["failed"] != "[3]" || args["seconds"] != "0.5" {
		t.Fatalf("i args = %v", args)
	}
}

// TestSpanRecordingAllocatesNothing pins the cost of recording a span: once
// a flight recorder's rank has filled its window, BeginSpan + End allocate
// nothing, and on a nil recorder they allocate nothing even with int args.
func TestSpanRecordingAllocatesNothing(t *testing.T) {
	r := NewFlight(8)
	step := 0
	record := func(r *Recorder) {
		step++
		outer := r.BeginSpan(float64(step), 3, "solve", "steps %d..%d", step, step+100000)
		r.BeginSpan(float64(step), 3, "checkpoint", "write step %d", step).End(float64(step) + 0.5)
		r.BeginSpan(float64(step), 3, "detect", "barrier + agree round").End(float64(step) + 0.7)
		outer.End(float64(step) + 1)
	}
	for i := 0; i < 8; i++ { // warm the rank: its log, its full ring
		record(r)
	}
	if n := testing.AllocsPerRun(100, func() { record(r) }); n != 0 {
		t.Errorf("warm flight recorder: %v allocations per record, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { record(nil) }); n != 0 {
		t.Errorf("nil recorder: %v allocations per record, want 0", n)
	}
	if got := r.Spans(); len(got) != 8 || got[7].Detail != "barrier + agree round" {
		t.Fatalf("retained spans = %v", got)
	}
}

// TestLazyDetailMatchesSprintf checks, for the detail format of every span
// the program records, that the detail formatted on read equals the eager
// fmt.Sprintf it replaced. Details with no args (including the list-valued
// ones formatted by their call sites) are kept verbatim.
func TestLazyDetailMatchesSprintf(t *testing.T) {
	cases := []struct {
		format string
		args   []int
	}{
		{"steps %d..%d", []int{1, 64}},
		{"steps %d..%d", []int{-3, 1 << 40}},
		{"write step %d", []int{128}},
		{"%d spares", []int{2}},
		{"restore rank order, key %d", []int{0}},
		{"assume old rank %d", []int{4095}},
		{"", nil},
		{"barrier + agree round", nil},
		{"child synchronise", nil},
		{"child merge high", nil},
		{fmt.Sprintf("%d replacements on %v", 2, []string{"n007", "n012"}), nil},
		{fmt.Sprintf("%v, sub-grids %v", "RC", []int{3, 5}), nil},
	}
	r := New()
	for i, c := range cases {
		r.BeginSpan(float64(i), 0, "p", c.format, c.args...).End(float64(i))
	}
	spans := r.Spans()
	for i, c := range cases {
		anys := make([]any, len(c.args))
		for j, a := range c.args {
			anys[j] = a
		}
		if want := fmt.Sprintf(c.format, anys...); spans[i].Detail != want {
			t.Errorf("format %q args %v: detail %q, want %q", c.format, c.args, spans[i].Detail, want)
		}
	}
}

// TestSpanDetailArgsBounded checks a detail with more args than a span
// stores is refused rather than silently truncated.
func TestSpanDetailArgsBounded(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BeginSpan with three args did not panic")
		}
	}()
	New().BeginSpan(0, 0, "p", "%d %d %d", 1, 2, 3)
}

// TestZeroHandleInertOnLiveRecorder checks ending the zero handle touches
// no rank's log, and that a handle closes only its own span.
func TestZeroHandleInertOnLiveRecorder(t *testing.T) {
	r := New()
	a := r.BeginSpan(1, 0, "a", "")
	b := r.BeginSpan(2, 0, "b", "")
	var zero SpanHandle
	zero.End(5)
	a.End(3) // the outer span closes first; b stays open
	if open := r.OpenSpans(); len(open) != 1 || open[0].Phase != "b" || open[0].Depth != 1 {
		t.Fatalf("open spans = %+v", open)
	}
	b.End(4)
	if ss := r.Spans(); len(ss) != 2 || !ss[0].Closed || ss[0].End != 3 || ss[1].End != 4 {
		t.Fatalf("spans = %+v", ss)
	}
}
