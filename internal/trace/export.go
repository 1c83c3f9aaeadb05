package trace

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strconv"
)

// This file exports the recorded timeline in the Chrome trace_event JSON
// format (the "JSON Array Format" with a traceEvents wrapper), which both
// chrome://tracing and ui.perfetto.dev load directly. The mapping:
//
//   - the whole job is one process (pid 1);
//   - each rank is one thread (track): tid = rank + 2, with rank -1 (job-wide
//     events) on tid 1, so every tid is positive;
//   - closed spans become "X" (complete) events with ts/dur in microseconds
//     of *virtual* time;
//   - spans left open (a rank died mid-phase) become "B" (begin) events, which
//     the viewers render as running to the end of the trace;
//   - point events become "i" (instant) events with thread scope;
//   - "M" (metadata) events name the process and one thread per track; a
//     flight recorder that evicted history says how much in the process
//     entry's dropped_spans and dropped_events args.
//
// Output is deterministic: tracks ascending, then the sorted span/event
// orders of Spans and Events.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const chromePid = 1

// chromeTid maps a rank to its track id.
func chromeTid(rank int) int {
	if rank < 0 {
		return 1
	}
	return rank + 2
}

// trackName labels a rank's track.
func trackName(rank int) string {
	if rank < 0 {
		return "job"
	}
	return "rank " + strconv.Itoa(rank)
}

// usec converts virtual seconds to trace_event microseconds.
func usec(t float64) float64 { return t * 1e6 }

// ExportChromeTrace writes the timeline as Chrome trace_event JSON. A nil
// Recorder writes an empty (but valid) trace.
func (r *Recorder) ExportChromeTrace(w io.Writer) error {
	spans := r.Spans()
	events := r.Events()

	ranks := map[int]bool{}
	for _, s := range spans {
		ranks[s.Rank] = true
	}
	for _, e := range events {
		ranks[e.Rank] = true
	}
	sorted := make([]int, 0, len(ranks))
	for rk := range ranks {
		sorted = append(sorted, rk)
	}
	sort.Ints(sorted)

	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, 1+len(sorted)+len(spans)+len(events)),
		DisplayTimeUnit: "ms",
	}
	proc := map[string]string{"name": "ftpde (virtual time)"}
	if ds, de := r.Dropped(); ds+de > 0 {
		proc["dropped_spans"] = strconv.FormatInt(ds, 10)
		proc["dropped_events"] = strconv.FormatInt(de, 10)
	}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePid, Tid: 0, Args: proc,
	})
	for _, rk := range sorted {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: chromeTid(rk),
			Args: map[string]string{"name": trackName(rk)},
		})
	}
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Phase, Ts: usec(s.Start), Pid: chromePid, Tid: chromeTid(s.Rank),
		}
		if s.Detail != "" {
			ev.Args = map[string]string{"detail": s.Detail}
		}
		if s.Closed {
			d := usec(s.End - s.Start)
			ev.Ph, ev.Dur = "X", &d
		} else {
			ev.Ph = "B"
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	for _, e := range events {
		ev := chromeEvent{
			Name: e.Phase, Ph: "i", Ts: usec(e.T), Pid: chromePid,
			Tid: chromeTid(e.Rank), S: "t",
		}
		if e.Detail != "" {
			ev.Args = map[string]string{"detail": e.Detail}
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// DumpChromeTrace writes the timeline to path as Chrome trace_event JSON,
// creating or truncating the file. It is the flight-recorder post-mortem
// sink: cheap enough to call from an abort path, and the produced file loads
// directly in ui.perfetto.dev.
func (r *Recorder) DumpChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.ExportChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
