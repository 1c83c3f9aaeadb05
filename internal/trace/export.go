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
//   - each rank is one thread (track): tid = rank + 1, so every tid is
//     positive;
//   - closed spans become "X" (complete) events with ts/dur in microseconds
//     of *virtual* time;
//   - spans left open (a rank died mid-phase) become "B" (begin) events, which
//     the viewers render as running to the end of the trace;
//   - journal notes become "i" (instant) events with thread scope, named by
//     the note's kind, with the epoch and the note's attributes as args; the
//     wall clock is left out, so the export stays byte-identical across
//     schedules;
//   - "M" (metadata) events name the process and one thread per track; a
//     flight recorder that evicted history says how much in the process
//     entry's dropped_spans and dropped_notes args.
//
// Output is deterministic: tracks ascending, then the canonical orders of
// Spans and Notes.

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

// usec converts virtual seconds to trace_event microseconds.
func usec(t float64) float64 { return t * 1e6 }

// ExportChromeTrace writes the timeline as Chrome trace_event JSON. A nil
// Recorder writes an empty (but valid) trace.
func (r *Recorder) ExportChromeTrace(w io.Writer) error {
	spans := r.Spans()
	notes := r.Notes()

	ranks := map[int]bool{}
	for _, s := range spans {
		ranks[s.Rank] = true
	}
	for _, n := range notes {
		ranks[n.Rank] = true
	}
	sorted := make([]int, 0, len(ranks))
	for rk := range ranks {
		sorted = append(sorted, rk)
	}
	sort.Ints(sorted)

	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, 1+len(sorted)+len(spans)+len(notes)),
		DisplayTimeUnit: "ms",
	}
	proc := map[string]string{"name": "ftpde (virtual time)"}
	if ds, dn := r.Dropped(); ds+dn > 0 {
		proc["dropped_spans"] = strconv.FormatInt(ds, 10)
		proc["dropped_notes"] = strconv.FormatInt(dn, 10)
	}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePid, Tid: 0, Args: proc,
	})
	for _, rk := range sorted {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: rk + 1,
			Args: map[string]string{"name": "rank " + strconv.Itoa(rk)},
		})
	}
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Phase, Ts: usec(s.Start), Pid: chromePid, Tid: s.Rank + 1,
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
	for _, n := range notes {
		args := map[string]string{"epoch": strconv.Itoa(n.Epoch)}
		for _, a := range n.Attrs {
			args[a.Key] = a.Value.String()
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: n.Kind, Ph: "i", Ts: usec(n.VT), Pid: chromePid,
			Tid: n.Rank + 1, S: "t", Args: args,
		})
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
