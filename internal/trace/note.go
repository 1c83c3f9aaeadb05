package trace

import (
	"context"
	"io"
	"log/slog"
	"time"
)

// Note is one entry of the failure-handling journal: a failure detection,
// repair-phase transition, checkpoint commit/fallback/restore or fault
// injection, stamped with the emitting rank's virtual time, rank,
// communicator epoch (repairs that rank has lived through) and the wall
// clock.
//
// Determinism contract: everything except Wall is a program-order function
// of the run, so the same seed yields byte-identical canonical output
// (WriteJSONL with includeWall=false) at any GOMAXPROCS. Notes share the
// recorder's canonical order — virtual time, rank, the rank's program order
// — and virtual time is already pinned by the determinism campaign.
type Note struct {
	VT    float64 // virtual seconds on the emitting rank's clock
	Rank  int
	Epoch int // communicator repairs this rank has completed
	Kind  string
	Wall  time.Time
	Attrs []slog.Attr
}

// Note records one journal entry at virtual time vt on rank's timeline.
// Extra attributes land after the standard vt/rank/epoch fields in the
// rendered line.
func (r *Recorder) Note(vt float64, rank, epoch int, kind string, attrs ...slog.Attr) {
	if r == nil {
		return
	}
	n := Note{VT: vt, Rank: rank, Epoch: epoch, Kind: kind, Wall: time.Now(), Attrs: attrs}
	r.mu.Lock()
	if r.log(rank).notes.push(n, r.depth) {
		r.droppedNotes++
	}
	r.mu.Unlock()
}

// Notes returns a copy of the retained notes in canonical order.
func (r *Recorder) Notes() []Note {
	if r == nil {
		return nil
	}
	var out []Note
	r.eachRank(func(_ int, l *rankLog) { l.notes.each(func(n *Note) { out = append(out, *n) }) })
	return byTime(out, func(n Note) float64 { return n.VT })
}

// WriteJSONL renders the notes as one JSON object per line, in canonical
// order. Each line carries msg (the note's kind), vt, rank, epoch and the
// note's extra attributes; includeWall adds the wall timestamp as "wall".
// With includeWall=false the output is byte-identical across schedules for
// a deterministic run.
func (r *Recorder) WriteJSONL(w io.Writer, includeWall bool) error {
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.LevelKey {
				return slog.Attr{}
			}
			if len(groups) == 0 && a.Key == slog.TimeKey {
				a.Key = "wall"
			}
			return a
		},
	})
	for _, n := range r.Notes() {
		var t time.Time
		if includeWall {
			t = n.Wall // zero time elides the field entirely
		}
		rec := slog.NewRecord(t, slog.LevelInfo, n.Kind, 0)
		rec.AddAttrs(slog.Float64("vt", n.VT), slog.Int("rank", n.Rank), slog.Int("epoch", n.Epoch))
		rec.AddAttrs(n.Attrs...)
		if err := h.Handle(context.Background(), rec); err != nil {
			return err
		}
	}
	return nil
}
