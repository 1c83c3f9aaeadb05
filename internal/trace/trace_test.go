package trace

import (
	"bytes"
	"log/slog"
	"testing"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Emit(1, 0, "x", "y") // must not panic
	if r.Events() != nil || r.Count("x") != 0 || r.Phases() != nil {
		t.Fatal("nil recorder returned data")
	}
}

func TestEmitAndSort(t *testing.T) {
	r := New()
	r.Emit(2.0, 1, "b", "second")
	r.Emit(1.0, 0, "a", "first %d", 42)
	r.Emit(2.0, 0, "c", "tie earlier rank")
	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("%d events", len(ev))
	}
	if ev[0].Phase != "a" || ev[0].Detail != "first 42" {
		t.Fatalf("sorted[0] = %+v", ev[0])
	}
	if ev[1].Phase != "c" || ev[2].Phase != "b" {
		t.Fatalf("tie-break wrong: %v %v", ev[1], ev[2])
	}
}

func TestPhasesAndCount(t *testing.T) {
	r := New()
	r.Emit(1, 0, "detect", "")
	r.Emit(2, 0, "repair", "")
	r.Emit(3, 0, "detect", "")
	ph := r.Phases()
	if len(ph) != 2 || ph[0] != "detect" || ph[1] != "repair" {
		t.Fatalf("phases = %v", ph)
	}
	if r.Count("detect") != 2 || r.Count("nope") != 0 {
		t.Fatal("count wrong")
	}
}

func TestRender(t *testing.T) {
	r := New()
	r.Emit(0.5, 3, "checkpoint", "step %d", 64)
	var out bytes.Buffer
	r.Render(&out)
	if got, want := out.String(), "[     0.500s] rank   3  checkpoint     step 64\n"; got != want {
		t.Fatalf("render output %q, want %q", got, want)
	}
}

// TestNotesCanonicalOrder checks notes render in (virtual time, rank,
// program order) whatever order the ranks emitted them in, and that the
// canonical rendering carries no wall clock.
func TestNotesCanonicalOrder(t *testing.T) {
	r := New()
	r.Note(2, 1, 0, "late")
	r.Note(1, 3, 0, "first-of-3")
	r.Note(1, 0, 1, "rank0", slog.Int("step", 4))
	r.Note(1, 3, 0, "second-of-3")
	var b bytes.Buffer
	if err := r.WriteJSONL(&b, false); err != nil {
		t.Fatal(err)
	}
	want := `{"msg":"rank0","vt":1,"rank":0,"epoch":1,"step":4}
{"msg":"first-of-3","vt":1,"rank":3,"epoch":0}
{"msg":"second-of-3","vt":1,"rank":3,"epoch":0}
{"msg":"late","vt":2,"rank":1,"epoch":0}
`
	if b.String() != want {
		t.Errorf("canonical journal:\n%s\nwant:\n%s", b.String(), want)
	}
}
