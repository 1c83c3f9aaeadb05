package trace

import (
	"bytes"
	"log/slog"
	"testing"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Note(1, 0, 0, "x") // must not panic
	var b bytes.Buffer
	r.Render(&b)
	if r.Notes() != nil || b.Len() != 0 {
		t.Fatal("nil recorder returned data")
	}
}

// TestEmitAndSort checks Notes returns what was recorded sorted by virtual
// time, ties broken by the lower rank, with the attributes kept.
func TestEmitAndSort(t *testing.T) {
	r := New()
	r.Note(2.0, 1, 0, "b")
	r.Note(1.0, 0, 0, "a", slog.Int("n", 42))
	r.Note(2.0, 0, 0, "c")
	ns := r.Notes()
	if len(ns) != 3 {
		t.Fatalf("%d notes", len(ns))
	}
	if ns[0].Kind != "a" || len(ns[0].Attrs) != 1 || ns[0].Attrs[0].Value.Int64() != 42 {
		t.Fatalf("sorted[0] = %+v", ns[0])
	}
	if ns[1].Kind != "c" || ns[2].Kind != "b" {
		t.Fatalf("tie-break wrong: %+v %+v", ns[1], ns[2])
	}
}

// TestRender checks the text rendering: one line per note, attributes as
// key=value, no wall clock.
func TestRender(t *testing.T) {
	r := New()
	r.Note(0.5, 3, 1, "checkpoint-commit", slog.Int("step", 64), slog.String("failed", "[2 5]"))
	r.Note(0.25, 0, 0, "fault-inject")
	var out bytes.Buffer
	r.Render(&out)
	want := "[     0.250s] rank   0  epoch 0  fault-inject\n" +
		"[     0.500s] rank   3  epoch 1  checkpoint-commit step=64 failed=[2 5]\n"
	if got := out.String(); got != want {
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
