package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ftsg/internal/recovery"
)

// update regenerates the golden files from current output:
//
//	go test ./internal/harness/ -run TestGoldenOutput -update
var update = flag.Bool("update", false, "rewrite golden testdata files")

// goldenOpts is the configuration the golden testdata was captured with.
// Telemetry is off, so today's output must still match those files byte for
// byte — any drift means either nondeterminism crept into the simulator or
// an instrumentation change leaked into default output.
func goldenOpts(workers int) Options {
	return Options{Quick: true, Trials: 1, ErrTrials: 1, Steps: 16, Workers: workers}
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func writeGolden(t *testing.T, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join("testdata", name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenOutputWithTelemetryOff locks the harness output format: with
// telemetry off, tables and CSVs are byte-identical to the golden capture,
// at both 1 and 8 workers.
func TestGoldenOutputWithTelemetryOff(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick experiment matrix")
	}
	for _, workers := range []int{1, 8} {
		o := goldenOpts(workers)

		rows8, err := Fig8(o)
		if err != nil {
			t.Fatal(err)
		}
		var table, csv bytes.Buffer
		RenderFig8(&table, rows8)
		if err := CSVFig8(&csv, rows8); err != nil {
			t.Fatal(err)
		}
		if *update && workers == 1 {
			writeGolden(t, "golden_fig8_table.txt", table.String())
			writeGolden(t, "golden_fig8_csv.txt", csv.String())
		}
		if want := readGolden(t, "golden_fig8_table.txt"); table.String() != want {
			t.Errorf("workers=%d: fig8 table drifted from seed:\n got:\n%s\nwant:\n%s",
				workers, table.String(), want)
		}
		if want := readGolden(t, "golden_fig8_csv.txt"); csv.String() != want {
			t.Errorf("workers=%d: fig8 CSV drifted from seed:\n got:\n%s\nwant:\n%s",
				workers, csv.String(), want)
		}

		rows9, err := Fig9(o)
		if err != nil {
			t.Fatal(err)
		}
		table.Reset()
		csv.Reset()
		RenderFig9(&table, rows9)
		if err := CSVFig9(&csv, rows9); err != nil {
			t.Fatal(err)
		}
		if *update && workers == 1 {
			writeGolden(t, "golden_fig9_table.txt", table.String())
			writeGolden(t, "golden_fig9_csv.txt", csv.String())
		}
		if want := readGolden(t, "golden_fig9_table.txt"); table.String() != want {
			t.Errorf("workers=%d: fig9 table drifted from seed:\n got:\n%s\nwant:\n%s",
				workers, table.String(), want)
		}
		if want := readGolden(t, "golden_fig9_csv.txt"); csv.String() != want {
			t.Errorf("workers=%d: fig9 CSV drifted from seed:\n got:\n%s\nwant:\n%s",
				workers, csv.String(), want)
		}

		rows11, err := Fig11(o)
		if err != nil {
			t.Fatal(err)
		}
		table.Reset()
		csv.Reset()
		RenderFig11(&table, rows11)
		if err := CSVFig11(&csv, rows11); err != nil {
			t.Fatal(err)
		}
		if *update && workers == 1 {
			writeGolden(t, "golden_fig11_table.txt", table.String())
			writeGolden(t, "golden_fig11_csv.txt", csv.String())
		}
		if want := readGolden(t, "golden_fig11_table.txt"); table.String() != want {
			t.Errorf("workers=%d: fig11 table drifted from seed:\n got:\n%s\nwant:\n%s",
				workers, table.String(), want)
		}
		if want := readGolden(t, "golden_fig11_csv.txt"); csv.String() != want {
			t.Errorf("workers=%d: fig11 CSV drifted from seed:\n got:\n%s\nwant:\n%s",
				workers, csv.String(), want)
		}
	}
}

// TestGoldenFig11RecoveryModes locks the four-variant Fig. 11 comparison:
// the full quick matrix under spawn, shrink, substitute and no-repair, with
// the mode column distinguishing the series. Deterministic across worker
// counts; regenerate with -update after intentional changes.
func TestGoldenFig11RecoveryModes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick experiment matrix under four recovery modes")
	}
	for _, workers := range []int{1, 8} {
		o := goldenOpts(workers)
		o.RecoveryModes = recovery.Modes
		rows, err := Fig11(o)
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := CSVFig11(&csv, rows); err != nil {
			t.Fatal(err)
		}
		if *update && workers == 1 {
			writeGolden(t, "golden_fig11_modes_csv.txt", csv.String())
		}
		if want := readGolden(t, "golden_fig11_modes_csv.txt"); csv.String() != want {
			t.Errorf("workers=%d: four-mode fig11 CSV drifted from seed:\n got:\n%s\nwant:\n%s",
				workers, csv.String(), want)
		}
		// Every mode must appear as its own measured series.
		for _, m := range recovery.Modes {
			if !bytes.Contains(csv.Bytes(), []byte(","+m.String()+",")) {
				t.Errorf("workers=%d: mode %s missing from four-mode fig11 CSV", workers, m)
			}
		}
	}
}

// TestGoldenOutputAsyncCheckpoints pins the checkpoint store's accounting
// contract at the harness level: switching every CR run of the sweep to the
// in-memory backend changes NOTHING in the output — the golden CSVs
// captured with the dir-backed store must match byte for byte, at 1 and 8
// workers (the runs of a sweep write their checkpoints concurrently).
// Virtual time is charged per write, never by the storage itself.
func TestGoldenOutputAsyncCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick experiment matrix")
	}
	for _, workers := range []int{1, 8} {
		// CkptGenerations is deliberately left at the default: the restart
		// negotiation exchanges one candidate slot per retained generation,
		// so a different generation count changes simulated message sizes
		// (and thus virtual time) by design. The backend must not.
		o := goldenOpts(workers)
		o.CkptBackend = "mem"

		rows11, err := Fig11(o)
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := CSVFig11(&csv, rows11); err != nil {
			t.Fatal(err)
		}
		if want := readGolden(t, "golden_fig11_csv.txt"); csv.String() != want {
			t.Errorf("workers=%d: mem CR sweep drifted from dir golden:\n got:\n%s\nwant:\n%s",
				workers, csv.String(), want)
		}

		rows8, err := Fig8(o)
		if err != nil {
			t.Fatal(err)
		}
		csv.Reset()
		if err := CSVFig8(&csv, rows8); err != nil {
			t.Fatal(err)
		}
		if want := readGolden(t, "golden_fig8_csv.txt"); csv.String() != want {
			t.Errorf("workers=%d: mem fig8 drifted from golden:\n got:\n%s\nwant:\n%s",
				workers, csv.String(), want)
		}
	}
}

// TestTelemetryColumnsDeterministic: with telemetry on, the extra columns
// appear and the whole output is still byte-identical across worker counts
// (the scheduler folds results in submission order).
func TestTelemetryColumnsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick experiment matrix")
	}
	render := func(workers int) (string, string) {
		o := goldenOpts(workers)
		o.Telemetry = true
		rows, err := Fig8(o)
		if err != nil {
			t.Fatal(err)
		}
		var table, csv bytes.Buffer
		RenderFig8(&table, rows)
		if err := CSVFig8(&csv, rows); err != nil {
			t.Fatal(err)
		}
		return table.String(), csv.String()
	}
	t1, c1 := render(1)
	t8, c8 := render(8)
	if t1 != t8 {
		t.Errorf("telemetry table differs across worker counts:\n%s\nvs\n%s", t1, t8)
	}
	if c1 != c8 {
		t.Errorf("telemetry CSV differs across worker counts:\n%s\nvs\n%s", c1, c8)
	}
	if !bytes.Contains([]byte(c1), []byte("messages,bytes")) {
		t.Errorf("telemetry CSV missing telemetry header: %s", c1)
	}
	if bytes.Equal([]byte(t1), []byte(readGolden(t, "golden_fig8_table.txt"))) {
		t.Error("telemetry table identical to telemetry-off golden — columns missing")
	}
}
