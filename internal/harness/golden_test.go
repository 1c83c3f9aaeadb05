package harness

import (
	"bytes"
	"flag"
	"io"
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

// checkGolden compares got with testdata/name; -update rewrites the file
// from the serial run.
func checkGolden(t *testing.T, workers int, name, got string) {
	t.Helper()
	if *update && workers == 1 {
		writeGolden(t, name, got)
	}
	if want := readGolden(t, name); got != want {
		t.Errorf("workers=%d: %s drifted from seed:\n got:\n%s\nwant:\n%s", workers, name, got, want)
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
		for _, fig := range []struct {
			name string
			run  func(o Options, table, csv io.Writer) error
		}{
			{"fig8", func(o Options, table, csv io.Writer) error {
				rows, err := Fig8(o)
				if err != nil {
					return err
				}
				fig8Report.write(table, rows, false)
				return CSVFig8(csv, rows)
			}},
			{"table1", func(o Options, table, csv io.Writer) error {
				rows, err := Table1(o)
				if err != nil {
					return err
				}
				table1Report.write(table, rows, false)
				return CSVTable1(csv, rows)
			}},
			{"fig9", func(o Options, table, csv io.Writer) error {
				rows, err := Fig9(o)
				if err != nil {
					return err
				}
				fig9Report.write(table, rows, false)
				return CSVFig9(csv, rows)
			}},
			{"fig10", func(o Options, table, csv io.Writer) error {
				rows, err := Fig10(o)
				if err != nil {
					return err
				}
				fig10Report.write(table, rows, false)
				return CSVFig10(csv, rows)
			}},
			{"fig11", func(o Options, table, csv io.Writer) error {
				rows, err := Fig11(o)
				if err != nil {
					return err
				}
				fig11Report.write(table, rows, false)
				return CSVFig11(csv, rows)
			}},
		} {
			var table, csv bytes.Buffer
			if err := fig.run(o, &table, &csv); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, workers, "golden_"+fig.name+"_table.txt", table.String())
			checkGolden(t, workers, "golden_"+fig.name+"_csv.txt", csv.String())
		}
	}
}

// TestGoldenExtensions locks the four extension tables at the golden
// configuration, at both 1 and 8 workers.
func TestGoldenExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the extension experiments")
	}
	for _, workers := range []int{1, 8} {
		o := goldenOpts(workers)
		for _, ext := range []struct {
			name string
			run  func(o Options, table io.Writer) error
		}{
			{"levelsweep", func(o Options, table io.Writer) error {
				rows, err := LevelSweep(o)
				levelSweepReport.write(table, rows, false)
				return err
			}},
			{"nodefailure", func(o Options, table io.Writer) error {
				rows, err := NodeFailure(o)
				nodeFailureReport.write(table, rows, false)
				return err
			}},
			{"aclayers", func(o Options, table io.Writer) error {
				rows, err := ACLayers(o)
				acLayersReport.write(table, rows, false)
				return err
			}},
			{"checkpointrule", func(o Options, table io.Writer) error {
				rows, err := CheckpointRule(o)
				checkpointRuleReport.write(table, rows, false)
				return err
			}},
		} {
			var table bytes.Buffer
			if err := ext.run(o, &table); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, workers, "golden_"+ext.name+"_table.txt", table.String())
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
// appear and Fig. 8 and Fig. 11 match their telemetry goldens byte for byte
// at every worker count (the scheduler folds results in submission order).
func TestTelemetryColumnsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick experiment matrix")
	}
	for _, workers := range []int{1, 8} {
		o := goldenOpts(workers)
		o.Telemetry = true
		rows8, err := Fig8(o)
		if err != nil {
			t.Fatal(err)
		}
		var table, csv bytes.Buffer
		fig8Report.write(&table, rows8, false)
		if err := CSVFig8(&csv, rows8); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(csv.Bytes(), []byte("messages,bytes")) {
			t.Errorf("telemetry CSV missing telemetry header: %s", csv.String())
		}
		checkGolden(t, workers, "golden_fig8_telemetry_table.txt", table.String())
		checkGolden(t, workers, "golden_fig8_telemetry_csv.txt", csv.String())

		rows11, err := Fig11(o)
		if err != nil {
			t.Fatal(err)
		}
		table.Reset()
		csv.Reset()
		fig11Report.write(&table, rows11, false)
		if err := CSVFig11(&csv, rows11); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(csv.Bytes(), []byte("solve_s,repair_s,messages,bytes,ckpt_bytes")) {
			t.Errorf("telemetry CSV missing telemetry header: %s", csv.String())
		}
		checkGolden(t, workers, "golden_fig11_telemetry_table.txt", table.String())
		checkGolden(t, workers, "golden_fig11_telemetry_csv.txt", csv.String())
	}
}
