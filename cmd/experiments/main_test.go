package main

import (
	"bytes"
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftsg/internal/harness"
)

// update regenerates the golden file from current output:
//
//	go test ./cmd/experiments/ -run TestRunAllGolden -update
var update = flag.Bool("update", false, "rewrite golden testdata files")

func quickOpts() harness.Options {
	return harness.Options{Quick: true, Trials: 1, ErrTrials: 1, Steps: 16}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nope", "table", quickOpts()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunCheckpointRule(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "checkpointrule", "table", quickOpts()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Young") {
		t.Fatalf("missing table: %q", buf.String())
	}
}

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "table1", "table", quickOpts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "Comm_spawn_multiple") {
		t.Fatalf("missing Table I output: %q", out)
	}
}

func TestRunFig10(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig10", "csv", quickOpts()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "technique,lost_grids,l1_error") {
		t.Fatalf("missing Fig 10 CSV header: %q", buf.String())
	}
}

// TestRunAllGolden locks the whole table-mode output of -experiment all:
// every experiment, in order, each followed by one blank line.
func TestRunAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var buf bytes.Buffer
	if err := run(&buf, "all", "table", quickOpts()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_all_table.txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("-experiment all drifted from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestRunAllCSV: in CSV mode every experiment, extensions included, prints
// one CSV block with a header record, and blocks are separated by one blank
// line, so each block parses on its own.
func TestRunAllCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var buf bytes.Buffer
	if err := run(&buf, "all", "csv", quickOpts()); err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(strings.TrimSuffix(buf.String(), "\n\n"), "\n\n")
	if len(blocks) != len(harness.Experiments) {
		t.Fatalf("%d CSV blocks for %d experiments:\n%s", len(blocks), len(harness.Experiments), buf.String())
	}
	for i, block := range blocks {
		recs, err := csv.NewReader(strings.NewReader(block)).ReadAll()
		if err != nil {
			t.Fatalf("%s: %v\n%s", harness.Experiments[i].Name, err, block)
		}
		if len(recs) < 2 {
			t.Errorf("%s: %d records, want a header and rows:\n%s", harness.Experiments[i].Name, len(recs), block)
		}
		for _, rec := range recs {
			if len(rec) < 2 {
				t.Errorf("%s: record %q has fewer than 2 fields", harness.Experiments[i].Name, rec)
			}
		}
	}
}
