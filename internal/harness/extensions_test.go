package harness

import (
	"bytes"
	"strings"
	"testing"

	"ftsg/internal/core"
)

func TestLevelSweep(t *testing.T) {
	rows, err := LevelSweep(Options{Steps: 32, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Higher level (coarser diagonals) means fewer points; the error may
	// grow but must stay finite.
	for i := 1; i < len(rows); i++ {
		if rows[i].Points >= rows[i-1].Points {
			t.Errorf("points did not shrink: %+v", rows)
		}
		if rows[i].L1Error <= 0 {
			t.Errorf("level %d error %g", rows[i].Level, rows[i].L1Error)
		}
	}
	var buf bytes.Buffer
	levelSweepReport.write(&buf, rows, false)
	if !strings.Contains(buf.String(), "level sweep") {
		t.Error("render missing header")
	}
}

func TestNodeFailureExperiment(t *testing.T) {
	rows, err := NodeFailure(Options{Steps: 32, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FailedProcs < 1 {
			t.Errorf("%v: no processes failed", r.Technique)
		}
		if r.Technique == core.CheckpointRestart && r.L1Error != r.BaseError {
			t.Errorf("CR node-failure error %g != baseline %g", r.L1Error, r.BaseError)
		}
	}
	var buf bytes.Buffer
	nodeFailureReport.write(&buf, rows, false)
	if !strings.Contains(buf.String(), "spare-node") {
		t.Error("render missing header")
	}
}

func TestCheckpointRuleExperiment(t *testing.T) {
	rows, err := CheckpointRule(Options{Steps: 256})
	if err != nil {
		t.Fatal(err)
	}
	get := func(machine, rule string) CheckpointRuleRow {
		for _, r := range rows {
			if r.Machine == machine && r.Rule == rule {
				return r
			}
		}
		t.Fatalf("missing %s/%s", machine, rule)
		return CheckpointRuleRow{}
	}
	// Young's rule must beat (or match) the literal Eq. 2 on Raijin — the
	// point of the interpretation choice.
	if y, p := get("Raijin", "young"), get("Raijin", "eq2-as-printed"); y.Overhead > p.Overhead {
		t.Errorf("Young overhead %g above Eq.2 %g on Raijin", y.Overhead, p.Overhead)
	}
	var buf bytes.Buffer
	checkpointRuleReport.write(&buf, rows, false)
	if !strings.Contains(buf.String(), "Young") {
		t.Error("render missing header")
	}
}
