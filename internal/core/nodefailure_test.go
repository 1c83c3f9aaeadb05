package core

import (
	"strings"
	"testing"

	"ftsg/internal/faultgen"
	"ftsg/internal/vtime"
)

// nodeFault is the whole-node event of the tests below: one host dies at
// the middle step of fastCfg's run.
var nodeFault = []faultgen.Event{{Step: 32, Host: true}}

func TestNodeFailureValidation(t *testing.T) {
	base := fastCfg(AlternateCombination)
	cfg := base
	cfg.Faults = nodeFault
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "spare") {
		t.Errorf("node failure without spares: %v", err)
	}
	cfg = base
	cfg.Faults = nodeFault
	cfg.SpareNodes = 1
	cfg.NumFailures = 2 // the simulated-loss shorthand cannot ride along
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "NumFailures") {
		t.Errorf("node failure with the NumFailures shorthand: %v", err)
	}
	cfg = fastCfg(ResamplingCopying)
	cfg.Faults = nodeFault
	cfg.SpareNodes = 1
	if _, err := Run(cfg); err == nil {
		t.Error("node failure with RC accepted")
	}
	cfg = base
	cfg.Faults = []faultgen.Event{nodeFault[0], {Step: 40, Failures: 1}}
	cfg.SpareNodes = 1
	if _, err := Run(cfg); err == nil {
		t.Error("node failure mixed with a step event accepted")
	}
	cfg = base
	cfg.SpareNodes = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative spare nodes accepted")
	}
}

// TestNodeFailureRecovers is the paper's future-work scenario end to end:
// a whole host dies; every process is re-spawned on the spare node; the
// communicator keeps its size; the run completes with a bounded error.
func TestNodeFailureRecovers(t *testing.T) {
	for _, tech := range []Technique{CheckpointRestart, AlternateCombination} {
		cfg := fastCfg(tech)
		cfg.Faults = nodeFault
		cfg.SpareNodes = 1
		cfg.Seed = 3
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", tech, err)
		}
		slots := vtime.OPL().SlotsPerHost
		if len(res.FailedRanks) == 0 || len(res.FailedRanks) > slots {
			t.Errorf("%v: %d failed ranks for one node of %d slots", tech, len(res.FailedRanks), slots)
		}
		if res.Spawned != len(res.FailedRanks) {
			t.Errorf("%v: spawned %d for %d failures", tech, res.Spawned, len(res.FailedRanks))
		}
		if res.L1Error <= 0 || res.L1Error > 0.1 {
			t.Errorf("%v: error %g after node failure", tech, res.L1Error)
		}
		// All victims must share one host (rank/slots arithmetic).
		host := res.FailedRanks[0] / slots
		for _, r := range res.FailedRanks {
			if r/slots != host {
				t.Errorf("%v: victims %v span multiple hosts", tech, res.FailedRanks)
			}
		}
	}
}

// TestNodeFailureSpareCapacity: the failed node's processes all fit on the
// spare, preserving the load-balance property the paper claims for this
// policy.
func TestNodeFailureSpareCapacity(t *testing.T) {
	cfg := fastCfg(AlternateCombination)
	cfg.Faults = nodeFault
	cfg.SpareNodes = 1
	cfg.Seed = 11
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedRanks) > vtime.OPL().SlotsPerHost {
		t.Fatalf("%d replacements exceed one spare node", len(res.FailedRanks))
	}
}
