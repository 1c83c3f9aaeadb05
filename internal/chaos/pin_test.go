package chaos

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"ftsg/internal/core"
	"ftsg/internal/faultgen"
)

// pinnedScenarioDigest is the sha-256 of every scenario seeds 1–256 draw:
// each seed's Scenario.String() plus, per technique, the victims and
// triggers its chaos configuration draws. A change to the scenario
// generator, the technique swap or the victim sampler moves it.
const pinnedScenarioDigest = "2b0732cf9610aa892bc4e843c446741edf31c44e3f58ed8e4c4e7a7f5d4e5096"

// drawnPlan renders the failure plan a chaos configuration draws, mapping
// it onto faultgen as core.Run does: ranks onto their sub-grids, RC's
// recovery pairs as conflicts, four-slot hosts in rank order. Each victim
// reads "rank@trigger", ascending by rank.
func drawnPlan(cfg core.Config) (string, error) {
	cfg = cfg.WithDefaults()
	grids := cfg.Grids()
	slots := cfg.Machine.SlotsPerHost
	fcfg := faultgen.Config{Seed: cfg.Seed, NumRanks: cfg.NumProcs(), GridOf: func(r int) int {
		for _, g := range grids {
			if r >= g.FirstRank && r < g.FirstRank+g.Procs {
				return g.ID
			}
		}
		return -1
	}, HostOf: func(r int) int { return r / slots }}
	if cfg.Technique == core.ResamplingCopying {
		diag := 0
		for _, g := range grids {
			if g.Role == core.RoleDiagonal {
				diag++
			}
		}
		for _, g := range grids {
			switch g.Role {
			case core.RoleDiagonal:
				fcfg.Conflicts = append(fcfg.Conflicts, [2]int{g.ID, 2*diag - 1 + g.ID})
			case core.RoleLowerDiagonal:
				fcfg.Conflicts = append(fcfg.Conflicts, [2]int{g.ID, g.ID - diag + 1})
			}
		}
	}
	plan, err := faultgen.NewPlan(fcfg, cfg.Faults)
	if err != nil {
		return "", err
	}
	return plan.String(), nil
}

// TestScenarioPlansPinned: seeds 1–256 draw exactly the pinned scenarios
// and, under every technique, the pinned victims and triggers.
func TestScenarioPlansPinned(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= 256; seed++ {
		sc := NewScenario(seed)
		fmt.Fprintln(h, sc)
		for _, tech := range Techniques {
			plan, err := drawnPlan(sc.ConfigFor(tech))
			if err != nil {
				t.Fatalf("%s under %s: %v", sc, tech, err)
			}
			fmt.Fprintf(h, "%s %s\n", tech, plan)
			if testing.Verbose() && seed <= 12 {
				t.Logf("%s | %s %s", sc, tech, plan)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != pinnedScenarioDigest {
		t.Errorf("scenario digest %s, want %s", got, pinnedScenarioDigest)
	}
}
