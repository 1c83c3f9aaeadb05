// This file names the repair strategies the one protocol of recovery.go
// runs: the paper's spawn, shrink-only (continue with fewer ranks),
// substitute (wake pre-allocated spare processes instead of spawning), and
// no-repair (shrink so collectives keep working, but recover no data — the
// measured degraded baseline). A mode selects only how repair acquires
// replacements; the Fig. 3 loop and the rest of Fig. 5 are shared.
package recovery

import (
	"fmt"

	"ftsg/internal/mpi"
)

// Mode selects how a broken communicator is repaired.
type Mode int

const (
	// ModeSpawn is the paper's protocol: re-spawn replacements and restore
	// the communicator to full size.
	ModeSpawn Mode = iota
	// ModeShrink repairs by shrinking: survivors continue with fewer ranks
	// and the application redistributes the dead ranks' work.
	ModeShrink
	// ModeSubstitute restores full size from pre-allocated spare processes
	// (mpi.Options.SpareRanks) via ClaimSpares; when the spares are
	// exhausted the round falls back to shrink-only, deterministically for
	// every member.
	ModeSubstitute
	// ModeNoRepair shrinks the communicator (collectives must keep working)
	// but the application recovers no data: affected sub-grids are abandoned.
	ModeNoRepair
)

// String returns the mode's flag spelling (see ParseMode).
func (m Mode) String() string {
	switch m {
	case ModeSpawn:
		return "spawn"
	case ModeShrink:
		return "shrink"
	case ModeSubstitute:
		return "substitute"
	case ModeNoRepair:
		return "norepair"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses a -recovery-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "spawn":
		return ModeSpawn, nil
	case "shrink":
		return ModeShrink, nil
	case "substitute":
		return ModeSubstitute, nil
	case "norepair", "no-repair":
		return ModeNoRepair, nil
	}
	return 0, fmt.Errorf("recovery: unknown mode %q (want spawn, shrink, substitute or norepair)", s)
}

// Modes lists every recovery mode in presentation order.
var Modes = []Mode{ModeSpawn, ModeShrink, ModeSubstitute, ModeNoRepair}

// ModeResult is what ReconstructMode hands back to the application.
type ModeResult struct {
	// Comm is the reconstructed communicator; Rank the caller's rank in it.
	Comm *mpi.Comm
	Rank int
	// OrigOf maps each Comm rank to its original (pre-failure) rank. Under
	// spawn and successful substitute repairs this is the identity the
	// caller passed in; shrink repairs remove the failed positions. nil for
	// attached children, which learn the mapping from the survivors'
	// recovery-info broadcast.
	OrigOf []int
	// Fallbacks counts substitute rounds that found the spares exhausted
	// and degraded to shrink-only.
	Fallbacks int
}

// ReconstructMode is Reconstruct with the replacement placement and the
// repair mode chosen by the caller. Survivors pass their current
// communicator, a nil parent, and origOf — the original rank behind each
// current communicator position (identity on the first call; thread the
// returned OrigOf through subsequent calls; nil means the identity under
// spawn, which never moves a position). Re-spawned children and
// substitute-claimed spares pass a nil communicator, their Proc.Parent, and
// nil origOf.
//
// Stats.FailedRanks reports the union of ranks lost across every repair
// round of this call in ORIGINAL numbering (claimed spares, which cannot
// derive it, report none and learn the list from the application's
// broadcast).
func ReconstructMode(p *mpi.Proc, myWorld, parent *mpi.Comm, st *Stats, place Placement, mode Mode, origOf []int) (*ModeResult, error) {
	res := new(ModeResult)
	if err := ReconstructModeInto(res, p, myWorld, parent, st, place, mode, origOf); err != nil {
		return nil, err
	}
	return res, nil
}

// ReconstructModeInto is ReconstructMode writing its result into res, which
// the caller owns and may reuse from call to call: a rank that repairs at
// every detection point keeps one ModeResult for its whole run. On success
// every field of res is overwritten; on error res holds no usable result.
func ReconstructModeInto(res *ModeResult, p *mpi.Proc, myWorld, parent *mpi.Comm, st *Stats, place Placement, mode Mode, origOf []int) error {
	c, rank, err := reconstruct(p, myWorld, parent, st, place, mode, origOf, res)
	if err != nil {
		return err
	}
	res.Comm, res.Rank = c, rank
	return nil
}
