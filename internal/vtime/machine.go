package vtime

// Machine describes a simulated cluster's performance characteristics. The
// two profiles shipped with the library correspond to the paper's test
// systems: the 432-core OPL cluster at Fujitsu Laboratories of Europe
// (InfiniBand QDR, typical disk write latency) and the Raijin system at NCI
// (InfiniBand FDR, very low disk write latency).
type Machine struct {
	// Name identifies the profile in reports.
	Name string

	// Alpha is the point-to-point message latency in seconds for the
	// default link tier: two hosts in the same rack (the network fabric).
	Alpha float64
	// Beta is the transfer cost in seconds per byte on the same tier.
	Beta float64

	// IntraAlpha and IntraBeta are the latency and per-byte cost between
	// two ranks placed on the SAME host (shared-memory BTL). Zero values
	// fall back to Alpha/Beta, keeping the model flat — old profiles and
	// the Generic test profile are unchanged.
	IntraAlpha float64
	IntraBeta  float64

	// XRackAlpha and XRackBeta are the latency and per-byte cost between
	// hosts in DIFFERENT racks (an extra switch hop / oversubscribed
	// uplink). Zero values fall back to Alpha/Beta.
	XRackAlpha float64
	XRackBeta  float64
	// SendOverhead and RecvOverhead are the CPU occupancy per message on
	// the sending and receiving side (the o of LogGP).
	SendOverhead float64
	RecvOverhead float64

	// TIOWrite is the time for a single process to write one checkpoint
	// to disk (the paper's T_I/O). TIORead is the corresponding read time.
	TIOWrite float64
	TIORead  float64

	// CellCost is the virtual compute cost, in seconds, of one
	// Lax-Wendroff cell update. It calibrates solver time against
	// communication and recovery costs.
	CellCost float64

	// SlotsPerHost is the number of MPI slots per node (12 on OPL:
	// dual-socket, six cores per socket).
	SlotsPerHost int

	// ULFM models the beta fault-tolerant Open MPI component costs.
	ULFM ULFMModel
}

// OPL returns the profile of the OPL cluster: 36 dual-socket nodes of 6-core
// Xeon X5670, InfiniBand QDR, and a typical disk write latency of
// T_I/O = 3.52 s per checkpoint (Section III-B of the paper).
func OPL() *Machine {
	return &Machine{
		Name:         "OPL",
		Alpha:        2.0e-6,
		Beta:         3.3e-10, // ~3 GB/s effective QDR bandwidth
		IntraAlpha:   0.6e-6,  // shared-memory BTL latency
		IntraBeta:    1.0e-10, // ~10 GB/s intra-node copy bandwidth
		XRackAlpha:   3.0e-6,  // extra leaf-spine switch hop
		XRackBeta:    5.0e-10, // oversubscribed inter-rack uplink
		SendOverhead: 0.5e-6,
		RecvOverhead: 0.5e-6,
		TIOWrite:     3.52,
		TIORead:      1.10,
		CellCost:     8.0e-9,
		SlotsPerHost: 12,
		ULFM:         betaULFM(),
	}
}

// Raijin returns the profile of NCI's Raijin system: Intel Sandy Bridge,
// InfiniBand FDR, and an ultra-low checkpoint write latency of
// T_I/O = 0.03 s (two orders of magnitude below a typical cluster).
func Raijin() *Machine {
	return &Machine{
		Name:         "Raijin",
		Alpha:        1.3e-6,
		Beta:         1.8e-10, // ~5.5 GB/s effective FDR bandwidth
		IntraAlpha:   0.4e-6,  // Sandy Bridge shared-memory latency
		IntraBeta:    0.6e-10, // ~16 GB/s intra-node copy bandwidth
		XRackAlpha:   2.0e-6,  // FDR fat-tree upper tier
		XRackBeta:    2.7e-10,
		SendOverhead: 0.4e-6,
		RecvOverhead: 0.4e-6,
		TIOWrite:     0.03,
		TIORead:      0.02,
		CellCost:     6.0e-9,
		SlotsPerHost: 16,
		ULFM:         betaULFM(),
	}
}

// Generic returns a neutral commodity-cluster profile, useful for tests and
// examples that do not target one of the paper's systems.
func Generic() *Machine {
	return &Machine{
		Name:         "generic",
		Alpha:        10e-6,
		Beta:         1.0e-9,
		SendOverhead: 1e-6,
		RecvOverhead: 1e-6,
		TIOWrite:     1.0,
		TIORead:      0.5,
		CellCost:     10e-9,
		SlotsPerHost: 8,
		ULFM:         betaULFM(),
	}
}

// PtToPt returns the virtual one-way transfer time for a message of the
// given size in bytes on the default (same-rack network) tier:
// Alpha + bytes*Beta.
func (m *Machine) PtToPt(bytes int) float64 {
	return m.Alpha + float64(bytes)*m.Beta
}

// LinkTier classifies a message by the placement of its two endpoints.
type LinkTier int

const (
	// TierNode: both endpoints on the same host (shared memory).
	TierNode LinkTier = iota
	// TierRack: different hosts in the same rack (the default fabric).
	TierRack
	// TierXRack: hosts in different racks.
	TierXRack
	// NumTiers is the number of link tiers.
	NumTiers = 3
)

// LinkAlphaBeta returns the latency and per-byte cost of the given tier,
// applying the zero-value fallback to the flat Alpha/Beta.
func (m *Machine) LinkAlphaBeta(t LinkTier) (alpha, beta float64) {
	alpha, beta = m.Alpha, m.Beta
	switch t {
	case TierNode:
		if m.IntraAlpha != 0 {
			alpha = m.IntraAlpha
		}
		if m.IntraBeta != 0 {
			beta = m.IntraBeta
		}
	case TierXRack:
		if m.XRackAlpha != 0 {
			alpha = m.XRackAlpha
		}
		if m.XRackBeta != 0 {
			beta = m.XRackBeta
		}
	}
	return alpha, beta
}
