package vtime

// Cost-model components for attribution. Every virtual second the model
// charges belongs to exactly one of these, so an instrumented run can break
// its virtual time down the same way the paper's Table I and Fig. 8 break
// down the recovery: LogGP terms (alpha latency, beta transfer, o send/recv
// overheads), local compute, disk I/O, and the beta-ULFM repair components.
const (
	CompAlpha     = "alpha"         // per-message network latency
	CompBeta      = "beta"          // per-byte transfer cost
	CompOSend     = "o_send"        // sender CPU occupancy per message
	CompORecv     = "o_recv"        // receiver CPU occupancy per message
	CompCompute   = "compute"       // stencil updates and other local work
	CompDiskWrite = "disk_write"    // checkpoint write T_I/O
	CompDiskRead  = "disk_read"     // checkpoint read
	CompShrink    = "ulfm_shrink"   // OMPI_Comm_shrink
	CompSpawn     = "ulfm_spawn"    // MPI_Comm_spawn_multiple
	CompAgree     = "ulfm_agree"    // OMPI_Comm_agree
	CompMerge     = "ulfm_merge"    // MPI_Intercomm_merge
	CompRevoke    = "ulfm_revoke"   // OMPI_Comm_revoke
	CompAck       = "ulfm_ack"      // error-handler failure_ack delay
	CompGroupOp   = "ulfm_group_op" // MPI_Group_* algebra (Fig. 6)
	CompMgmt      = "comm_mgmt"     // split/dup/create management collectives
)

// CostObserver receives the modelled cost attribution of one simulated
// process. Implementations must be safe for concurrent use: every process of
// a world typically shares one observer.
type CostObserver interface {
	// ObserveCost attributes seconds of modelled cost to a component. It is
	// called both for costs advanced on the local clock (AdvanceAttr) and
	// for costs the model charges elsewhere, e.g. the network alpha/beta of
	// a message whose transfer time materialises on the receiver's clock
	// (Observe).
	ObserveCost(component string, seconds float64)
}

// SetObserver attaches a cost observer to the clock (nil detaches). The
// observer does not alter timekeeping; it only mirrors attributed charges.
func (c *Clock) SetObserver(o CostObserver) { c.obs = o }

// AdvanceAttr advances the clock like Advance and attributes the charge to
// the given cost component.
func (c *Clock) AdvanceAttr(dt float64, component string) {
	c.Advance(dt)
	if c.obs != nil {
		c.obs.ObserveCost(component, dt)
	}
}
