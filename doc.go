// Package ftsg reproduces "Application Level Fault Recovery: Using
// Fault-Tolerant Open MPI in a PDE Solver" (Ali, Southern, Strazdins,
// Harding — IEEE IPDPSW 2014) as a self-contained Go system: a simulated
// MPI runtime with the draft ULFM fault-tolerance extensions, a 2D
// advection solver parallelised with the sparse grid combination technique,
// the paper's process-recovery protocol, and its three data-recovery
// techniques (Checkpoint/Restart, Resampling and Copying, Alternate
// Combination).
//
// The library lives under internal/ (see DESIGN.md for the inventory);
// cmd/experiments regenerates every table and figure of the paper's
// evaluation, and benchmark/ measures the program end to end and layer by
// layer.
package ftsg
