package mpi

import (
	"errors"
	"fmt"
)

// Sentinel errors mirroring the MPI/ULFM error classes used by the paper.
var (
	// ErrProcFailed corresponds to MPI_ERR_PROC_FAILED: the operation
	// involved a process that has failed.
	ErrProcFailed = errors.New("mpi: process failed (MPI_ERR_PROC_FAILED)")
	// ErrRevoked corresponds to MPI_ERR_REVOKED: the communicator has been
	// revoked by OMPI_Comm_revoke.
	ErrRevoked = errors.New("mpi: communicator revoked (MPI_ERR_REVOKED)")
	// ErrComm corresponds to MPI_ERR_COMM: invalid communicator or rank.
	ErrComm = errors.New("mpi: invalid communicator or rank (MPI_ERR_COMM)")
	// ErrType reports a datatype mismatch between a send and its receive.
	ErrType = errors.New("mpi: datatype mismatch")
	// ErrTruncate corresponds to MPI_ERR_TRUNCATE: the message received is
	// longer than the buffer given to RecvInto.
	ErrTruncate = errors.New("mpi: message truncated (MPI_ERR_TRUNCATE)")
)

// FailedError wraps ErrProcFailed with the identity of a failed process.
// The runtime shares its values: every observer of one death on one
// communicator gets the same *FailedError, and every failure detected
// collectively the same one with Rank and WorldRank -1. Read them, never
// write to them.
type FailedError struct {
	// Rank is the rank of the failed process in the communicator on which
	// the failure was observed; -1 when unknown (collective detection).
	Rank int
	// WorldRank is the failed process's global identity.
	WorldRank int
}

func (e *FailedError) Error() string {
	if e.Rank < 0 {
		return "mpi: process failed (MPI_ERR_PROC_FAILED)"
	}
	return fmt.Sprintf("mpi: process failed: rank %d (world %d) (MPI_ERR_PROC_FAILED)", e.Rank, e.WorldRank)
}

// Unwrap lets errors.Is(err, ErrProcFailed) succeed.
func (e *FailedError) Unwrap() error { return ErrProcFailed }

// errCollectiveFailed is the failure detected collectively, when no one
// failed process is named.
var errCollectiveFailed error = &FailedError{Rank: -1, WorldRank: -1}
