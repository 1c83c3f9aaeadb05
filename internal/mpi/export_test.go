package mpi

import "sync/atomic"

// Test-only access to the reduction fold for the external-package tests in
// fold_test.go, which take the operators exactly as a caller of this package
// does.

// Fold runs dst[i] = op(a[i], b[i]) through the fold every reduction uses and
// reports whether op was recognised and ran as a fused loop.
func Fold[T any](op func(T, T) T, dst, a, b []T) (fused bool) {
	fo := newFolder(op)
	fo.fold(dst, a, b)
	return fo.fused != nil
}

// countTopoBuilds counts commTopo builds (through testHookBuildTopo) until
// the returned stop is called. Set it before the world runs.
func countTopoBuilds() (builds *atomic.Int64, stop func()) {
	builds = new(atomic.Int64)
	testHookBuildTopo = func() { builds.Add(1) }
	return builds, func() { testHookBuildTopo = nil }
}

// departureWalks returns how many departures in w walked its process
// table, whatever made them walk.
func departureWalks(w *World) uint64 { return w.wakes[evDeparture].walks.Load() }
