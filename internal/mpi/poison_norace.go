//go:build !race

package mpi

import "unsafe"

// poison is the race build's use-after-release tripwire (poison_race.go);
// here a release costs nothing extra.
func poison(unsafe.Pointer, int) {}

// lent and checkNotLent are the race build's lent-result tripwire
// (poison_race.go); here a collective's result is returned as it is and a
// release checks nothing.
func lent[T any](b []T) []T { return b }

func checkNotLent(unsafe.Pointer) {}
