//go:build !race

package mpi

import "unsafe"

// poison is the race build's use-after-release tripwire (poison_race.go);
// here a release costs nothing extra.
func poison(unsafe.Pointer, int) {}
