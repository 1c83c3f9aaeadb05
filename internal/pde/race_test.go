//go:build race

package pde

const raceEnabled = true
