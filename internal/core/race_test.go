//go:build race

package core

// raceEnabled lets allocation pins allow for builds in which sync.Pool
// drops items at random.
const raceEnabled = true
