//go:build race

package checkpoint

// raceEnabled lets allocation pins skip builds in which sync.Pool drops
// items at random.
const raceEnabled = true
