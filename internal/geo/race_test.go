//go:build race

package geo

// raceEnabled reports a race-detector build, where sync.Pool drops pooled
// items at random, so pooled allocation counts do not hold.
const raceEnabled = true
