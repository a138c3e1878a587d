//go:build race

package cityhunter_test

// raceEnabled reports a race-detector build, whose instrumentation
// allocates, so allocation pins do not hold.
const raceEnabled = true
