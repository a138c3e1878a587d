//go:build race

package core

// raceEnabled reports a race-detector build, whose instrumentation keeps
// temporaries that an ordinary build does not allocate.
const raceEnabled = true
