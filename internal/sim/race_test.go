//go:build race

package sim

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// random share of the simulators put back into it.
const raceEnabled = true
