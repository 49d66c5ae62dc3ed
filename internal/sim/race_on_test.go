//go:build race

package sim

// raceEnabled reports that the race detector is active; allocation
// assertions are skipped under it.
const raceEnabled = true
