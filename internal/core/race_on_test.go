//go:build race

package core

// raceEnabled reports that the race detector is active; wall-clock gates
// whose margins its slowdown swamps skip themselves.
const raceEnabled = true
