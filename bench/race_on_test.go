//go:build race

package main

// raceEnabled reports whether the race detector is active; TestSmoke then
// skips the traced runs to stay short.
const raceEnabled = true
