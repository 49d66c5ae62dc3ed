//go:build race

package netsim

// raceEnabled reports that the race detector is active. Under -race,
// sync.Pool intentionally bypasses its caches at random, so the allocation
// gate on the leased receive path is skipped.
const raceEnabled = true
