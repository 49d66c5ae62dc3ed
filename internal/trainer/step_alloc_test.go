//go:build !race

package trainer

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"hipress/internal/core"
)

// TestStepAllocs bounds what one steady-state TrainMLP step allocates: the
// difference in mallocs between a 120- and a 20-iteration run over the 100
// extra steps, the least of three such pairs (a round's sync.Pool misses move
// a single pair by up to one allocation a step). What it counts belongs to
// the synchronization round and the curve's growth: computing the workers'
// gradients and evaluating the loss allocate nothing. The bound is one above
// the 34.0–34.4 measured when the workers' gradients were computed in turn on
// the caller. Under the race detector sync.Pool drops its caches, so the
// bound holds only without it.
func TestStepAllocs(t *testing.T) {
	task := NewMLPTask(64, 128, 5)
	cfg := Config{Workers: 4, Strategy: core.StrategyPS, Algo: "terngrad", ErrorFeedback: true,
		Batch: 8, Seed: 5}
	mallocs := func(iters int) uint64 {
		c := cfg
		c.Iters = iters
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := TrainMLP(task, c); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs(20) // warm the arena
	per := math.Inf(1)
	for i := 0; i < 3; i++ {
		per = min(per, float64(mallocs(120)-mallocs(20))/100)
	}
	t.Logf("%.2f allocations per step", per)
	if per > 35.4 {
		t.Fatalf("a steady-state step allocated %.2f objects, want at most 35.4", per)
	}
}
