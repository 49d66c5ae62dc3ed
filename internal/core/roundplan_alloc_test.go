//go:build !race

package core

import (
	"fmt"
	"testing"

	"hipress/internal/compress"
)

// TestSteadyStateRoundAllocs bounds what a steady-state round allocates: once
// its plan is cached and the arena warm, a reliable pipelined PS round over
// ~100 dgc-compressed gradients allocates less than one object per task of its
// DAG — it builds no graph, and completing a task or waiting for an ack
// allocates nothing. (Rebuilding the DAG every round, with a timer per ack
// wait, cost about 4.7 per task on this round.) Under the race detector
// sync.Pool drops its caches, so the bound holds only without it.
func TestSteadyStateRoundAllocs(t *testing.T) {
	const n = 4
	sizes := map[string]int{}
	for i := 0; i < 100; i++ {
		sizes[fmt.Sprintf("g%03d", i)] = 256 + 64*i
	}
	lc, err := NewLiveCluster(n, LiveConfig{Strategy: StrategyPS, Parts: 1,
		Algo: "dgc", ErrorFeedback: true, Params: compress.Params{"ratio": 0.01},
		Reliable: true, Pipeline: PipelineConfig{Window: 4, AckBatch: 4}})
	if err != nil {
		t.Fatal(err)
	}
	grads, _ := makeGrads(1, n, sizes)
	for i := 0; i < 3; i++ { // cache the plan, warm the arena
		if _, err := lc.SyncRound(grads); err != nil {
			t.Fatal(err)
		}
	}
	tasks := len(lc.plan.Load().g.Tasks)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := lc.SyncRound(grads); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per round, %d tasks", allocs, tasks)
	if allocs >= float64(tasks) {
		t.Fatalf("a steady-state round allocated %.0f objects for %d tasks, want fewer than one per task", allocs, tasks)
	}
}
