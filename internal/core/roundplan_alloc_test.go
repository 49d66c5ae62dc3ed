//go:build !race

package core

import (
	"fmt"
	"testing"

	"hipress/internal/compress"
)

// TestSteadyStateRoundAllocs bounds what a steady-state round allocates: once
// its plan is cached and the arena warm, a reliable pipelined PS round over
// ~100 dgc-compressed gradients builds no graph, and completing a task,
// waiting for an ack or settling one allocates nothing — the link and
// transfer tables come with the plan, a lane worker's timer and rendezvous
// from a pool, batched-ack refs from slabs. Over chan the round allocates
// fewer than one object per four tasks of its DAG; over loopback TCP, which
// still builds a transport per round (listeners, connections, read loops,
// one name table), fewer than one per two. (Rebuilding the DAG every round,
// with a timer per ack wait, cost about 4.7 per task over chan; a channel per
// transfer, per-frame refs and per-stream name tables about 0.56.) Under the
// race detector sync.Pool drops its caches, so the bounds hold only without
// it.
func TestSteadyStateRoundAllocs(t *testing.T) {
	const n = 4
	sizes := map[string]int{}
	for i := 0; i < 100; i++ {
		sizes[fmt.Sprintf("g%03d", i)] = 256 + 64*i
	}
	for _, c := range []struct {
		transport string
		perTask   int // the bound: fewer than tasks/perTask allocations
	}{{"chan", 4}, {"tcp", 2}} {
		t.Run(c.transport, func(t *testing.T) {
			lc, err := NewLiveCluster(n, LiveConfig{Strategy: StrategyPS, Parts: 1,
				Algo: "dgc", ErrorFeedback: true, Params: compress.Params{"ratio": 0.01},
				Transport: c.transport})
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
			if allocs >= float64(tasks/c.perTask) {
				t.Fatalf("a steady-state round allocated %.0f objects for %d tasks, want fewer than one per %d tasks",
					allocs, tasks, c.perTask)
			}
		})
	}
}
