//go:build !race

package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"hipress/internal/compress"
)

// TestSteadyStateRoundAllocs bounds what a steady-state round allocates: once
// its plan is cached and the arena warm, a reliable pipelined PS round over
// ~100 dgc-compressed gradients builds no graph, and completing a task,
// waiting for an ack or settling one allocates nothing — the link and
// transfer tables come with the plan, a lane worker's timer and rendezvous
// from a pool, batched-ack refs from slabs, and a node's results from one
// slab. The bounds are the 2,700-task round's measured counts plus 15 %: 76
// over chan; 607 over loopback TCP, which still builds a transport per round
// (listeners, connections, read loops, one name table). (Rebuilding the DAG
// every round, with a timer per ack wait, cost about 4.7 per task over chan;
// a channel per transfer, per-frame refs and per-stream name tables about
// 0.56; a result slice per gradient per node 400 more.) Under the race
// detector sync.Pool drops its caches, so the bounds hold only without it.
func TestSteadyStateRoundAllocs(t *testing.T) {
	const n = 4
	sizes := map[string]int{}
	for i := 0; i < 100; i++ {
		sizes[fmt.Sprintf("g%03d", i)] = 256 + 64*i
	}
	for _, c := range []struct {
		transport string
		bound     float64 // fewer allocations than this
	}{{"chan", 87}, {"tcp", 698}} {
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
			if allocs >= c.bound {
				t.Fatalf("a steady-state round allocated %.0f objects for %d tasks, want fewer than %.0f",
					allocs, tasks, c.bound)
			}
		})
	}
}

// TestSyncRoundIntoSteadyStateBytes: a warmed round into destinations the
// caller owns allocates bytes independent of the gradients' size — its results
// land in dst, its accumulators and payloads in the warm arena. Over chan, a
// ring of raw gradients and a PS of dgc with error feedback each stay under
// 64 KiB a round with 4 KiB and with 4 MiB per node. Collection is off from
// the warm-up on, so the arena's pools keep their buffers, and the bound is on
// the median round: a warm pool can still miss once, when the buffer a round
// needs sits in the private slot of a processor none of its gets run on
// (sync.Pool steals only from the shared lists), and the arena grows by it.
func TestSyncRoundIntoSteadyStateBytes(t *testing.T) {
	const n, rounds = 4, 9
	for _, arm := range []struct {
		name string
		cfg  LiveConfig
	}{
		{"ring/raw", LiveConfig{Strategy: StrategyRing, Parts: 2}},
		{"ps/dgc+ef", LiveConfig{Strategy: StrategyPS, Parts: 2, Algo: "dgc", ErrorFeedback: true,
			Params: compress.Params{"ratio": 0.01}}},
	} {
		for _, elems := range []int{1 << 10, 1 << 20} {
			t.Run(fmt.Sprintf("%s/%dKiB", arm.name, elems>>8), func(t *testing.T) {
				lc, err := NewLiveCluster(n, arm.cfg)
				if err != nil {
					t.Fatal(err)
				}
				grads, _ := makeGrads(1, n, map[string]int{"big": elems, "small": 64})
				dst, _ := carveDst(grads)
				round := func() {
					if _, err := lc.SyncRoundInto(context.Background(), grads, dst); err != nil {
						t.Fatal(err)
					}
				}
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				for i := 0; i < 3; i++ { // cache the plan, warm the arena
					round()
				}
				var bytes [rounds]uint64
				for i := range bytes {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					round()
					runtime.ReadMemStats(&after)
					bytes[i] = after.TotalAlloc - before.TotalAlloc
				}
				t.Logf("bytes allocated per round: %v", bytes)
				slices.Sort(bytes[:])
				if med := bytes[rounds/2]; med >= 64<<10 {
					t.Fatalf("the median steady-state round into dst allocated %d bytes, want under 64 KiB", med)
				}
			})
		}
	}
}
