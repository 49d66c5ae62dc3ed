package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hipress/internal/compress"
	"hipress/internal/netsim"
)

// takePlan takes lc's cached plan through the constructor a round takes it
// through, for a round over g0 under the active epoch, checks that every task
// then holds its saved dependency count and that the saved counts are a freshly
// built graph's, that every link row is empty — no queued send, no worker, no
// pending ack or wake token, no ack worker started, sequence 0 — and the
// transfer table zeroed, and puts the plan back.
func takePlan(t *testing.T, lc *LiveCluster, g0 map[string][]float32) *roundPlan {
	t.Helper()
	cached := lc.plan.Swap(nil)
	if cached == nil {
		t.Fatal("no plan cached after a round")
	}
	defer lc.plan.Store(cached)
	p, err := lc.planRound(cached, lc.Epoch(), cached.fit(g0), g0)
	if err != nil {
		t.Fatal(err)
	}
	if p != cached {
		t.Fatal("a plan of the round's epoch and shapes was not reused")
	}
	fresh, err := lc.planRound(nil, lc.Epoch(), p.names, g0)
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range p.g.Tasks {
		if tk.deps != p.deps[i] || p.deps[i] != fresh.g.Tasks[i].deps {
			t.Fatalf("task %d taken with %d deps, saved %d, a fresh graph's %d", i, tk.deps, p.deps[i], fresh.g.Tasks[i].deps)
		}
	}
	for i := range p.links {
		if l := &p.links[i]; len(l.queue) != 0 || l.head != 0 || l.workers != 0 || l.depth != 0 ||
			len(l.pending) != 0 || len(l.wake) != 0 || l.started || l.seq != 0 {
			t.Fatalf("link row %d taken with %d queued (head %d), %d workers, depth %d, %d acks pending, %d wake tokens, started=%v, seq %d",
				i, len(l.queue), l.head, l.workers, l.depth, len(l.pending), len(l.wake), l.started, l.seq)
		}
	}
	for i, x := range p.xfer {
		if x != (transfer{}) {
			t.Fatalf("transfer %d taken as %+v, want zero", i, x)
		}
	}
	return p
}

// planDirty reports whether a round left anything in p's link or transfer
// table for the next take to reset.
func planDirty(p *roundPlan) bool {
	for i := range p.links {
		if l := &p.links[i]; l.depth != 0 || l.started || l.seq != 0 || len(l.queue) != 0 {
			return true
		}
	}
	for _, x := range p.xfer {
		if x != (transfer{}) {
			return true
		}
	}
	return false
}

// TestRoundPlanConcurrentRounds: rounds running at once on one cluster never
// share a plan — the one that finds the cache empty builds its own — so each
// returns exactly what it returns alone.
func TestRoundPlanConcurrentRounds(t *testing.T) {
	const n, workers, rounds = 3, 3, 5
	sizes := map[string]int{"w1": 700, "w2": 64}
	lc, err := NewLiveCluster(n, LiveConfig{Strategy: StrategyPS, Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	grads, _ := makeGrads(1, n, sizes)
	out, err := lc.SyncRound(grads)
	if err != nil {
		t.Fatal(err)
	}
	want := digestRound(out)
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < rounds; i++ {
				out, err := lc.SyncRound(grads)
				if err == nil && digestRound(out) != want {
					err = fmt.Errorf("digest %016x, want %016x", digestRound(out), want)
				}
				errs <- err
			}
		}()
	}
	for i := 0; i < workers*rounds; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRoundPlanReuse pins the round plan cache: rounds with the same epoch and
// gradient shapes run on one plan, whose counters a round hands back as it
// left them and the next take restores; an epoch activation (also one that
// keeps the Version), a changed length and a changed name set each build a new
// plan; and a round cut off part-way leaves nothing behind that changes what
// the next round computes — neither in the DAG's counters nor in the link and
// transfer tables the plan carries, over the zero pipeline and a windowed,
// ack-batching one.
func TestRoundPlanReuse(t *testing.T) {
	const n = 3
	sizes := map[string]int{"w1": 700, "w2": 64, "w3": 300}
	for _, strat := range []Strategy{StrategyPS, StrategyRing} {
		for _, c := range []struct {
			reliable bool
			pipe     PipelineConfig
			suffix   string
		}{{false, PipelineConfig{}, ""}, {true, PipelineConfig{}, ""}, {true, PipelineConfig{Window: 4, AckBatch: 4}, "/w4-ackbatch4"}} {
			t.Run(fmt.Sprintf("%v/reliable=%v%s", strat, c.reliable, c.suffix), func(t *testing.T) {
				cfg := LiveConfig{Strategy: strat, Parts: 2, Algo: "dgc", Params: compress.Params{"ratio": 0.25},
					Reliable: c.reliable, Pipeline: c.pipe, RoundTimeout: 10 * time.Second,
					Retry: RetryPolicy{MaxAttempts: 8, BaseBackoff: 20 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}}
				lc, err := NewLiveCluster(n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewLiveCluster(n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// round runs one round on c and returns its digest and the plan
				// it handed back.
				round := func(c *LiveCluster, seed uint64, sizes map[string]int) (uint64, *roundPlan) {
					t.Helper()
					grads, _ := makeGrads(seed, n, sizes)
					out, err := c.SyncRound(grads)
					if err != nil {
						t.Fatalf("round %d: %v", seed, err)
					}
					return digestRound(out), c.plan.Load()
				}

				var first *roundPlan
				for seed := uint64(1); seed <= 3; seed++ {
					_, p := round(lc, seed, sizes)
					round(fresh, seed, sizes)
					if first == nil {
						first = p
					}
					if p != first || p.g != first.g {
						t.Fatalf("round %d ran on a new plan with the same epoch and shapes", seed)
					}
					for i, tk := range p.g.Tasks {
						if tk.deps != 0 {
							t.Fatalf("round %d handed its plan back reset (task %d at %d deps): the take, not the return, resets", seed, i, tk.deps)
						}
					}
					grads, _ := makeGrads(seed, n, sizes)
					takePlan(t, lc, grads[0])
				}

				// A blackout round cut off by its deadline hands the plan back
				// part-way; the clean round after it computes what a cluster
				// that never saw it computes.
				if err := lc.SetChaos(&netsim.ChaosConfig{NodeDown: map[int]bool{n - 1: true}}); err != nil {
					t.Fatal(err)
				}
				grads, _ := makeGrads(4, n, sizes)
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				_, _, err = lc.SyncRoundContext(ctx, grads)
				cancel()
				if err == nil {
					t.Fatal("a round with a node blacked out succeeded")
				}
				p := lc.plan.Load()
				if p != first {
					t.Fatal("the failed round did not hand its plan back")
				}
				partWay := false
				for i, tk := range p.g.Tasks {
					partWay = partWay || tk.deps != p.deps[i]
				}
				if !partWay {
					t.Fatal("the failed round left every counter at its saved value: nothing here tests the reset")
				}
				if !planDirty(p) {
					t.Fatal("the failed round left its link and transfer tables empty: nothing here tests their reset")
				}
				takePlan(t, lc, grads[0])
				if err := lc.SetChaos(nil); err != nil {
					t.Fatal(err)
				}
				got, p := round(lc, 5, sizes)
				want, _ := round(fresh, 5, sizes)
				if p != first || got != want {
					t.Fatalf("after a failed round: digest %016x on plan reused=%v, fresh cluster %016x", got, p == first, want)
				}

				// What changes the plan.
				changed := map[string]int{"w1": 700, "w2": 65, "w3": 300}
				if _, p := round(lc, 6, changed); p == first {
					t.Fatal("a changed gradient length reused the plan")
				}
				renamed := map[string]int{"w1": 700, "w2": 64, "w4": 300}
				_, last := round(lc, 7, renamed)
				if last == first {
					t.Fatal("a changed name set reused the plan")
				}
				next := lc.Epoch()
				next.Version, next.Parts = next.Version+1, 3
				if err := lc.ProposeEpoch(next); err != nil {
					t.Fatal(err)
				}
				_, p = round(lc, 8, renamed)
				if p == last || p.epoch != next {
					t.Fatalf("an epoch activation reused the plan (epoch %v)", p.epoch)
				}
				last = p
				same := next
				same.Parts = 2
				if err := lc.RestoreEpoch(same, lc.Rounds()); err != nil {
					t.Fatal(err)
				}
				if _, p = round(lc, 9, renamed); p == last || p.epoch != same {
					t.Fatalf("an epoch of the same Version and new Parts reused the plan (epoch %v)", p.epoch)
				}
			})
		}
	}
}
