package core

import (
	"context"
	"math"
	"testing"
	"time"

	"hipress/internal/netsim"
)

// stragglerChaos builds the asymmetric-straggler fault plane: every link
// touching `victim` (both directions) carries a large deterministic delay,
// everything else is pristine. The delay is one-way, so the straggler's
// round trips take at least 2×min.
func stragglerChaos(seed uint64, n, victim int, min, max time.Duration) *netsim.ChaosConfig {
	links := map[netsim.Link]netsim.LinkFaults{}
	slow := netsim.LinkFaults{Delay: 1.0, DelayMin: min, DelayMax: max}
	for u := 0; u < n; u++ {
		if u == victim {
			continue
		}
		links[netsim.Link{Src: u, Dst: victim}] = slow
		links[netsim.Link{Src: victim, Dst: u}] = slow
	}
	return &netsim.ChaosConfig{Seed: seed, Links: links}
}

// TestStragglerConvictionStaticVsAdaptive is the health plane's headline
// scenario: one peer is 10×+ slower than the rest (asymmetric link delay,
// not dead). A static retry policy tuned for the fast links exhausts its
// attempts long before the straggler's acks can possibly arrive and
// falsely convicts it. The adaptive plane — φ-accrual evidence fed by
// heartbeats plus RTT-adaptive deadlines — keeps retrying within the
// evidence and finishes every round with zero convictions and exact sums.
func TestStragglerConvictionStaticVsAdaptive(t *testing.T) {
	const n = 4
	const victim = 3
	sizes := map[string]int{"w": 2048}
	// 40–45ms one-way on the straggler's links → ≥80ms round trips, vs
	// effectively-zero RTTs on the in-process fast links.
	chaos := stragglerChaos(99, n, victim, 40*time.Millisecond, 45*time.Millisecond)

	cases := []struct {
		name        string
		health      *HealthConfig
		retry       RetryPolicy
		rounds      int
		wantConvict bool
	}{
		{
			// Tuned for the fast links: 3 attempts, 2ms base backoff. The
			// last attempt is sent ~6ms in — no straggler ack can arrive
			// before suspicion, and the scoreboard (fast peers full of
			// successes, the straggler empty) convicts the innocent victim.
			name:        "static-tight-falsely-convicts",
			retry:       RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 8 * time.Millisecond},
			rounds:      1,
			wantConvict: true,
		},
		{
			// Same cluster, same chaos: the adaptive plane bootstraps at
			// 25ms, doubles past the 80ms round trip within two retries,
			// learns the real RTT from heartbeat echoes, and φ never
			// approaches conviction while heartbeats keep arriving.
			name:        "adaptive-tolerates",
			health:      &HealthConfig{Adaptive: true, HeartbeatEvery: 10 * time.Millisecond},
			rounds:      2,
			wantConvict: false,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lc, err := NewLiveCluster(n, LiveConfig{
				Strategy: StrategyPS, Parts: 2,
				Retry: tc.retry, Health: tc.health,
				RoundTimeout: 30 * time.Second,
				OnPeerFail:   DegradeExclude, Renormalize: true,
				Chaos: chaos,
			})
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < tc.rounds; round++ {
				grads, sums := makeGrads(uint64(50+round), n, sizes)
				out, health, err := lc.SyncRoundContext(context.Background(), grads)
				if err != nil {
					t.Fatalf("round %d: %v (health %s)", round, err, health)
				}
				if tc.wantConvict {
					if len(health.ExcludedPeers) != 1 || health.ExcludedPeers[0] != victim {
						t.Fatalf("static policy: ExcludedPeers = %v, want the straggler [%d]", health.ExcludedPeers, victim)
					}
					continue
				}
				if len(health.ExcludedPeers) != 0 {
					t.Fatalf("adaptive round %d falsely convicted %v (health %s)", round, health.ExcludedPeers, health)
				}
				// Zero exclusions → no renormalization → every node holds
				// the exact bitwise sum: the adaptive machinery (adaptive
				// deadlines, heartbeats) must leave no numeric trace.
				for v := 0; v < n; v++ {
					got, want := out[v]["w"], sums["w"]
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("adaptive round %d: node %d w[%d] = %x, want %x",
								round, v, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
			// The adaptive run must also have kept the straggler fully
			// healthy in the lifecycle (Slow is acceptable; Dead is not).
			if !tc.wantConvict {
				if st := lc.HealthStates()[victim]; st == HealthDead {
					t.Fatalf("adaptive run left the straggler %v", st)
				}
			}
		})
	}
}
