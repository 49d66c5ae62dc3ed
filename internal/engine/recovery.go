package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"hipress/internal/core"
	"hipress/internal/netsim"
	"hipress/internal/telemetry"
	"hipress/internal/tensor"
)

// This file implements the "recovery" experiment: a scripted elastic-rejoin
// lifecycle on the live execution plane, measuring how many rounds (and how
// many retry timeouts) a peer blackout costs with and without cross-round
// membership, and how quickly the cluster returns to full participation
// after the peer announces rejoin. It is the driver-facing view of the
// recovery plane built from internal/ckpt + core elastic membership.

// recoveryRounds is the number of synchronization rounds the scripted
// lifecycle runs: 2 blackout rounds, 1 post-blackout round without
// announcement, rejoin announce, 2 probation rounds, 2 steady-state rounds.
const recoveryRounds = 7

// RecoveryExp runs the elastic-rejoin lifecycle on a real 4-node LiveCluster
// (PS, onebit + error feedback, reliable delivery): node 3 is blacked out,
// convicted by the scoreboard detector in round 1, carried as a membership
// exclusion (zero detection cost) in round 2, stays excluded after the
// blackout lifts until it announces via RequestRejoin with a residual resync
// from a healthy donor, then rides out a 2-round probation back to full
// membership. The table reports per-round health — retries paid, exclusions,
// probation, promotions — so the rounds-to-recover and the detection-cost
// asymmetry (paid once, not per round) are directly visible. When a default
// telemetry set is installed (hipress-bench -trace), the rejoin events and
// round spans land in the exported trace.
func RecoveryExp() (*Table, error) {
	tel := DefaultTelemetry()
	if tel == nil {
		tel = telemetry.New()
	}
	lc, err := core.NewLiveCluster(4, core.LiveConfig{
		Strategy: core.StrategyPS, Parts: 2,
		Algo: "onebit", ErrorFeedback: true,
		Retry: core.RetryPolicy{
			MaxAttempts: 6,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  10 * time.Millisecond,
		},
		RoundTimeout: 30 * time.Second,
		OnPeerFail:   core.DegradeExclude, Renormalize: true,
		Elastic:   true,
		Telemetry: tel,
		Transport: DefaultLiveTransport(),
		Chaos:     &netsim.ChaosConfig{Seed: 5, NodeDown: map[int]bool{3: true}},
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "Recovery: elastic peer rejoin lifecycle (4-node PS, onebit+EF, node 3 blackout)",
		Header: []string{"round", "phase", "retries", "excluded", "carried", "probation", "rejoined", "elapsed"},
		Notes: []string{
			"carried = peers excluded by membership before the round starts (zero detection cost)",
			"detection retries are paid exactly once, at conviction — not per blackout round",
		},
	}

	rng := tensor.NewRNG(42)
	sizes := map[string]int{"w1": 257, "w2": 96}
	names := make([]string, 0, len(sizes))
	for name := range sizes {
		names = append(names, name)
	}
	sort.Strings(names)
	round := func(phase string) (*core.RoundHealth, error) {
		grads := make([]map[string][]float32, 4)
		for v := range grads {
			grads[v] = map[string][]float32{}
			for _, name := range names {
				g := make([]float32, sizes[name])
				rng.FillNormal(g, 1)
				grads[v][name] = g
			}
		}
		_, health, err := lc.SyncRoundContext(context.Background(), grads)
		if err != nil {
			return nil, fmt.Errorf("recovery round %q: %w", phase, err)
		}
		return health, nil
	}
	peerList := func(vs []int) string {
		if len(vs) == 0 {
			return "-"
		}
		parts := make([]string, len(vs))
		for i, v := range vs {
			parts[i] = fmt.Sprintf("n%d", v)
		}
		return strings.Join(parts, ",")
	}

	var detectionRetries int64
	var recoverRounds int
	script := []struct {
		phase  string
		before func() error
	}{
		{"blackout: detect+convict", nil},
		{"blackout: carried exclusion", nil},
		{"blackout lifted, no announce", func() error { return lc.SetChaos(nil) }},
		{"rejoin announced, probation 1/2", func() error { return lc.RequestRejoin(3) }},
		{"probation 2/2 -> promoted", nil},
		{"steady state", nil},
		{"steady state", nil},
	}
	if len(script) != recoveryRounds {
		return nil, fmt.Errorf("engine: recovery script has %d rounds, want %d", len(script), recoveryRounds)
	}
	for i, step := range script {
		if step.before != nil {
			if err := step.before(); err != nil {
				return nil, err
			}
		}
		h, err := round(step.phase)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			detectionRetries = h.Retries
		}
		if len(h.RejoinedPeers) > 0 && recoverRounds == 0 {
			recoverRounds = i + 1 - 2 // rounds after the blackout lifted (round 3 on)
		}
		t.AddRow(i+1, step.phase,
			h.Retries,
			peerList(h.ExcludedPeers),
			peerList(h.MembershipExcluded),
			peerList(h.ProbationPeers),
			peerList(h.RejoinedPeers),
			fmt.Sprintf("%.1fms", float64(h.Elapsed.Microseconds())/1000))
	}

	states := lc.PeerStates()
	allHealthy := true
	for _, st := range states {
		if st != core.PeerHealthy {
			allHealthy = false
		}
	}
	if !allHealthy {
		return nil, fmt.Errorf("engine: recovery lifecycle did not converge, peer states %v", states)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("conviction cost %d retries once; carried rounds cost 0", detectionRetries),
		fmt.Sprintf("rounds from blackout lift to full membership: %d (1 idle + %d probation)",
			recoverRounds, recoveryRounds-5),
		fmt.Sprintf("final peer states: %v", states))
	return t, nil
}
