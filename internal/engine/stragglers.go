package engine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"hipress/internal/core"
	"hipress/internal/netsim"
	"hipress/internal/tensor"
)

// This file implements the "stragglers" experiment: the adaptive health
// plane's quantitative case. One peer of a live 4-node cluster is 10×
// slower than the rest (asymmetric link delay — alive, just late) while
// every link carries a little loss. Three failure-handling configurations
// run the same rounds over the same deterministic chaos:
//
//   - static-tight:  a RetryPolicy tuned for the fast links. It falsely
//     convicts the straggler every round (detection cost + lost
//     contribution + renormalization bias).
//   - static-safe:   the RetryPolicy an operator must deploy to avoid
//     false convictions with fixed deadlines: backoffs sized for the
//     slowest link. Zero convictions, but every dropped packet — on any
//     link — now costs a straggler-scale timeout, fattening the tail.
//   - adaptive:      the φ-accrual health plane. Per-link RTTs learned
//     from acks and heartbeats set per-link deadlines, so fast links
//     recover from loss at fast-link timescales while the straggler gets
//     the slack it needs — zero convictions and a tight tail at once.

// stragglerMode names one failure-handling configuration under test.
type stragglerMode int

const (
	stragglerStaticTight stragglerMode = iota
	stragglerStaticSafe
	stragglerAdaptive
)

// String implements fmt.Stringer.
func (m stragglerMode) String() string {
	switch m {
	case stragglerStaticTight:
		return "static-tight"
	case stragglerStaticSafe:
		return "static-safe"
	case stragglerAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("stragglerMode(%d)", int(m))
	}
}

// stragglerStats aggregates one mode's run.
type stragglerStats struct {
	elapsed          []time.Duration
	retries          int64
	falseConvictions int // straggler exclusions summed over rounds
	slowRounds       int // rounds that flagged the straggler Slow
}

// percentile returns the pth percentile (nearest-rank) of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// stragglerFaults builds the shared chaos plane: mild loss plus a small
// delay everywhere, 10× that delay on every link touching the straggler.
func stragglerFaults(seed uint64, n, straggler int) *netsim.ChaosConfig {
	fast := netsim.LinkFaults{Drop: 0.08, Delay: 1.0,
		DelayMin: 2 * time.Millisecond, DelayMax: 2500 * time.Microsecond}
	slow := netsim.LinkFaults{Drop: 0.08, Delay: 1.0,
		DelayMin: 20 * time.Millisecond, DelayMax: 25 * time.Millisecond}
	links := map[netsim.Link]netsim.LinkFaults{}
	for u := 0; u < n; u++ {
		if u == straggler {
			continue
		}
		links[netsim.Link{Src: u, Dst: straggler}] = slow
		links[netsim.Link{Src: straggler, Dst: u}] = slow
	}
	return &netsim.ChaosConfig{Seed: seed, Default: fast, Links: links}
}

// runStragglerMode runs `rounds` synchronization rounds of one mode over
// the deterministic straggler chaos and aggregates the health reports.
func runStragglerMode(mode stragglerMode, rounds int) (*stragglerStats, error) {
	const n = 4
	const straggler = 3
	cfg := core.LiveConfig{
		Strategy: core.StrategyPS, Parts: 2,
		Algo: "onebit", ErrorFeedback: true,
		RoundTimeout: 60 * time.Second,
		OnPeerFail:   core.DegradeExclude, Renormalize: true,
		Telemetry: DefaultTelemetry(),
		Transport: DefaultLiveTransport(),
		Chaos:     stragglerFaults(23, n, straggler),
	}
	switch mode {
	case stragglerStaticTight:
		// Tuned for the fast links: exhausts in ~6ms, long before any
		// straggler ack (≥40ms round trip) can arrive.
		cfg.Retry = core.RetryPolicy{MaxAttempts: 3,
			BaseBackoff: 2 * time.Millisecond, MaxBackoff: 8 * time.Millisecond}
	case stragglerStaticSafe:
		// Sized for the slowest link so it never falsely convicts — which
		// means every drop recovery anywhere waits at straggler scale.
		cfg.Retry = core.RetryPolicy{MaxAttempts: 6,
			BaseBackoff: 200 * time.Millisecond, MaxBackoff: 800 * time.Millisecond}
	case stragglerAdaptive:
		cfg.Health = &core.HealthConfig{Adaptive: true,
			HeartbeatEvery: 5 * time.Millisecond}
	}
	lc, err := core.NewLiveCluster(n, cfg)
	if err != nil {
		return nil, err
	}

	rng := tensor.NewRNG(42)
	sizes := []struct {
		name string
		len  int
	}{{"w1", 257}, {"w2", 96}}
	st := &stragglerStats{}
	for round := 0; round < rounds; round++ {
		grads := make([]map[string][]float32, n)
		for v := range grads {
			grads[v] = map[string][]float32{}
			for _, sz := range sizes {
				g := make([]float32, sz.len)
				rng.FillNormal(g, 1)
				grads[v][sz.name] = g
			}
		}
		_, h, err := lc.SyncRoundContext(context.Background(), grads)
		if err != nil {
			return nil, fmt.Errorf("stragglers %v round %d: %w", mode, round, err)
		}
		st.elapsed = append(st.elapsed, h.Elapsed)
		st.retries += h.Retries
		// Non-elastic rounds re-detect per round, so each round's exclusion
		// list counts one false conviction of the live straggler.
		st.falseConvictions += len(h.ExcludedPeers)
		for _, v := range h.SlowPeers {
			if v == straggler {
				st.slowRounds++
			}
		}
	}
	return st, nil
}

// StragglersExp quantifies straggler mitigation: round-time p50/p99, total
// retries, and false convictions for the three failure-handling
// configurations over identical deterministic chaos. scale shrinks the
// round count for quick runs.
func StragglersExp(scale float64) (*Table, error) {
	rounds := int(10*scale + 0.5)
	if rounds < 4 {
		rounds = 4
	}
	t := &Table{
		Title:  fmt.Sprintf("Stragglers: adaptive health plane vs static deadlines (4-node PS, onebit+EF, node 3 at 10x latency, 8%% loss, %d rounds)", rounds),
		Header: []string{"mode", "p50", "p99", "retries", "false-convictions", "slow-flagged"},
		Notes: []string{
			"static-tight: deadlines tuned for the fast links — falsely convicts the live straggler every round",
			"static-safe: deadlines sized for the straggler (the fixed-policy price of zero false convictions) — every drop recovery waits at straggler scale",
			"adaptive: per-link Jacobson/Karels deadlines + phi-accrual evidence — zero false convictions at fast-link recovery speed",
		},
	}
	modes := []stragglerMode{stragglerStaticTight, stragglerStaticSafe, stragglerAdaptive}
	stats := map[stragglerMode]*stragglerStats{}
	for _, mode := range modes {
		st, err := runStragglerMode(mode, rounds)
		if err != nil {
			return nil, err
		}
		stats[mode] = st
		t.AddRow(mode.String(),
			fmt.Sprintf("%.1fms", float64(percentile(st.elapsed, 0.50).Microseconds())/1000),
			fmt.Sprintf("%.1fms", float64(percentile(st.elapsed, 0.99).Microseconds())/1000),
			st.retries, st.falseConvictions,
			fmt.Sprintf("%d/%d", st.slowRounds, rounds))
	}

	if c := stats[stragglerStaticTight].falseConvictions; c == 0 {
		return nil, fmt.Errorf("engine: stragglers: static-tight convicted nobody — the scenario lost its teeth")
	}
	for _, mode := range []stragglerMode{stragglerStaticSafe, stragglerAdaptive} {
		if c := stats[mode].falseConvictions; c != 0 {
			return nil, fmt.Errorf("engine: stragglers: %v falsely convicted %d times", mode, c)
		}
	}
	safeP99 := percentile(stats[stragglerStaticSafe].elapsed, 0.99)
	adP99 := percentile(stats[stragglerAdaptive].elapsed, 0.99)
	ratio := float64(safeP99) / float64(adP99)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"among the zero-false-conviction configurations, adaptive p99 is %.1fx better than static-safe (%v vs %v)",
		ratio, safeP99.Round(100*time.Microsecond), adP99.Round(100*time.Microsecond)))
	return t, nil
}
