package engine

import (
	"context"
	"fmt"
	"time"

	"hipress/internal/core"
	"hipress/internal/netsim"
	"hipress/internal/tensor"
)

// TCPChaosExp is the socket plane's end-to-end gate: the same reliable
// compressed rounds run over (1) the chan transport as the bit-identity
// reference, (2) clean loopback TCP, (3) TCP under wire-level chaos —
// deterministic mid-stream RSTs and in-frame byte corruption — and (4) TCP
// with one peer fully half-open behind a one-way partition. Arms 2 and 3
// must digest byte-identically to arm 1 with zero peer exclusions (redial,
// generation resync, frame checksums, and reliable retransmission absorb
// every injected fault); arm 4 must convict the half-open peer through
// φ-accrual instead of wedging. The table publishes the absorbed-fault
// ledger — redials, resyncs, reconnect evidence, cuts, corrupted bytes,
// convictions — that BENCH_tcpchaos.json archives in CI.

// tcpchaosRounds is the per-arm round count; every arm replays the same
// deterministic gradients so digests are comparable across arms.
const tcpchaosRounds = 3

// tcpchaosGrads builds round r's per-node gradients, a pure function of
// (round, node) so every arm sees identical inputs.
func tcpchaosGrads(r, n int) []map[string][]float32 {
	// Fixed slice order: the per-node RNG must fill gradients in the same
	// sequence every run, or the inputs themselves are nondeterministic.
	sizes := []struct {
		name string
		n    int
	}{{"w1", 700}, {"w2", 64}}
	grads := make([]map[string][]float32, n)
	for v := 0; v < n; v++ {
		rng := tensor.NewRNG(uint64(1000*r + v + 1))
		g := map[string][]float32{}
		for _, s := range sizes {
			buf := make([]float32, s.n)
			rng.FillNormal(buf, 1)
			g[s.name] = buf
		}
		grads[v] = g
	}
	return grads
}

// tcpchaosArm is one arm's aggregated run.
type tcpchaosArm struct {
	digests    []uint64
	reconnects int64
	excluded   []int
	tcp        *netsim.TCPStats
	wire       *netsim.WireChaosStats
}

// runTCPChaosArm executes the shared round schedule under cfg and
// aggregates digests plus the last round's socket-plane evidence.
func runTCPChaosArm(cfg core.LiveConfig, n int) (*tcpchaosArm, error) {
	lc, err := core.NewLiveCluster(n, cfg)
	if err != nil {
		return nil, err
	}
	arm := &tcpchaosArm{}
	for r := 0; r < tcpchaosRounds; r++ {
		out, health, err := lc.SyncRoundContext(context.Background(), tcpchaosGrads(r, n))
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		arm.digests = append(arm.digests, hashRound(out))
		arm.reconnects += health.Reconnects
		arm.excluded = health.ExcludedPeers
		arm.tcp, arm.wire = health.TCP, health.Wire
	}
	return arm, nil
}

// tcpchaosConfig is the shared arm shape: the reliable compressed PS rounds
// the other live gates run.
func tcpchaosConfig() core.LiveConfig {
	return core.LiveConfig{
		Strategy: core.StrategyPS, Parts: 2,
		Algo: "onebit", ErrorFeedback: true,
		Retry: core.RetryPolicy{MaxAttempts: 8,
			BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
		Telemetry: DefaultTelemetry(),
	}
}

// TCPChaosExp runs the four socket-plane arms and gates on bit-identity,
// fault absorption, and half-open conviction.
func TCPChaosExp() (*Table, error) {
	const n = 3

	reference := tcpchaosConfig()
	ref, err := runTCPChaosArm(reference, n)
	if err != nil {
		return nil, fmt.Errorf("engine: tcpchaos reference arm: %w", err)
	}

	clean := tcpchaosConfig()
	clean.Transport = "tcp"
	tcpClean, err := runTCPChaosArm(clean, n)
	if err != nil {
		return nil, fmt.Errorf("engine: tcpchaos tcp-clean arm: %w", err)
	}

	chaos := tcpchaosConfig()
	chaos.Transport = "tcp"
	chaos.TCP = &netsim.TCPOptions{
		RedialAttempts: 6,
		// A corrupted length prefix can wedge a receiver mid-bogus-frame;
		// a short idle read deadline kills the desynced stream fast enough
		// for redial + generation resync inside the retry budget.
		IdleReadTimeout: 40 * time.Millisecond,
		Chaos: &netsim.WireChaosConfig{
			Seed:    77,
			CutProb: 0.9,
			// Keep the cut offsets inside what a small round writes per link.
			CutAfterMax:   600,
			CorruptProb:   1,
			CorruptWindow: 64,
		},
	}
	wired, err := runTCPChaosArm(chaos, n)
	if err != nil {
		return nil, fmt.Errorf("engine: tcpchaos wire-chaos arm: %w", err)
	}

	const hn, victim = 4, 3
	oneway := map[netsim.Link]bool{}
	for v := 0; v < hn; v++ {
		if v != victim {
			oneway[netsim.Link{Src: v, Dst: victim}] = true
			oneway[netsim.Link{Src: victim, Dst: v}] = true
		}
	}
	half := tcpchaosConfig()
	half.Transport = "tcp"
	half.Health = &core.HealthConfig{Adaptive: true, HeartbeatEvery: 5 * time.Millisecond}
	half.OnPeerFail, half.Renormalize = core.DegradeExclude, true
	half.RoundTimeout = 30 * time.Second
	half.TCP = &netsim.TCPOptions{Chaos: &netsim.WireChaosConfig{Seed: 11, OneWay: oneway}}
	lc, err := core.NewLiveCluster(hn, half)
	if err != nil {
		return nil, err
	}
	_, halfHealth, err := lc.SyncRoundContext(context.Background(), tcpchaosGrads(0, hn))
	if err != nil {
		return nil, fmt.Errorf("engine: tcpchaos half-open arm: %w", err)
	}

	// Self-asserting gates: the experiment fails loudly when the socket
	// plane's guarantees do not hold.
	for r := 0; r < tcpchaosRounds; r++ {
		if tcpClean.digests[r] != ref.digests[r] {
			return nil, fmt.Errorf("engine: tcpchaos: clean tcp round %d digest %016x != chan %016x — transports diverge",
				r, tcpClean.digests[r], ref.digests[r])
		}
		if wired.digests[r] != ref.digests[r] {
			return nil, fmt.Errorf("engine: tcpchaos: wire-chaos round %d digest %016x != chan %016x — a fault leaked into the merge",
				r, wired.digests[r], ref.digests[r])
		}
	}
	if wired.wire == nil || wired.wire.Cuts == 0 || wired.wire.CorruptedBytes == 0 {
		return nil, fmt.Errorf("engine: tcpchaos: injector never bit (wire %+v)", wired.wire)
	}
	if wired.tcp.Redials == 0 && wired.tcp.Resyncs == 0 {
		return nil, fmt.Errorf("engine: tcpchaos: chaos absorbed without redial or resync (tcp %+v)", wired.tcp)
	}
	if len(wired.excluded) != 0 {
		return nil, fmt.Errorf("engine: tcpchaos: wire faults escalated to exclusions %v", wired.excluded)
	}
	convicted := false
	for _, v := range halfHealth.ExcludedPeers {
		convicted = convicted || v == victim
	}
	if !convicted {
		return nil, fmt.Errorf("engine: tcpchaos: half-open peer %d not convicted (excluded %v, phi %v)",
			victim, halfHealth.ExcludedPeers, halfHealth.Phi)
	}
	if halfHealth.Wire == nil || halfHealth.Wire.BlackholedWrites == 0 {
		return nil, fmt.Errorf("engine: tcpchaos: one-way partition never swallowed a write (wire %+v)", halfHealth.Wire)
	}

	t := &Table{
		Title: fmt.Sprintf("TCP chaos: socket-plane parity and fault absorption (%d rounds/arm, reliable onebit PS)",
			tcpchaosRounds),
		Header: []string{"arm", "digest", "redials", "resyncs", "reconnects", "cuts", "corrupt-bytes", "blackholed", "convicted"},
		Notes: []string{
			"digest = FNV-64a over every node's merged gradients; all parity arms must match chan exactly",
			"wire-chaos: deterministic mid-stream RSTs (CutProb 0.9) + one corrupted byte per connection (CorruptProb 1)",
			"half-open: one peer behind a bidirectional one-way partition; φ-accrual must convict it, not wedge the round",
		},
	}
	row := func(name, digest string, tcp *netsim.TCPStats, wire *netsim.WireChaosStats, reconn int64, excluded []int) {
		var redials, resyncs int64
		if tcp != nil {
			redials, resyncs = tcp.Redials, tcp.Resyncs
		}
		var cuts, corrupted, blackholed int64
		if wire != nil {
			cuts, corrupted, blackholed = wire.Cuts, wire.CorruptedBytes, wire.BlackholedWrites
		}
		t.AddRow(name, digest, redials, resyncs, reconn, cuts, corrupted, blackholed,
			fmt.Sprintf("%v", excluded))
	}
	digest := func(a *tcpchaosArm) string {
		return fmt.Sprintf("%016x", a.digests[len(a.digests)-1])
	}
	row("chan (reference)", digest(ref), nil, nil, ref.reconnects, ref.excluded)
	row("tcp clean", digest(tcpClean), tcpClean.tcp, tcpClean.wire, tcpClean.reconnects, tcpClean.excluded)
	row("tcp wire-chaos", digest(wired), wired.tcp, wired.wire, wired.reconnects, wired.excluded)
	row("tcp half-open", "degraded", halfHealth.TCP, halfHealth.Wire,
		halfHealth.Reconnects, halfHealth.ExcludedPeers)
	return t, nil
}
