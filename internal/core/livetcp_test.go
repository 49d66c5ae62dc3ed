package core

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"hipress/internal/kernels"
	"hipress/internal/netsim"
)

// This file proves TCP-transport parity for the socket plane: the same
// rounds over real loopback sockets produce byte-identical results to the
// chan transport, stay byte-identical under wire-level fault injection
// (mid-stream resets, corruption), surface connection failures as health
// evidence, and convict a half-open peer through φ-accrual instead of
// wedging.

// digestRound hashes every node's synchronized gradients in name order —
// byte-exact float bits, so equality means bit-identity.
func digestRound(out []map[string][]float32) uint64 {
	h := fnv.New64a()
	names := make([]string, 0, len(out[0]))
	for name := range out[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf [4]byte
	for _, o := range out {
		for _, name := range names {
			for _, x := range o[name] {
				bits := math.Float32bits(x)
				buf[0], buf[1], buf[2], buf[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// tcpParityConfig is the shared arm config: reliable compressed PS, the
// shape the experiment gates run.
func tcpParityConfig() LiveConfig {
	return LiveConfig{
		Strategy: StrategyPS, Parts: 2, Algo: "onebit", ErrorFeedback: true,
		Retry: RetryPolicy{MaxAttempts: 8, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
	}
}

// wireChaosParityConfig is tcpParityConfig over loopback TCP with mid-stream
// resets and byte corruption injected on (nearly) every connection.
func wireChaosParityConfig() LiveConfig {
	chaos := tcpParityConfig()
	chaos.Transport = "tcp"
	chaos.TCP = &netsim.TCPOptions{
		RedialAttempts: 6,
		// A corrupted length prefix can wedge a receiver mid-bogus-frame,
		// silently eating every subsequent ack on that stream while the
		// sender's writes keep landing in kernel buffers. A short idle read
		// deadline kills the desynced stream fast enough for redial +
		// generation resync to restore ack flow inside the retry budget.
		IdleReadTimeout: 40 * time.Millisecond,
		Chaos: &netsim.WireChaosConfig{
			Seed:    77,
			CutProb: 0.9, // mid-stream RST, truncating a frame
			// Default cut offsets reach ~4 KiB into a stream, beyond what a
			// small round writes per link; keep the cut inside real traffic.
			CutAfterMax: 600,
			// Corrupt one byte on every connection, inside the first frame:
			// header hits kill the stream (resync path), payload hits trip
			// the live plane's CRC (retry path).
			CorruptProb:   1,
			CorruptWindow: 64,
		},
	}
	return chaos
}

// waitGoroutines fails the test unless the goroutine count falls back to
// baseline: the per-round transports and workers must all have exited.
func waitGoroutines(t *testing.T, baseline int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after %s: %d > %d\n%s",
				after, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runDigests executes rounds under cfg over the parity tests' two small
// gradients and returns per-round digests plus the last round's health.
func runDigests(t *testing.T, cfg LiveConfig, n, rounds int) ([]uint64, *RoundHealth) {
	t.Helper()
	digests, healths := runSizedDigests(t, cfg, n, rounds, map[string]int{"w1": 700, "w2": 64})
	return digests, healths[len(healths)-1]
}

// TestLiveTCPParityWithChan: identical gradients through identical configs
// must digest identically on both transports — the determinism the
// experiment gates rely on when they run with -transport tcp.
func TestLiveTCPParityWithChan(t *testing.T) {
	const n, rounds = 3, 3
	chanCfg := tcpParityConfig()
	chanDigests, _ := runDigests(t, chanCfg, n, rounds)
	tcpCfg := tcpParityConfig()
	tcpCfg.Transport = "tcp"
	tcpDigests, health := runDigests(t, tcpCfg, n, rounds)
	for i := range chanDigests {
		if chanDigests[i] != tcpDigests[i] {
			t.Fatalf("round %d: tcp digest %016x != chan %016x", i, tcpDigests[i], chanDigests[i])
		}
	}
	if health.TCP == nil || health.TCP.Dials == 0 {
		t.Fatalf("tcp round reported no socket-plane stats: %+v", health.TCP)
	}
	if health.Wire != nil {
		t.Fatalf("wire-chaos stats present without an injector: %+v", health.Wire)
	}
}

// TestLiveTCPWireChaosBitIdentical is the acceptance criterion: under
// wire-level mid-stream resets and byte corruption, the live cluster's
// merged results stay byte-identical to a fault-free chan run — dedup,
// CRC drops, redial, and generation resync absorb every injected fault —
// and the transport leaks no goroutines after its rounds close.
func TestLiveTCPWireChaosBitIdentical(t *testing.T) {
	const n, rounds = 3, 3
	baseline := runtime.NumGoroutine()

	clean := tcpParityConfig()
	cleanDigests, _ := runDigests(t, clean, n, rounds)

	chaosDigests, health := runDigests(t, wireChaosParityConfig(), n, rounds)

	for i := range cleanDigests {
		if cleanDigests[i] != chaosDigests[i] {
			t.Fatalf("round %d: wire-chaos digest %016x != fault-free %016x (health %+v, tcp %+v, wire %+v)",
				i, chaosDigests[i], cleanDigests[i], health, health.TCP, health.Wire)
		}
	}
	// The injector must actually have bitten, and the faults must have been
	// absorbed without degrading the round.
	if health.Wire == nil || health.Wire.CorruptedBytes == 0 {
		t.Fatalf("wire chaos never corrupted a byte: %+v", health.Wire)
	}
	if health.Wire.Cuts == 0 {
		t.Fatalf("wire chaos never cut a connection: %+v", health.Wire)
	}
	if health.TCP.Redials == 0 && health.TCP.Resyncs == 0 {
		t.Fatalf("chaos round recovered without redial or resync? tcp %+v", health.TCP)
	}
	if len(health.ExcludedPeers) != 0 {
		t.Fatalf("wire faults escalated to exclusions: %+v", health.ExcludedPeers)
	}
	// Zero leaked goroutines once the per-round transports are closed.
	waitGoroutines(t, baseline, "chaos rounds")
}

// TestLiveTCPSettlesEveryLease is the round half of the lease accounting:
// the read loops check a payload buffer out of the arena for every gradient
// frame and hand it to the round with the message. After rounds over clean
// and fault-injected TCP — adopted payloads, duplicates and late frames
// released on the spot, frames stranded in an inbox at teardown — every
// buffer checked out during the rounds is back in the arena, and no
// goroutine outlives them.
func TestLiveTCPSettlesEveryLease(t *testing.T) {
	const n, rounds = 3, 3
	checkedOut := func(cfg LiveConfig) (gets int64) {
		t.Helper()
		baseline := runtime.NumGoroutine()
		before := kernels.DefaultArenaStats()
		runDigests(t, cfg, n, rounds)
		after := kernels.DefaultArenaStats()
		gets = after.Gets - before.Gets
		if puts := after.Puts - before.Puts; puts != gets {
			t.Errorf("transport %q: %d arena buffers checked out, %d returned", cfg.Transport, gets, puts)
		}
		waitGoroutines(t, baseline, "rounds over "+cfg.Transport)
		return gets
	}
	viaChan := checkedOut(tcpParityConfig())
	clean := tcpParityConfig()
	clean.Transport = "tcp"
	if viaTCP := checkedOut(clean); viaTCP <= viaChan {
		t.Errorf("tcp rounds checked out %d buffers, chan rounds %d: receive frames are not leased", viaTCP, viaChan)
	}
	checkedOut(wireChaosParityConfig())
	// The windowed engine keeps several leased frames per link in flight,
	// and a raw ring forwards received buffers onward.
	ring := LiveConfig{Strategy: StrategyRing, Parts: 2, Transport: "tcp"}
	checkedOut(ring)
}

// TestLiveTCPReconnectEvidence: an accept-time blackout makes the victim
// link's first connection die post-handshake; with the redial budget
// disabled, the resulting write failures surface as typed ConnErrors, which
// the send paths must record as reconnect evidence while the reliable layer
// still lands the round.
func TestLiveTCPReconnectEvidence(t *testing.T) {
	cfg := tcpParityConfig()
	cfg.Transport = "tcp"
	cfg.TCP = &netsim.TCPOptions{
		RedialAttempts: -1, // surface the first failure as a ConnError
		Chaos:          &netsim.WireChaosConfig{Seed: 5, AcceptBlackout: map[int]int{1: 1}},
	}
	lc, err := NewLiveCluster(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{"w1": 700, "w2": 64}
	// Each round runs a fresh transport, re-arming the blackout; the RST
	// races kernel buffering, so poll a few rounds for the evidence.
	for round := 0; round < 20; round++ {
		grads, _ := makeGrads(uint64(round), 3, sizes)
		_, health, err := lc.SyncRoundContext(context.Background(), grads)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if health.TCP == nil || health.Wire == nil {
			t.Fatalf("round %d: missing socket-plane stats", round)
		}
		if health.Reconnects > 0 {
			if health.Wire.AcceptDrops == 0 {
				t.Fatalf("reconnects without an injected accept drop: %+v", health.Wire)
			}
			return // evidence surfaced and the round still completed
		}
	}
	t.Fatal("20 blacked-out rounds never surfaced reconnect evidence")
}

// TestLiveTCPHalfOpenPeerPhiConviction: a fully half-open peer — TCP
// connects fine, every byte it sends or is sent vanishes — must be
// convicted by φ-accrual and excluded, not wedge the round.
func TestLiveTCPHalfOpenPeerPhiConviction(t *testing.T) {
	const n = 4
	const victim = 3
	oneway := map[netsim.Link]bool{}
	for v := 0; v < n; v++ {
		if v != victim {
			oneway[netsim.Link{Src: v, Dst: victim}] = true
			oneway[netsim.Link{Src: victim, Dst: v}] = true
		}
	}
	lc, err := NewLiveCluster(n, LiveConfig{
		Strategy: StrategyPS, Parts: 2, Algo: "onebit", ErrorFeedback: true,
		Health:     &HealthConfig{Adaptive: true, HeartbeatEvery: 5 * time.Millisecond},
		OnPeerFail: DegradeExclude, Renormalize: true,
		RoundTimeout: 30 * time.Second,
		Transport:    "tcp",
		TCP:          &netsim.TCPOptions{Chaos: &netsim.WireChaosConfig{Seed: 11, OneWay: oneway}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{"w1": 200}
	grads, _ := makeGrads(7, n, sizes)
	_, health, err := lc.SyncRoundContext(context.Background(), grads)
	if err != nil {
		t.Fatalf("half-open round did not degrade gracefully: %v", err)
	}
	found := false
	for _, v := range health.ExcludedPeers {
		if v == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("half-open peer %d not convicted: excluded=%v phi=%v",
			victim, health.ExcludedPeers, health.Phi)
	}
	if health.Wire == nil || health.Wire.BlackholedWrites == 0 {
		t.Fatalf("one-way partition never swallowed a write: %+v", health.Wire)
	}
}

// TestLiveTCPUnsendableFailsFast: a gradient whose name overflows the
// frame's u16 length field can never be delivered, so the round must fail
// with the transport's typed error at the first send, where an ordinary send
// failure is retried until the round times out.
func TestLiveTCPUnsendableFailsFast(t *testing.T) {
	lc, err := NewLiveCluster(3, LiveConfig{Strategy: StrategyPS, Parts: 1, Transport: "tcp",
		RoundTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	grads, _ := makeGrads(3, 3, map[string]int{strings.Repeat("n", 1<<16): 32})
	start := time.Now()
	_, _, err = lc.SyncRoundContext(context.Background(), grads)
	var lim *netsim.FrameLimitError
	if !errors.As(err, &lim) || !errors.Is(err, netsim.ErrUnsendable) {
		t.Fatalf("round error = %v, want a wrapped *netsim.FrameLimitError", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("unsendable message took %v to fail the round", d)
	}
}

// TestEFKeyFormatFrozen pins the error-feedback residual key and its hash as
// the round plan names them: checkpoints store residuals under these strings
// and stochastic encodes draw from streams derived from the hash (FNV-1a of
// the string). Every encode task of a built PS and ring plan carries its
// name, and no other task carries one.
func TestEFKeyFormatFrozen(t *testing.T) {
	lc, err := NewLiveCluster(2, LiveConfig{Strategy: StrategyPS, Parts: 2, Algo: "onebit", ErrorFeedback: true})
	if err != nil {
		t.Fatal(err)
	}
	g, lay := NewGraph(), newRoundLayout(1)
	lay.add("fc6.weight", 64, 2, "onebit")
	id := g.Add(&Task{Kind: KEncode, Grad: "fc6.weight", Part: 1, Phase: 2, Step: 13})
	p, err := lc.planGraph(lc.epoch, g, lay)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.ef[id].key, "fc6.weight/p1/ph2/s13"; got != want {
		t.Fatalf("encode key = %q, want %q", got, want)
	}
	if got, want := p.ef[id].hash, uint64(0xfb71e8b0b368813f); got != want {
		t.Fatalf("encode key hash = %#x, want %#x", got, want)
	}

	for _, strat := range []Strategy{StrategyPS, StrategyRing} {
		lc, err := NewLiveCluster(3, LiveConfig{Strategy: strat, Parts: 2, Algo: "onebit", ErrorFeedback: true})
		if err != nil {
			t.Fatal(err)
		}
		grads, _ := makeGrads(1, 3, map[string]int{"a": 4096, "b": 300})
		p := buildRound(t, lc, grads)
		encodes := 0
		for i, task := range p.g.Tasks {
			switch {
			case task.Kind == KEncode && p.ef[i] != nameEncode(task):
				t.Fatalf("%v: encode %d (%s/p%d ph%d s%d) named %+v", strat, i, task.Grad, task.Part, task.Phase, task.Step, p.ef[i])
			case task.Kind == KEncode:
				encodes++
			case p.ef[i] != efName{}:
				t.Fatalf("%v: %v task %d named %+v", strat, task.Kind, i, p.ef[i])
			}
		}
		if encodes == 0 {
			t.Fatalf("%v: plan has no encode tasks", strat)
		}
	}
}
