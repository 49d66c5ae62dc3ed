package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hipress/internal/netsim"
	"hipress/internal/telemetry"
	"hipress/internal/tensor"
)

// fastRetry keeps fault tests quick: tight backoff, few attempts.
var fastRetry = RetryPolicy{MaxAttempts: 6, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond}

// TestLiveChaosByteIdentical is the headline robustness property: a reliable
// round over a lossy, duplicating transport produces byte-for-byte the same
// aggregates as the fault-free run — retransmission, dedup, and the ordered
// barrier merge leave no trace in the numerics. Checked for both strategies,
// raw and compressed payloads.
func TestLiveChaosByteIdentical(t *testing.T) {
	sizes := map[string]int{"w1": 513, "w2": 64}
	chaos := &netsim.ChaosConfig{
		Seed:    42,
		Default: netsim.LinkFaults{Drop: 0.05},
		Links: map[netsim.Link]netsim.LinkFaults{
			{Src: 0, Dst: 1}: {Drop: 0.05, Dup: 1.0}, // every 0→1 message duplicated
		},
	}
	for _, strat := range []Strategy{StrategyPS, StrategyRing} {
		for _, algo := range []string{"", "onebit"} {
			name := fmt.Sprintf("%v/%q", strat, algo)
			runOnce := func(cc *netsim.ChaosConfig) ([]map[string][]float32, *RoundHealth) {
				lc, err := NewLiveCluster(4, LiveConfig{
					Strategy: strat, Algo: algo, Parts: 2,
					Retry:        fastRetry,
					RoundTimeout: 30 * time.Second,
					Chaos:        cc,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				grads, _ := makeGrads(7, 4, sizes)
				out, health, err := lc.SyncRoundContext(context.Background(), grads)
				if err != nil {
					t.Fatalf("%s: sync: %v", name, err)
				}
				return out, health
			}
			clean, _ := runOnce(nil)
			dirty, health := runOnce(chaos)
			for v := range clean {
				for gname := range sizes {
					a, b := clean[v][gname], dirty[v][gname]
					if len(a) != len(b) {
						t.Fatalf("%s: node %d %s length %d vs %d", name, v, gname, len(a), len(b))
					}
					for i := range a {
						if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
							t.Fatalf("%s: node %d %s[%d] differs: %x vs %x",
								name, v, gname, i, math.Float32bits(a[i]), math.Float32bits(b[i]))
						}
					}
				}
			}
			if health.Chaos == nil || health.Chaos.Sent == 0 {
				t.Fatalf("%s: chaos stats missing: %+v", name, health)
			}
			if health.Chaos.Dropped == 0 && health.Chaos.Duplicated == 0 {
				t.Fatalf("%s: chaos injected nothing (stats %+v)", name, health.Chaos)
			}
			if health.Degraded() {
				t.Fatalf("%s: round degraded under mere loss: %s", name, health)
			}
		}
	}
}

// TestLiveBlackoutExcludeRenormalized: a fully blacked-out worker under the
// exclude policy is convicted, its contribution dropped, and the surviving
// aggregate renormalized by n/(n-1); the dead node's own assembly falls back
// to its local gradient.
func TestLiveBlackoutExcludeRenormalized(t *testing.T) {
	const n = 4
	sizes := map[string]int{"w": 257}
	grads, _ := makeGrads(13, n, sizes)
	// Node 3 is a pure worker for partition 0 (server = part % n = 0).
	lc, err := NewLiveCluster(n, LiveConfig{
		Strategy: StrategyPS, Parts: 1,
		Retry:        fastRetry,
		RoundTimeout: 30 * time.Second,
		OnPeerFail:   DegradeExclude, Renormalize: true,
		Chaos: &netsim.ChaosConfig{Seed: 5, NodeDown: map[int]bool{3: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	out, health, err := lc.SyncRoundContext(context.Background(), grads)
	if err != nil {
		t.Fatalf("exclude policy surfaced error: %v (health %s)", err, health)
	}
	if time.Since(start) >= 30*time.Second {
		t.Fatal("round overran its deadline")
	}
	if !health.Degraded() {
		t.Fatalf("health not degraded: %s", health)
	}
	if len(health.ExcludedPeers) != 1 || health.ExcludedPeers[0] != 3 {
		t.Fatalf("ExcludedPeers = %v, want [3]", health.ExcludedPeers)
	}
	if !health.Renormalized {
		t.Fatalf("aggregate not renormalized: %s", health)
	}
	// Survivors agree on (g0+g1+g2) × 4/3.
	want := make([]float32, sizes["w"])
	for v := 0; v < 3; v++ {
		tensor.Add(want, grads[v]["w"])
	}
	for i := range want {
		want[i] *= float32(n) / float32(n-1)
	}
	for v := 0; v < 3; v++ {
		got := out[v]["w"]
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-3 {
				t.Fatalf("node %d w[%d] = %v, want %v", v, i, got[i], want[i])
			}
		}
	}
	// The dead node could not receive the aggregate: its assembly fell back
	// to the local gradient (scaled ×n under Renormalize) and said so.
	if len(health.UnsyncedParts) == 0 {
		t.Fatalf("no unsynced partitions recorded: %s", health)
	}
	g3 := grads[3]["w"]
	for i := range g3 {
		if math.Abs(float64(out[3]["w"][i]-float32(n)*g3[i])) > 1e-3 {
			t.Fatalf("dead node fallback w[%d] = %v, want %v", i, out[3]["w"][i], float32(n)*g3[i])
		}
	}
}

// TestLiveBlackoutAbortTyped: under the default abort policy a blacked-out
// peer produces a typed *PeerFailureError well inside the deadline instead
// of a hang, reporting the attempt budget of the policy that ran the delivery
// loop — static: the retry phase plus its grace phase; adaptive: the health
// plane's own — whichever of the conviction hook and the exhausted loop raised
// it.
func TestLiveBlackoutAbortTyped(t *testing.T) {
	for _, row := range []struct {
		name     string
		health   *HealthConfig
		attempts int
	}{
		{"static", nil, 2 * fastRetry.MaxAttempts},
		{"adaptive", &HealthConfig{Adaptive: true}, 7},
	} {
		t.Run(row.name, func(t *testing.T) {
			lc, err := NewLiveCluster(3, LiveConfig{
				Strategy:     StrategyPS,
				Retry:        fastRetry,
				RoundTimeout: 20 * time.Second,
				OnPeerFail:   DegradeAbort,
				Health:       row.health,
				Chaos:        &netsim.ChaosConfig{Seed: 1, NodeDown: map[int]bool{1: true}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if row.health != nil {
				setAdaptiveBounds(lc.health, 5*time.Millisecond, 50*time.Millisecond, row.attempts)
			}
			grads, _ := makeGrads(3, 3, map[string]int{"w": 100})
			start := time.Now()
			_, health, err := lc.SyncRoundContext(context.Background(), grads)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatalf("blackout round succeeded (health %s)", health)
			}
			var pf *PeerFailureError
			if !errors.As(err, &pf) {
				t.Fatalf("error not a *PeerFailureError: %v", err)
			}
			if pf.Peer != 1 && pf.Node != 1 {
				t.Fatalf("conviction named neither endpoint 1: %+v", pf)
			}
			if pf.Attempts != row.attempts {
				t.Fatalf("error reports %d attempts, the policy's budget is %d: %v", pf.Attempts, row.attempts, pf)
			}
			if elapsed >= 20*time.Second {
				t.Fatalf("abort took %v, deadline was 20s", elapsed)
			}
		})
	}
}

// TestStaticConvictionCarriesEvidence: a conviction by the static scoreboard
// aborts the round with the convicting transfer's link evidence, as an
// exhausted attempt budget does. A clean round first gives every link RTT
// samples; then node 1 is blacked out, the healthy nodes' acked transfers
// outscore it, and the error names the transfer's endpoints and carries the
// samples, the RTT and the φ that were on record.
func TestStaticConvictionCarriesEvidence(t *testing.T) {
	lc, err := NewLiveCluster(3, LiveConfig{Strategy: StrategyPS, Parts: 3, Retry: fastRetry,
		RoundTimeout: 20 * time.Second, OnPeerFail: DegradeAbort})
	if err != nil {
		t.Fatal(err)
	}
	grads, _ := makeGrads(3, 3, map[string]int{"w": 300})
	if _, err := lc.SyncRound(grads); err != nil {
		t.Fatal(err)
	}
	if err := lc.SetChaos(&netsim.ChaosConfig{Seed: 1, NodeDown: map[int]bool{1: true}}); err != nil {
		t.Fatal(err)
	}
	_, err = lc.SyncRound(grads)
	var pf *PeerFailureError
	if !errors.As(err, &pf) {
		t.Fatalf("blackout round ended in %v, want a *PeerFailureError", err)
	}
	if !strings.Contains(pf.Reason, "failure detector convicted node 1") {
		t.Fatalf("the round did not end in the scoreboard's conviction: %v", err)
	}
	if pf.Node == pf.Peer || (pf.Node != 1 && pf.Peer != 1) || pf.Node < 0 {
		t.Fatalf("the error names %d→%d, not a transfer of node 1: %v", pf.Node, pf.Peer, err)
	}
	if pf.SamplesSeen == 0 || pf.LastRTT <= 0 || !strings.Contains(err.Error(), "link evidence") {
		t.Fatalf("the conviction carries no link evidence: %+v (%v)", pf, err)
	}
}

// TestLiveRingBlackoutTyped: Ring has no exclusion path; a dead peer must
// surface as a typed error too (and requesting exclude+ring is rejected at
// construction).
func TestLiveRingBlackoutTyped(t *testing.T) {
	if _, err := NewLiveCluster(3, LiveConfig{
		Strategy: StrategyRing, OnPeerFail: DegradeExclude,
	}); err == nil {
		t.Fatal("exclude policy with ring accepted")
	}
	lc, err := NewLiveCluster(3, LiveConfig{
		Strategy:     StrategyRing,
		Retry:        fastRetry,
		RoundTimeout: 20 * time.Second,
		Chaos:        &netsim.ChaosConfig{Seed: 2, NodeDown: map[int]bool{2: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	grads, _ := makeGrads(4, 3, map[string]int{"w": 64})
	_, _, err = lc.SyncRoundContext(context.Background(), grads)
	var pf *PeerFailureError
	var to *RoundTimeoutError
	if !errors.As(err, &pf) && !errors.As(err, &to) {
		t.Fatalf("ring blackout error untyped: %v", err)
	}
	if pf != nil && pf.Attempts != 2*fastRetry.MaxAttempts {
		t.Fatalf("error reports %d attempts, the static budget is %d: %v", pf.Attempts, 2*fastRetry.MaxAttempts, pf)
	}
}

// TestLiveRoundTimeoutTyped: a link that drops every frame, under a retry
// budget that outlasts the round's deadline, keeps its sender retrying; the
// deadline converts that into a prompt *RoundTimeoutError.
func TestLiveRoundTimeoutTyped(t *testing.T) {
	lc, err := NewLiveCluster(3, LiveConfig{
		Strategy:     StrategyPS,
		Retry:        RetryPolicy{MaxAttempts: 20}, // no verdict before attempt 19, ≈ 1.6 s in
		RoundTimeout: 300 * time.Millisecond,
		Chaos: &netsim.ChaosConfig{Seed: 3, Links: map[netsim.Link]netsim.LinkFaults{
			{Src: 1, Dst: 0}: {Drop: 1.0}, // worker 1's push never arrives
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	grads, _ := makeGrads(5, 3, map[string]int{"w": 128})
	start := time.Now()
	_, health, err := lc.SyncRoundContext(context.Background(), grads)
	elapsed := time.Since(start)
	var to *RoundTimeoutError
	if !errors.As(err, &to) {
		t.Fatalf("expected *RoundTimeoutError, got %v (health %s)", err, health)
	}
	if to.Timeout != 300*time.Millisecond {
		t.Fatalf("timeout error carries %v", to.Timeout)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("timeout surfaced after %v", elapsed)
	}
}

// TestLiveCorruptionRetriedSilently: checksum-failing payloads are silently
// discarded (no ack → retransmission) and the round still converges to the
// exact sums, with the damage visible in RoundHealth.
func TestLiveCorruptionRetriedSilently(t *testing.T) {
	sizes := map[string]int{"w1": 300, "w2": 77}
	lc, err := NewLiveCluster(3, LiveConfig{
		Strategy: StrategyPS, Parts: 2,
		Retry:        fastRetry,
		RoundTimeout: 30 * time.Second,
		Chaos:        &netsim.ChaosConfig{Seed: 9, Default: netsim.LinkFaults{Corrupt: 0.4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	grads, sums := makeGrads(21, 3, sizes)
	out, health, err := lc.SyncRoundContext(context.Background(), grads)
	if err != nil {
		t.Fatalf("sync under corruption: %v (health %s)", err, health)
	}
	for v := 0; v < 3; v++ {
		for gname, want := range sums {
			got := out[v][gname]
			for i := range want {
				if math.Abs(float64(got[i]-want[i])) > 1e-3 {
					t.Fatalf("node %d %s[%d] = %v, want %v", v, gname, i, got[i], want[i])
				}
			}
		}
	}
	if health.Chaos == nil || health.Chaos.Corrupted == 0 {
		t.Fatalf("corruption never fired: %+v", health.Chaos)
	}
	if health.CorruptDrops == 0 {
		t.Fatalf("no checksum rejections recorded: %s", health)
	}
	if health.Retries == 0 {
		t.Fatalf("no retransmissions recorded: %s", health)
	}
}

// TestLiveCorruptNonReliableLoud: on the zero delivery config a link that
// corrupts every frame never decodes garbage and never hides behind its
// retries: each checksum failure is dropped and retried until the attempt
// budget runs out, and the round ends in a typed *PeerFailureError with the
// drops counted and no results.
func TestLiveCorruptNonReliableLoud(t *testing.T) {
	lc, err := NewLiveCluster(3, LiveConfig{
		Strategy:     StrategyPS,
		RoundTimeout: 10 * time.Second,
		Chaos:        &netsim.ChaosConfig{Seed: 4, Default: netsim.LinkFaults{Corrupt: 1.0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	grads, _ := makeGrads(6, 3, map[string]int{"w": 200})
	out, health, err := lc.SyncRoundContext(context.Background(), grads)
	var pf *PeerFailureError
	if !errors.As(err, &pf) {
		t.Fatalf("corrupted round ended in %v, want a *PeerFailureError", err)
	}
	if out != nil {
		t.Fatal("corrupted round returned results")
	}
	if health == nil || health.CorruptDrops == 0 {
		t.Fatalf("no checksum rejections recorded: %v", health)
	}
}

// TestLiveChaosOverTCP: the chaos decorator composes with the TCP transport
// too — reliable delivery recovers exact sums over real lossy sockets.
func TestLiveChaosOverTCP(t *testing.T) {
	sizes := map[string]int{"w": 250}
	lc, err := NewLiveCluster(3, LiveConfig{
		Strategy: StrategyPS, Transport: "tcp",
		Retry:        fastRetry,
		RoundTimeout: 30 * time.Second,
		Chaos:        &netsim.ChaosConfig{Seed: 11, Default: netsim.LinkFaults{Drop: 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	grads, sums := makeGrads(8, 3, sizes)
	out, health, err := lc.SyncRoundContext(context.Background(), grads)
	if err != nil {
		t.Fatalf("tcp chaos sync: %v (health %s)", err, health)
	}
	for v := 0; v < 3; v++ {
		got := out[v]["w"]
		for i, want := range sums["w"] {
			if math.Abs(float64(got[i]-want)) > 1e-3 {
				t.Fatalf("node %d w[%d] = %v, want %v", v, i, got[i], want)
			}
		}
	}
}

// TestZeroConfigSurvivesChaos: the zero LiveConfig — what the training loop
// runs — needs no retry policy, deadline or other setting to ride out a lossy
// fabric: under seeded message chaos over chan, and under wire corruption over
// TCP, its rounds end with the clean run's results byte for byte.
func TestZeroConfigSurvivesChaos(t *testing.T) {
	const n = 3
	sizes := map[string]int{"w1": 513, "w2": 64}
	for _, c := range []struct {
		name  string
		clean LiveConfig
		chaos func(*LiveConfig)
	}{
		{"chan", LiveConfig{}, func(cfg *LiveConfig) {
			cfg.Chaos = &netsim.ChaosConfig{Seed: 17, Default: netsim.LinkFaults{Drop: 0.2, Corrupt: 0.05}}
		}},
		{"tcp", LiveConfig{Transport: "tcp"}, func(cfg *LiveConfig) {
			cfg.TCP = &netsim.TCPOptions{Chaos: &netsim.WireChaosConfig{Seed: 17, CorruptProb: 0.5}}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dirty := c.clean
			c.chaos(&dirty)
			want, _ := runSizedDigests(t, c.clean, n, 2, sizes)
			got, healths := runSizedDigests(t, dirty, n, 2, sizes)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d: digest %016x under chaos, %016x clean (health %s)", i, got[i], want[i], healths[i])
				}
			}
			var faults int64
			for _, h := range healths {
				if h.Chaos != nil {
					faults += h.Chaos.Dropped + h.Chaos.Corrupted
				}
				if h.Wire != nil {
					faults += h.Wire.CorruptedBytes
				}
			}
			if faults == 0 {
				t.Fatal("chaos injected nothing")
			}
		})
	}
}

// TestChaosFreshFaultsEachRound: one ChaosConfig drops different transfers
// in different rounds of one cluster, because each round rolls its faults
// under its own seed, and every round's digest still equals a clean run's.
// Two nodes and one partition put one transfer on a link at a time, so no
// bulk frame or coalesced ack makes a frame's identity depend on timing, and
// the backoff is long enough that only a lost frame or ack retries: which
// transfers a round retries is then a function of its fault rolls alone.
func TestChaosFreshFaultsEachRound(t *testing.T) {
	const n, rounds = 2, 8
	sizes := map[string]int{"w": 300}
	clean := LiveConfig{Strategy: StrategyPS, RoundTimeout: 30 * time.Second,
		Retry: RetryPolicy{MaxAttempts: 10, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 200 * time.Millisecond}}
	want, _ := runSizedDigests(t, clean, n, rounds, sizes)

	tel := telemetry.New()
	dirty := clean
	dirty.Chaos = &netsim.ChaosConfig{Seed: 5, Default: netsim.LinkFaults{Drop: 0.3}}
	dirty.Telemetry = tel
	lc, err := NewLiveCluster(n, dirty)
	if err != nil {
		t.Fatal(err)
	}
	retried := map[string]int{} // each round's retried transfers → rounds that retried exactly them
	for round := 0; round < rounds; round++ {
		tel.Tracer.Reset()
		grads, _ := makeGrads(uint64(100+round), n, sizes)
		out, health, err := lc.SyncRoundContext(context.Background(), grads)
		if err != nil {
			t.Fatalf("round %d: %v (health %s)", round, err, health)
		}
		if got := digestRound(out); got != want[round] {
			t.Fatalf("round %d: digest %016x under chaos, %016x clean (health %s)", round, got, want[round], health)
		}
		var names []string
		for _, s := range tel.Tracer.Spans() {
			if s.Cat == "retry" {
				names = append(names, fmt.Sprintf("%s@node%d", s.Name, s.Node))
			}
		}
		slices.Sort(names)
		retried[fmt.Sprint(names)]++
	}
	if len(retried) == 1 {
		t.Fatalf("all %d rounds retried the same transfers %v: every round replays one round's faults", rounds, retried)
	}
}

// TestAckSettlesThroughRecvIndex pins that an ack names its transfer the way
// a data frame does — by the recv task recvIdx arms for it — on a built PS
// and ring round: a plain ack and each ref of a batched ack close exactly
// their armed rendezvous and credit both endpoints once; an ack naming an
// unknown gradient, an unknown step or the reversed link, a duplicate ack,
// and an ack of a transfer not yet armed close nothing and credit nobody.
func TestAckSettlesThroughRecvIndex(t *testing.T) {
	const n = 3
	for _, c := range []struct {
		name  string
		strat Strategy
		build func(*Graph, *Topology, GradSync) ([]int, error)
	}{{"ps", StrategyPS, BuildPS}, {"ring", StrategyRing, BuildRing}} {
		t.Run(c.name, func(t *testing.T) {
			g, lay := NewGraph(), newRoundLayout(3)
			for _, name := range []string{"a", "b", "c"} {
				if _, err := c.build(g, topoFor(c.strat, n), lay.add(name, 96, 3, "")); err != nil {
					t.Fatal(err)
				}
			}
			recvIdx, err := indexRecvs(g)
			if err != nil {
				t.Fatal(err)
			}
			r := &liveRound{roundPlan: &roundPlan{g: g, recvIdx: recvIdx, xfer: make([]transfer, len(g.Tasks))},
				rs: newRoundState(n), hp: newHealthPlane(n, nil, RetryPolicy{}.withDefaults(), false, nil)}

			// Six transfers of the first recv's link: R[0] plain, R[1:4]
			// batched, R[4] acked before it is armed; R[5] stays armed.
			first := -1
			var R []int
			for id, tk := range g.Tasks {
				if tk.Kind != KRecv {
					continue
				}
				if first < 0 {
					first = id
				}
				if tk.Node == g.Tasks[first].Node && tk.Peer == g.Tasks[first].Peer {
					R = append(R, id)
				}
			}
			if len(R) < 6 {
				t.Fatalf("link %d→%d carries %d transfers, want ≥ 6", g.Tasks[first].Peer, g.Tasks[first].Node, len(R))
			}
			// Each armed transfer has its own one-slot rendezvous; woke
			// remembers the tokens expect has consumed, since a posted token
			// wakes once.
			armed, woke := map[int]chan struct{}{}, map[int]bool{}
			arm := func(id int) {
				armed[id] = make(chan struct{}, 1)
				r.rs.arm(&r.xfer[id], armed[id])
			}
			for id, tk := range g.Tasks {
				if tk.Kind == KRecv && id != R[4] {
					arm(id)
				}
			}
			ref := func(id int) netsim.AckRef {
				tk := g.Tasks[id]
				return netsim.AckRef{Gradient: tk.Grad, Step: packStep(tk.Step, tk.Part)}
			}
			// ack is the receiver's ack of transfer id, From and To swapped
			// when reversed, naming (grad, step) — ref(id)'s unless overridden.
			ack := func(id int, reversed bool, refs ...netsim.AckRef) {
				tk := g.Tasks[id]
				msg := netsim.Message{From: tk.Node, To: tk.Peer, Ack: true}
				if reversed {
					msg.From, msg.To = msg.To, msg.From
				}
				if len(refs) == 1 {
					msg.Gradient, msg.Step = refs[0].Gradient, refs[0].Step
				} else {
					msg.AckBatch = refs
				}
				if !r.dispatchMsg(&nodeRT{id: msg.To}, &msg) {
					t.Fatalf("ack %+v stopped the dispatcher", msg)
				}
			}
			expect := func(stage string, closed ...int) {
				t.Helper()
				want := map[int]bool{}
				for _, id := range closed {
					want[id] = true
				}
				for id, ch := range armed {
					select {
					case <-ch:
						woke[id] = true
					default:
					}
					if woke[id] && !want[id] {
						t.Fatalf("%s: transfer %d settled", stage, id)
					}
					if !woke[id] && want[id] {
						t.Fatalf("%s: transfer %d still armed", stage, id)
					}
				}
				link := g.Tasks[R[0]]
				total := 0
				for _, s := range r.rs.succ {
					total += s
				}
				if r.rs.succ[link.Node] != len(closed) || r.rs.succ[link.Peer] != len(closed) || total != 2*len(closed) {
					t.Fatalf("%s: scoreboard %v, want %d for each of %d and %d and nothing else",
						stage, r.rs.succ, len(closed), link.Peer, link.Node)
				}
			}

			unknownGrad, unknownStep := ref(R[0]), ref(R[0])
			unknownGrad.Gradient = "zz"
			unknownStep.Step = packStep(99, 0)
			ack(R[0], false, unknownGrad)
			ack(R[0], false, unknownStep)
			ack(R[0], true, ref(R[0]))
			ack(R[4], false, ref(R[4]))
			expect("unmatched acks")

			ack(R[0], false, ref(R[0]))
			expect("plain ack", R[0])
			ack(R[0], false, ref(R[1]), ref(R[2]), ref(R[3]))
			expect("batched ack", R[0], R[1], R[2], R[3])
			ack(R[0], false, ref(R[0]))
			ack(R[0], false, ref(R[2]), ref(R[3]))
			expect("duplicate acks", R[0], R[1], R[2], R[3])

			arm(R[4])
			ack(R[4], false, ref(R[4]))
			expect("armed after its early ack", R[0], R[1], R[2], R[3], R[4])
		})
	}
}

// TestAckRendezvousReuse pins the one rendezvous channel a lane worker reuses
// for every transfer it resolves: a settle after disarm posts nothing, a late
// settle of x1 once the channel is armed for x2 does not wake x2, x2's own
// settle wakes it exactly once, a token posted but never taken is drained by
// disarm, and each transfer credits the scoreboard once; deliver disarms on
// its way out. Transfer i runs from endpoint 0 to endpoint i+1, so succ[i+1]
// counts its credits.
func TestAckRendezvousReuse(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		rs := newRoundState(4)
		ch := make(chan struct{}, 1)
		var x [3]transfer
		settle := func(i int) { rs.settle(&x[i], 0, i+1) }
		wakes := func() int {
			for n := 0; ; n++ {
				select {
				case <-ch:
				default:
					return n
				}
			}
		}

		rs.arm(&x[0], ch)
		settle(0)
		if n := wakes(); n != 1 {
			t.Fatalf("x1's ack woke its sender %d times, want 1", n)
		}
		rs.disarm(&x[0], ch)
		settle(0) // a retransmit's ack, after deliver returned
		if n := wakes(); n != 0 {
			t.Fatalf("a settle after disarm woke the channel %d times", n)
		}
		rs.arm(&x[1], ch)
		settle(0) // later still, with the channel armed for x2
		if n := wakes(); n != 0 {
			t.Fatalf("a late settle of x1 woke x2 %d times", n)
		}
		settle(1)
		settle(1)
		if n := wakes(); n != 1 {
			t.Fatalf("x2's acks woke it %d times, want exactly 1", n)
		}
		rs.disarm(&x[1], ch)

		// x3's ack lands as its deadline expires: the token stays in the
		// channel until disarm drains it, so x3's successor starts clean.
		rs.arm(&x[2], ch)
		settle(2)
		rs.disarm(&x[2], ch)
		if len(ch) != 0 {
			t.Fatal("disarm left a posted token for the next transfer")
		}
		if want := []int{3, 1, 1, 1}; !slices.Equal(rs.succ, want) {
			t.Fatalf("scoreboard %v, want %v: each transfer credited once", rs.succ, want)
		}
	})

	// deliver disarms on every return path: here the round is unwinding, so
	// it returns with no ack, and that transfer's late ack must post
	// nothing into the worker's channel for its next transfer.
	t.Run("deliver", func(t *testing.T) {
		const n = 3
		g, lay := NewGraph(), newRoundLayout(1)
		if _, err := BuildPS(g, topoFor(StrategyPS, n), lay.add("a", 96, 1, "")); err != nil {
			t.Fatal(err)
		}
		recvIdx, err := indexRecvs(g)
		if err != nil {
			t.Fatal(err)
		}
		tr := netsim.NewChanTransport(n, 16)
		defer tr.Close()
		r := &liveRound{roundPlan: &roundPlan{g: g, recvIdx: recvIdx, xfer: make([]transfer, len(g.Tasks))},
			rs: newRoundState(n), tr: tr, doneCh: make(chan struct{}),
			hp: newHealthPlane(n, nil, RetryPolicy{}.withDefaults(), false, nil)}
		close(r.doneCh)
		var send *Task
		for _, tk := range g.Tasks {
			if tk.Kind == KSend && send == nil {
				send = tk
			}
		}
		msg := netsim.Message{From: send.Node, To: send.Peer, Gradient: send.Grad, Step: packStep(send.Step, send.Part)}
		id := recvIdx[wireKey{send.Grad, msg.Step, msg.To, msg.From}]
		w := &laneWaiter{timer: time.NewTimer(time.Hour), ack: make(chan struct{}, 1)}
		defer w.timer.Stop()
		if err := r.deliver([]pendingSend{{t: send, msg: msg, x: &r.xfer[id]}}, msg, w); err != nil {
			t.Fatal(err)
		}
		r.rs.settle(&r.xfer[id], msg.From, msg.To)
		if len(w.ack) != 0 || r.xfer[id].ack != nil || r.rs.succ[msg.From] != 0 {
			t.Fatalf("an ack after deliver returned posted %d tokens, left the transfer armed=%v, credited %d",
				len(w.ack), r.xfer[id].ack != nil, r.rs.succ[msg.From])
		}
	})

	// Settlers race a worker cycling through transfers on one channel,
	// settling the one it is on, the one before (late acks) and the one after
	// (early acks) over and over; the worker gives up on every third transfer
	// at once, as on an expired deadline. Whenever the worker wakes, the
	// transfer it is armed for has been credited; after every disarm the
	// channel is empty; no transfer is credited twice.
	t.Run("concurrent", func(t *testing.T) {
		const transfers, settlers = 300, 3
		rs := newRoundState(transfers + 1)
		x := make([]transfer, transfers)
		ch := make(chan struct{}, 1)
		credited := func(i int) int {
			rs.mu.Lock()
			defer rs.mu.Unlock()
			return rs.succ[i+1]
		}
		var cur atomic.Int64
		done := make(chan struct{})
		var wg sync.WaitGroup
		for s := 0; s < settlers; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					i := int(cur.Load())
					for j := max(i-1, 0); j <= min(i+1, transfers-1); j++ {
						rs.settle(&x[j], 0, j+1)
					}
					runtime.Gosched()
				}
			}()
		}
		wakes := 0
		for i := range x {
			cur.Store(int64(i))
			rs.arm(&x[i], ch)
			for spin := 0; i%3 != 0 && spin < 100; spin++ {
				select {
				case <-ch:
					wakes++
					if credited(i) != 1 {
						t.Errorf("transfer %d woke its sender with %d credits", i, credited(i))
					}
					spin = 100
				default:
					runtime.Gosched()
				}
			}
			rs.disarm(&x[i], ch)
			if len(ch) != 0 {
				t.Fatalf("disarm of transfer %d left a token for the next", i)
			}
		}
		close(done)
		wg.Wait()
		total := 0
		for i := range x {
			if c := credited(i); c > 1 {
				t.Fatalf("transfer %d credited %d times", i, c)
			}
			total += credited(i)
		}
		if rs.succ[0] != total || wakes > total {
			t.Fatalf("sender credited %d, transfers %d, wakes %d: want sender = transfers ≥ wakes", rs.succ[0], total, wakes)
		}
		t.Logf("%d of %d transfers credited, %d woke their sender", total, transfers, wakes)
	})
}
