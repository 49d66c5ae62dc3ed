package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
	"weak"

	"hipress/internal/compress"
	"hipress/internal/netsim"
	"hipress/internal/tensor"
)

// This file holds the live round to what its one-pass data path must not
// change: a payload that references an accumulator or the caller's gradient
// where it lies is never rewritten or retained, every corruption a test can
// inject is still rejected, and the bytes a round returns are the bytes it
// returned before.

// TestMergeAfterStageFailsRound: a DAG that merges into an accumulator after a
// raw send staged it — which neither builder emits (TestSendsFollowMerges) —
// fails the round with errMergeAfterStage instead of rewriting a payload that
// may still be in flight.
func TestMergeAfterStageFailsRound(t *testing.T) {
	const ne = 2048
	lc, err := NewLiveCluster(2, LiveConfig{Strategy: StrategyRing, RoundTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph()
	add := func(after int, task Task) int {
		task.Grad, task.Bytes = "g", 4*ne
		id := g.Add(&task)
		if after >= 0 {
			g.Dep(after, id)
		}
		return id
	}
	// Node 0 contributes, node 1 merges and sends the aggregate back...
	id := add(-1, Task{Kind: KSend, Node: 0, Peer: 1, Step: 0, Phase: 1})
	id = add(id, Task{Kind: KRecv, Node: 1, Peer: 0, Step: 0, Phase: 1})
	id = add(id, Task{Kind: KMerge, Node: 1, Peer: 0, Step: 1, Phase: 1})
	id = add(id, Task{Kind: KSend, Node: 1, Peer: 0, Step: 1, Phase: 2})
	id = add(id, Task{Kind: KRecv, Node: 0, Peer: 1, Step: 1, Phase: 2})
	// ...and then, against the invariant, merges a second contribution into
	// the accumulator that send referenced.
	id = add(id, Task{Kind: KSend, Node: 0, Peer: 1, Step: 2, Phase: 1})
	id = add(id, Task{Kind: KRecv, Node: 1, Peer: 0, Step: 2, Phase: 1})
	add(id, Task{Kind: KMerge, Node: 1, Peer: 0, Step: 3, Phase: 1})
	grads, _ := makeGrads(5, 2, map[string]int{"g": ne})
	lay := newRoundLayout(1)
	lay.add("g", ne, 1, "")
	p, err := lc.planGraph(lc.epoch, g, lay)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = lc.run(context.Background(), p, grads, nil, 0)
	if !errors.Is(err, errMergeAfterStage) {
		t.Fatalf("round error = %v, want errMergeAfterStage", err)
	}
}

// onePassArm is one (strategy, algorithm) shape of the tables below, with
// gradients sized so that payloads fall on both sides of the transport's
// combine threshold (4 KiB): the large ones travel with a cached payload CRC,
// the small ones are checksummed straight through.
type onePassArm struct {
	name  string
	cfg   LiveConfig
	sizes map[string]int
}

func onePassArms() []onePassArm {
	return []onePassArm{
		{"ring/raw", LiveConfig{Strategy: StrategyRing, Parts: 2},
			map[string]int{"big": 6000, "small": 64}}, // 12 KB and 128 B partitions
		{"ps/raw", LiveConfig{Strategy: StrategyPS, Parts: 2},
			map[string]int{"big": 6000, "small": 64}},
		{"ring/onebit", LiveConfig{Strategy: StrategyRing, Parts: 2, Algo: "onebit", ErrorFeedback: true},
			map[string]int{"big": 80000, "small": 64}}, // ≈5 KB and ≈12 B payloads
		{"ps/onebit", LiveConfig{Strategy: StrategyPS, Parts: 2, Algo: "onebit", ErrorFeedback: true},
			map[string]int{"big": 80000, "small": 64}},
		{"ring/dgc+ef", LiveConfig{Strategy: StrategyRing, Parts: 2, Algo: "dgc", ErrorFeedback: true},
			map[string]int{"big": 80000, "small": 64}},
		{"ps/dgc+ef", LiveConfig{Strategy: StrategyPS, Parts: 2, Algo: "dgc", ErrorFeedback: true},
			map[string]int{"big": 80000, "small": 64}},
	}
}

// TestLiveIntegrityMatrix: over {chan, tcp} × {message-level corruption before
// Send, wire-level corruption under the framing (tcp only)} × {raw ring,
// onebit PS}, reliable delivery converges to results bit-identical to the
// clean run of the same arm, and the corruption is counted where it must be
// caught. Message-level corruption over TCP is the cell where a stale
// payload-CRC cache would do harm: the injector flips a byte in a copy of a
// payload whose CRC the sender cached, so the frame must be built from the
// bytes as they are (a valid frame around a bad payload, rejected by the live
// plane's own checksum and counted in CorruptDrops) — if the injector kept the
// cache, the frame checksum would be derived from the old bytes and the
// receiver would count a corrupt frame instead.
func TestLiveIntegrityMatrix(t *testing.T) {
	const n, rounds = 3, 2
	retry := RetryPolicy{MaxAttempts: 10, BaseBackoff: 20 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}
	injectors := []struct {
		name   string
		tcp    bool // needs the socket plane
		mutate func(*LiveConfig)
	}{
		{"chaos-corrupt", false, func(c *LiveConfig) {
			c.Chaos = &netsim.ChaosConfig{Seed: 11, Default: netsim.LinkFaults{Corrupt: 0.25}}
		}},
		{"wire-corrupt", true, func(c *LiveConfig) {
			// One flipped byte on every connection, somewhere in its first
			// 8 KiB: mostly inside a gradient payload.
			c.TCP = &netsim.TCPOptions{RedialAttempts: 6, IdleReadTimeout: 40 * time.Millisecond,
				Chaos: &netsim.WireChaosConfig{Seed: 5, CorruptProb: 1, CorruptWindow: 8 << 10}}
		}},
	}
	for _, arm := range onePassArms() {
		if arm.name != "ring/raw" && arm.name != "ps/onebit" {
			continue
		}
		for _, transport := range []string{"chan", "tcp"} {
			base := arm.cfg
			base.Transport = transport
			base.Retry = retry
			base.RoundTimeout = 30 * time.Second
			want, _ := runSizedDigests(t, base, n, rounds, arm.sizes)
			for _, inj := range injectors {
				if inj.tcp && transport != "tcp" {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/%s", arm.name, transport, inj.name), func(t *testing.T) {
					cfg := base
					inj.mutate(&cfg)
					got, healths := runSizedDigests(t, cfg, n, rounds, arm.sizes)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("round %d: digest %016x under corruption != clean %016x (health %+v)",
								i, got[i], want[i], healths[i])
						}
					}
					var injected, payloadDrops, frameDrops int64
					for _, h := range healths {
						payloadDrops += h.CorruptDrops
						if h.Chaos != nil {
							injected += h.Chaos.Corrupted
						}
						if h.Wire != nil {
							injected += h.Wire.CorruptedBytes
						}
						if h.TCP != nil {
							frameDrops += h.TCP.CorruptFrames + h.TCP.IdleDrops
						}
						if len(h.ExcludedPeers) != 0 {
							t.Fatalf("corruption escalated to exclusions: %+v", h.ExcludedPeers)
						}
					}
					if injected == 0 {
						t.Fatal("the injector never fired")
					}
					if inj.tcp {
						// A flipped wire byte fails the frame checksum (or, in
						// a length prefix, desyncs the stream until the idle
						// deadline): caught below the live plane.
						if frameDrops == 0 {
							t.Fatalf("%d wire bytes corrupted, no frame rejected: %+v", injected, healths)
						}
						return
					}
					// Every corrupted message is a valid frame around a bad
					// payload: the live plane's checksum catches each one (a
					// retransmission still in flight at round end aside), the
					// frame layer none.
					if payloadDrops == 0 || payloadDrops > injected || frameDrops != 0 {
						t.Fatalf("%d payloads corrupted before Send: %d rejected by the payload checksum, %d by the frame layer; want all by the former",
							injected, payloadDrops, frameDrops)
					}
				})
			}
		}
	}
}

// runSizedDigests runs rounds of cfg over freshly generated gradients of the
// given sizes and returns each round's digest and health.
func runSizedDigests(t *testing.T, cfg LiveConfig, n, rounds int, sizes map[string]int) ([]uint64, []*RoundHealth) {
	t.Helper()
	lc, err := NewLiveCluster(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var digests []uint64
	var healths []*RoundHealth
	for round := 0; round < rounds; round++ {
		grads, _ := makeGrads(uint64(100+round), n, sizes)
		out, health, err := lc.SyncRoundContext(context.Background(), grads)
		if err != nil {
			t.Fatalf("round %d: %v (health %+v, tcp %+v, wire %+v)", round, err, health, health.TCP, health.Wire)
		}
		digests = append(digests, digestRound(out))
		healths = append(healths, health)
	}
	return digests, healths
}

// TestRoundAliasingAndInputImmutability is the ownership contract of
// SyncRound, which the benchmark's input-digest gate checks from outside and
// the zero-copy raw path leans on from inside: over {ring, ps} × {raw, onebit,
// dgc+EF} × {chan, tcp}, a round leaves the caller's gradients as it found
// them; what it returns shares memory with nothing — flipping a bit in every
// returned slice changes no input, no other node's result, and not what the
// next round returns for the same inputs; and it keeps no reference to the
// inputs — scribbling over them after the return changes no returned value.
// In the -race jobs a payload view of caller memory that outlived the round
// would show up here as a data race with that scribble.
func TestRoundAliasingAndInputImmutability(t *testing.T) {
	const n = 3
	for _, arm := range onePassArms() {
		for _, transport := range []string{"chan", "tcp"} {
			t.Run(arm.name+"/"+transport, func(t *testing.T) {
				cfg := arm.cfg
				cfg.Transport = transport
				cfg.Retry = RetryPolicy{MaxAttempts: 8, BaseBackoff: 20 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}
				cfg.RoundTimeout = 30 * time.Second

				// The reference: two rounds over the same inputs on a cluster
				// nobody interferes with (error feedback makes round 2 differ
				// from round 1, deterministically).
				ref, err := NewLiveCluster(n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var want [2]uint64
				for i := range want {
					grads, _ := makeGrads(77, n, arm.sizes)
					out, err := ref.SyncRound(grads)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = digestRound(out)
				}

				lc, err := NewLiveCluster(n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				grads, _ := makeGrads(77, n, arm.sizes)
				before := digestRound(grads)
				out, err := lc.SyncRound(grads)
				if err != nil {
					t.Fatal(err)
				}
				if got := digestRound(grads); got != before {
					t.Fatalf("the round modified its inputs: digest %016x -> %016x", before, got)
				}
				if got := digestRound(out); got != want[0] {
					t.Fatalf("round 1 digest %016x != reference %016x", got, want[0])
				}

				// Flip a bit in every element of one node's results at a time:
				// nothing else may move.
				for v := range out {
					others := make([]map[string][]float32, 0, n-1)
					for u := range out {
						if u != v {
							others = append(others, out[u])
						}
					}
					othersBefore := digestRound(others)
					for _, res := range out[v] {
						for i := range res {
							res[i] = math.Float32frombits(math.Float32bits(res[i]) ^ 1)
						}
					}
					if got := digestRound(grads); got != before {
						t.Fatalf("writing node %d's results changed an input", v)
					}
					if got := digestRound(others); got != othersBefore {
						t.Fatalf("writing node %d's results changed another node's", v)
					}
				}

				// Same inputs again: the scribbled results must not have been
				// the cluster's own state.
				out2, err := lc.SyncRound(grads)
				if err != nil {
					t.Fatal(err)
				}
				if got := digestRound(out2); got != want[1] {
					t.Fatalf("round 2 digest %016x != reference %016x after round 1's results were overwritten", got, want[1])
				}

				// Overwrite the inputs: what was returned must not follow.
				for _, node := range grads {
					for _, g := range node {
						for i := range g {
							g[i] = -1e9
						}
					}
				}
				if got := digestRound(out2); got != want[1] {
					t.Fatalf("overwriting the inputs after the return changed the results: %016x != %016x", got, want[1])
				}

				// The Into form on a fresh cluster: round 1 into poisoned dst1
				// leaves the inputs as they were; scribbling dst1 moves nothing
				// round 2 writes into dst2; and once the caller drops dst1,
				// nothing the cluster keeps holds it alive.
				li, err := NewLiveCluster(n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				grads, _ = makeGrads(77, n, arm.sizes)
				dst1, backing := carveDst(grads)
				dst2, _ := carveDst(grads)
				for i, dst := range [][]map[string][]float32{dst1, dst2} {
					poison(dst)
					if _, err := li.SyncRoundInto(context.Background(), grads, dst); err != nil {
						t.Fatal(err)
					}
					if got := digestRound(grads); got != before {
						t.Fatalf("Into round %d modified its inputs", i+1)
					}
					if got := digestRound(dst); got != want[i] {
						t.Fatalf("Into round %d digest %016x != reference %016x", i+1, got, want[i])
					}
					poison(dst1)
				}
				kept := weak.Make(&backing[0])
				dst1, backing = nil, nil
				for i := 0; i < 3 && kept.Value() != nil; i++ {
					runtime.GC()
				}
				if kept.Value() != nil {
					t.Fatal("the cluster retained a round's destinations after it returned")
				}
				runtime.KeepAlive(li)
			})
		}
	}
}

// BenchmarkRawRingRound is the exact ring the paper's speedups are measured
// against, at the benchmark's shape in small: 4 nodes over loopback TCP,
// reliable, windowed, one 3 MiB gradient and thirty 4 KiB ones, uncompressed.
// Bytes per op are what one node contributes.
func BenchmarkRawRingRound(b *testing.B) {
	const n = 4
	sizes := map[string]int{"big": 3 << 18}
	for i := 0; i < 30; i++ {
		sizes[fmt.Sprintf("small%02d", i)] = 1 << 10
	}
	lc, err := NewLiveCluster(n, LiveConfig{
		Strategy: StrategyRing, Parts: 2, Transport: "tcp",
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(1)
	grads := make([]map[string][]float32, n)
	perNode := 0
	for v := range grads {
		grads[v] = map[string][]float32{}
		for name, ne := range sizes {
			grads[v][name] = make([]float32, ne)
			rng.FillNormal(grads[v][name], 1)
		}
	}
	for _, ne := range sizes {
		perNode += 4 * ne
	}
	if _, err := lc.SyncRound(grads); err != nil { // warm the arena
		b.Fatal(err)
	}
	b.SetBytes(int64(perNode))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lc.SyncRound(grads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressedPSRound is the merge-bound counterpart of the raw ring:
// 4 nodes over chan, PS, dgc with error feedback, one 1 MiB gradient and thirty
// 4 KiB ones in two partitions — every contribution a sparse payload that the
// partition's server decode-adds into its accumulator. With -benchmem, allocs
// and bytes per op are the round's state tables and results; the codec and the
// merge add none. Bytes per op are what one node contributes.
func BenchmarkCompressedPSRound(b *testing.B) { benchPSRound(b, LiveConfig{}) }

func benchPSRound(b *testing.B, cfg LiveConfig) {
	const n = 4
	sizes := map[string]int{"big": 1 << 18}
	for i := 0; i < 30; i++ {
		sizes[fmt.Sprintf("small%02d", i)] = 1 << 10
	}
	cfg.Strategy, cfg.Parts = StrategyPS, 2
	cfg.Algo, cfg.ErrorFeedback, cfg.Params = "dgc", true, compress.Params{"ratio": 0.01}
	lc, err := NewLiveCluster(n, cfg)
	if err != nil {
		b.Fatal(err)
	}
	grads, _ := makeGrads(1, n, sizes)
	perNode := 0
	for _, ne := range sizes {
		perNode += 4 * ne
	}
	if _, err := lc.SyncRound(grads); err != nil { // warm the arena
		b.Fatal(err)
	}
	b.SetBytes(int64(perNode))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lc.SyncRound(grads); err != nil {
			b.Fatal(err)
		}
	}
}
