package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hipress/internal/compress"
	"hipress/internal/netsim"
	"hipress/internal/tensor"
)

// makeGrads builds n nodes' worth of random gradients with the given layer
// sizes, plus the exact element-wise sums for verification.
func makeGrads(seed uint64, n int, sizes map[string]int) (grads []map[string][]float32, sums map[string][]float32) {
	rng := tensor.NewRNG(seed)
	// Fill in sorted-name order so the same seed always yields the same
	// data (map iteration order would randomize it call to call).
	names := make([]string, 0, len(sizes))
	for name := range sizes {
		names = append(names, name)
	}
	sort.Strings(names)
	grads = make([]map[string][]float32, n)
	sums = map[string][]float32{}
	for _, name := range names {
		sums[name] = make([]float32, sizes[name])
	}
	for v := 0; v < n; v++ {
		grads[v] = map[string][]float32{}
		for _, name := range names {
			g := make([]float32, sizes[name])
			rng.FillNormal(g, 1)
			grads[v][name] = g
			tensor.Add(sums[name], g)
		}
	}
	return grads, sums
}

func TestLiveClusterValidation(t *testing.T) {
	if _, err := NewLiveCluster(1, LiveConfig{Strategy: StrategyRing}); err == nil {
		t.Fatalf("1-node cluster accepted")
	}
	if _, err := NewLiveCluster(3, LiveConfig{Strategy: Strategy(9)}); err == nil {
		t.Fatalf("bogus strategy accepted")
	}
	if _, err := NewLiveCluster(3, LiveConfig{Strategy: StrategyPS, Algo: "nope"}); err == nil {
		t.Fatalf("bogus algorithm accepted")
	}
}

// TestLiveExactSync: uncompressed synchronization must deliver the exact sum
// to every node, for both strategies and several partition counts and
// cluster sizes, including gradients whose size doesn't divide K.
func TestLiveExactSync(t *testing.T) {
	sizes := map[string]int{"w1": 1000, "w2": 37, "w3": 4096}
	for _, strat := range []Strategy{StrategyRing, StrategyPS} {
		for _, n := range []int{2, 3, 5} {
			for _, parts := range []int{1, 3} {
				name := fmt.Sprintf("%v/n=%d/k=%d", strat, n, parts)
				lc, err := NewLiveCluster(n, LiveConfig{Strategy: strat, Parts: parts})
				if err != nil {
					t.Fatal(err)
				}
				grads, sums := makeGrads(uint64(n*10+parts), n, sizes)
				out, err := lc.SyncRound(grads)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for v := 0; v < n; v++ {
					for gname, want := range sums {
						got := out[v][gname]
						if len(got) != len(want) {
							t.Fatalf("%s: node %d %s length %d, want %d", name, v, gname, len(got), len(want))
						}
						for i := range want {
							if math.Abs(float64(got[i]-want[i])) > 1e-4 {
								t.Fatalf("%s: node %d %s[%d] = %v, want %v", name, v, gname, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestLiveAllNodesAgree: with compression, all nodes must still hold
// *identical* synchronized gradients (consistency is exact even when the
// values are lossy).
func TestLiveAllNodesAgree(t *testing.T) {
	sizes := map[string]int{"w": 2048}
	for _, strat := range []Strategy{StrategyRing, StrategyPS} {
		for _, algo := range []string{"onebit", "terngrad", "dgc", "graddrop", "tbq"} {
			lc, err := NewLiveCluster(4, LiveConfig{Strategy: strat, Algo: algo, Parts: 2})
			if err != nil {
				t.Fatal(err)
			}
			grads, _ := makeGrads(7, 4, sizes)
			out, err := lc.SyncRound(grads)
			if err != nil {
				t.Fatalf("%v/%s: %v", strat, algo, err)
			}
			ref := out[0]["w"]
			for v := 1; v < 4; v++ {
				for i := range ref {
					if out[v]["w"][i] != ref[i] {
						t.Fatalf("%v/%s: node %d diverges from node 0 at %d: %v vs %v",
							strat, algo, v, i, out[v]["w"][i], ref[i])
					}
				}
			}
		}
	}
}

// TestLiveTernGradApproximatesSum: TernGrad is unbiased, so the synchronized
// result should be reasonably close to the exact sum for a moderately sized
// gradient, and closer at higher bitwidths.
func TestLiveTernGradApproximatesSum(t *testing.T) {
	sizes := map[string]int{"w": 8192}
	errAt := func(bitwidth float64) float64 {
		lc, err := NewLiveCluster(4, LiveConfig{
			Strategy: StrategyPS, Algo: "terngrad",
			Params: map[string]float64{"bitwidth": bitwidth},
		})
		if err != nil {
			t.Fatal(err)
		}
		grads, sums := makeGrads(21, 4, sizes)
		out, err := lc.SyncRound(grads)
		if err != nil {
			t.Fatal(err)
		}
		return tensor.L1Diff(out[0]["w"], sums["w"])
	}
	e2, e8 := errAt(2), errAt(8)
	if e8 >= e2 {
		t.Fatalf("8-bit error %v not below 2-bit error %v", e8, e2)
	}
	scale := tensor.MeanAbs(make([]float32, 1)) // zero; compute real scale below
	_ = scale
	// 8-bit quantization of a sum of 4 unit gaussians: error well under the
	// signal scale (~0.8 mean abs per node → sum scale ~1.6).
	if e8 > 0.2 {
		t.Fatalf("8-bit terngrad sync error %v too large", e8)
	}
}

// TestLiveErrorFeedbackAccumulates: after many rounds with DGC + error
// feedback on a constant gradient, the cumulative synchronized mass matches
// rounds × N × grad (nothing is permanently lost).
func TestLiveErrorFeedbackAccumulates(t *testing.T) {
	// With keep-ratio q and values v_i, error feedback serves element i
	// roughly every mean(v)/(q·v_i) rounds, so its in-flight residual is
	// bounded; at q=0.2 over 100 rounds the undelivered fraction is well
	// under the 25% tolerance below.
	const n, sz, rounds = 3, 200, 100
	lc, err := NewLiveCluster(n, LiveConfig{
		Strategy: StrategyPS, Algo: "dgc",
		Params:        map[string]float64{"ratio": 0.2},
		ErrorFeedback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	grad := make([]float32, sz)
	for i := range grad {
		grad[i] = 1 + float32(i%5)
	}
	total := make([]float32, sz)
	for r := 0; r < rounds; r++ {
		grads := make([]map[string][]float32, n)
		for v := range grads {
			grads[v] = map[string][]float32{"w": tensor.Clone(grad)}
		}
		out, err := lc.SyncRound(grads)
		if err != nil {
			t.Fatal(err)
		}
		tensor.Add(total, out[0]["w"])
	}
	for i := range grad {
		want := float64(grad[i]) * n * rounds
		if math.Abs(float64(total[i])-want) > want*0.25 {
			t.Fatalf("element %d: cumulative %v, want ~%v", i, total[i], want)
		}
	}
}

// TestLiveMismatchedGradientsRejected: nodes presenting different gradient
// sets must fail loudly.
func TestLiveMismatchedGradientsRejected(t *testing.T) {
	lc, err := NewLiveCluster(2, LiveConfig{Strategy: StrategyRing})
	if err != nil {
		t.Fatal(err)
	}
	a := map[string][]float32{"w": make([]float32, 10)}
	b := map[string][]float32{"w": make([]float32, 11)}
	if _, err := lc.SyncRound([]map[string][]float32{a, b}); err == nil {
		t.Fatalf("length mismatch accepted")
	}
	c := map[string][]float32{"w": make([]float32, 10), "x": make([]float32, 3)}
	if _, err := lc.SyncRound([]map[string][]float32{a, c}); err == nil {
		t.Fatalf("name-set mismatch accepted")
	}
	if _, err := lc.SyncRound([]map[string][]float32{a}); err == nil {
		t.Fatalf("wrong node count accepted")
	}
}

// TestLiveManyGradientsManyRounds exercises queue reuse and residual state
// across rounds with a larger DAG.
func TestLiveManyGradientsManyRounds(t *testing.T) {
	sizes := map[string]int{}
	for i := 0; i < 12; i++ {
		sizes[fmt.Sprintf("layer%02d", i)] = 64 + i*37
	}
	lc, err := NewLiveCluster(3, LiveConfig{Strategy: StrategyRing, Algo: "onebit", ErrorFeedback: true, Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		grads, _ := makeGrads(uint64(round), 3, sizes)
		out, err := lc.SyncRound(grads)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for name := range sizes {
			ref := out[0][name]
			for v := 1; v < 3; v++ {
				for i := range ref {
					if out[v][name][i] != ref[i] {
						t.Fatalf("round %d: %s diverges across nodes", round, name)
					}
				}
			}
		}
	}
}

// TestLiveOverTCP: the same synchronization runs unchanged over real
// loopback sockets — exact sums, all algorithms agree across nodes.
func TestLiveOverTCP(t *testing.T) {
	sizes := map[string]int{"w1": 500, "w2": 33}
	lc, err := NewLiveCluster(3, LiveConfig{Strategy: StrategyPS, Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	grads, sums := makeGrads(5, 3, sizes)
	out, err := lc.SyncRound(grads)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		for name, want := range sums {
			for i := range want {
				if math.Abs(float64(out[v][name][i]-want[i])) > 1e-4 {
					t.Fatalf("tcp: node %d %s[%d] = %v, want %v", v, name, i, out[v][name][i], want[i])
				}
			}
		}
	}
	// Compressed over TCP, multiple rounds (fresh sockets per round).
	lc2, err := NewLiveCluster(3, LiveConfig{Strategy: StrategyRing, Algo: "onebit", ErrorFeedback: true, Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		grads, _ := makeGrads(uint64(round), 3, sizes)
		out, err := lc2.SyncRound(grads)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for v := 1; v < 3; v++ {
			for name := range sizes {
				for i := range out[0][name] {
					if out[v][name][i] != out[0][name][i] {
						t.Fatalf("tcp compressed: nodes diverge on %s", name)
					}
				}
			}
		}
	}
}

// TestLiveConfigValidate is the constraint table: one row per rule in
// LiveConfig.Validate, each rejected at construction with a *ConfigError
// naming the field, plus the configurations that must stay valid. An unknown
// transport used to construct fine and fail every round.
func TestLiveConfigValidate(t *testing.T) {
	chaos := &netsim.ChaosConfig{Seed: 1}
	wireChaos := &netsim.TCPOptions{Chaos: &netsim.WireChaosConfig{Seed: 1, CorruptProb: 1}}
	cases := []struct {
		name  string
		cfg   LiveConfig
		field string // "" = valid
	}{
		{"zero config", LiveConfig{}, ""},
		{"all planes on", LiveConfig{Strategy: StrategyPS, Transport: "tcp",
			OnPeerFail: DegradeExclude, Elastic: true, Chaos: chaos, Health: &HealthConfig{Adaptive: true}}, ""},
		{"chaos under a round timeout", LiveConfig{Chaos: chaos, RoundTimeout: time.Second}, ""},
		{"passive health plane", LiveConfig{Health: &HealthConfig{}}, ""},
		{"unknown transport", LiveConfig{Transport: "udp"}, "Transport"},
		{"halving-doubling is not live", LiveConfig{Strategy: StrategyHD}, "Strategy"},
		{"unknown strategy", LiveConfig{Strategy: Strategy(42)}, "Strategy"},
		{"chaos without a timeout", LiveConfig{Chaos: chaos}, ""},
		{"wire chaos without a timeout", LiveConfig{Strategy: StrategyPS, Transport: "tcp", TCP: wireChaos}, ""},
		{"send window", LiveConfig{Pipeline: PipelineConfig{Window: 4}}, ""},
		{"wire chaos under a round timeout", LiveConfig{Strategy: StrategyPS, Transport: "tcp", TCP: wireChaos, RoundTimeout: time.Second}, ""},
		{"exclude on a ring", LiveConfig{Strategy: StrategyRing, OnPeerFail: DegradeExclude}, "OnPeerFail"},
		{"elastic PS with exclude", LiveConfig{Strategy: StrategyPS, OnPeerFail: DegradeExclude, Elastic: true}, ""},
		{"elastic with abort", LiveConfig{Strategy: StrategyPS, Elastic: true}, "Elastic"},
		{"elastic on a ring", LiveConfig{Strategy: StrategyRing, OnPeerFail: DegradeExclude, Elastic: true}, "OnPeerFail"},
		{"adaptive health plane", LiveConfig{Health: &HealthConfig{Adaptive: true}}, ""},
		{"heartbeats on the adaptive plane", LiveConfig{Health: &HealthConfig{Adaptive: true, HeartbeatEvery: time.Millisecond}}, ""},
		{"heartbeats on the static plane", LiveConfig{Health: &HealthConfig{HeartbeatEvery: time.Millisecond}}, "Health.HeartbeatEvery"},
		{"static budget at the wire's attempt limit", LiveConfig{Retry: RetryPolicy{MaxAttempts: 32768}}, ""},
		{"static budget past the wire's attempt limit", LiveConfig{Retry: RetryPolicy{MaxAttempts: 32769}}, "Retry.MaxAttempts"},
		{"partitions at the epoch frame's limit", LiveConfig{Parts: 4096}, ""},
		{"partitions past the epoch frame's limit", LiveConfig{Parts: 4097}, "Parts"},
	}
	for _, c := range cases {
		_, err := NewLiveCluster(3, c.cfg)
		var ce *ConfigError
		switch {
		case c.field == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.field != "" && !errors.As(err, &ce):
			t.Errorf("%s: err = %v, want a *ConfigError on %s", c.name, err, c.field)
		case c.field != "" && ce.Field != c.field:
			t.Errorf("%s: ConfigError names %q (%v), want %q", c.name, ce.Field, err, c.field)
		}
	}

	// The runtime entry points answer with the same definition.
	lc, err := NewLiveCluster(3, LiveConfig{Strategy: StrategyPS, OnPeerFail: DegradeExclude})
	if err != nil {
		t.Fatal(err)
	}
	ring := PlanEpoch{Version: 1, Strategy: StrategyRing, Parts: 1, CompressMin: -1}
	plain, err := NewLiveCluster(3, LiveConfig{Strategy: StrategyPS})
	if err != nil {
		t.Fatal(err)
	}
	runtime := []struct {
		name  string
		err   error
		field string
	}{
		{"RestoreEpoch to a ring under exclude", lc.RestoreEpoch(ring, 0), "OnPeerFail"},
		{"ProposeEpoch of a ring under exclude", lc.ProposeEpoch(ring), "OnPeerFail"},
		{"ProposeEpoch of halving-doubling", lc.ProposeEpoch(PlanEpoch{Version: 1, Strategy: StrategyHD, Parts: 1, CompressMin: -1}), "Strategy"},
		{"ProposeEpoch past the epoch frame's partition limit", lc.ProposeEpoch(PlanEpoch{Version: 1, Strategy: StrategyPS, Parts: maxEpochParts + 1, CompressMin: -1}), "Parts"},
	}
	for _, c := range runtime {
		var ce *ConfigError
		if !errors.As(c.err, &ce) || ce.Field != c.field {
			t.Errorf("%s: err = %v, want a *ConfigError on %s", c.name, c.err, c.field)
		}
	}
	if err := plain.SetChaos(chaos); err != nil {
		t.Errorf("SetChaos on a zero-config cluster: %v", err)
	}
	if err := plain.SetChaos(nil); err != nil {
		t.Errorf("SetChaos(nil): %v", err)
	}
	if err := lc.SetChaos(chaos); err != nil {
		t.Errorf("SetChaos on an excluding cluster: %v", err)
	}
}

// failingCompressor errors after a set number of encodes — failure
// injection for the live plane.
type failingCompressor struct {
	mu    sync.Mutex
	calls int
	after int
}

func (f *failingCompressor) Name() string { return "test-failing" }
func (f *failingCompressor) EncodeInto(dst []byte, g []float32) ([]byte, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if n > f.after {
		return nil, fmt.Errorf("injected encode failure (call %d)", n)
	}
	return compress.Onebit{}.EncodeInto(dst, g)
}
func (f *failingCompressor) DecodeInto(dst []float32, p []byte) error {
	return compress.Onebit{}.DecodeInto(dst, p)
}
func (f *failingCompressor) CompressedSize(n int) int { return compress.Onebit{}.CompressedSize(n) }

func init() {
	compress.Register("test-failing", func(p compress.Params) (compress.Compressor, error) {
		return &failingCompressor{after: int(p.Get("after", 2))}, nil
	})
}

// TestLiveFailurePropagates: a compressor error mid-round must surface as an
// error from SyncRound — not a hang, not a panic — and a fresh cluster must
// work afterwards (no leaked global state).
func TestLiveFailurePropagates(t *testing.T) {
	lc, err := NewLiveCluster(3, LiveConfig{
		Strategy: StrategyPS, Algo: "test-failing",
		Params: compress.Params{"after": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	grads, _ := makeGrads(1, 3, map[string]int{"a": 128, "b": 128, "c": 128})
	done := make(chan error, 1)
	go func() {
		_, err := lc.SyncRound(grads)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("injected failure did not surface")
		}
		if !strings.Contains(err.Error(), "injected encode failure") {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SyncRound hung after injected failure")
	}

	// A healthy cluster still works.
	ok, err := NewLiveCluster(3, LiveConfig{Strategy: StrategyPS, Algo: "onebit"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ok.SyncRound(grads); err != nil {
		t.Fatalf("healthy cluster failed after injection test: %v", err)
	}
}

// TestLiveWireStats: a compressed live cluster reports the realized
// compression — the actual bytes kept off the wire by real payloads.
func TestLiveWireStats(t *testing.T) {
	lc, err := NewLiveCluster(3, LiveConfig{Strategy: StrategyPS, Algo: "onebit"})
	if err != nil {
		t.Fatal(err)
	}
	grads, _ := makeGrads(3, 3, map[string]int{"w": 4096})
	if _, err := lc.SyncRound(grads); err != nil {
		t.Fatal(err)
	}
	st := lc.WireStats()
	if st.Encodes == 0 || st.Decodes == 0 {
		t.Fatalf("no instrumentation recorded: %+v", st)
	}
	if r := st.Ratio(); r < 0.02 || r > 0.06 {
		t.Fatalf("realized onebit wire ratio = %.4f, want ~1/32", r)
	}
	if st.Saved() <= 0 {
		t.Fatalf("no bytes saved: %+v", st)
	}
	// An exact cluster reports zeroes.
	exact, _ := NewLiveCluster(3, LiveConfig{Strategy: StrategyPS})
	if _, err := exact.SyncRound(grads); err != nil {
		t.Fatal(err)
	}
	if exact.WireStats() != (compress.Stats{}) {
		t.Fatalf("exact cluster has stats")
	}
}

// TestRoundQueueSizes: a round's queues follow the traffic its DAG declares.
// Q_comp holds exactly a node's compute tasks; an inbox holds every frame a
// clean round delivers to any node — its data frames plus the acks of its own
// sends, counted here from the receiving side — and is never larger than the
// task-count guess it replaced.
func TestRoundQueueSizes(t *testing.T) {
	sizes := map[string]int{}
	for i := 0; i < 8; i++ {
		sizes[fmt.Sprintf("g%d", i)] = 64 << i
	}
	for _, strat := range []Strategy{StrategyPS, StrategyRing} {
		for _, n := range []int{2, 3, 4} {
			for _, algo := range []string{"", "onebit"} {
				lc, err := NewLiveCluster(n, LiveConfig{Strategy: strat, Parts: 2, Algo: algo})
				if err != nil {
					t.Fatal(err)
				}
				grads, _ := makeGrads(1, n, sizes)
				g := buildRound(t, lc, grads).g
				name := fmt.Sprintf("%v/n%d/%q", strat, n, algo)
				comp, inbox := queueSizes(g, n)
				wantComp, frames := make([]int, n), make([]int, n)
				for _, tk := range g.Tasks {
					switch tk.Kind {
					case KSend:
					case KRecv:
						frames[tk.Node]++
						frames[tk.Peer]++ // the ack goes back to the sender
					default:
						wantComp[tk.Node]++
					}
				}
				for v := 0; v < n; v++ {
					if comp[v] != wantComp[v] {
						t.Errorf("%s: node %d Q_comp capacity %d, want its %d compute tasks", name, v, comp[v], wantComp[v])
					}
					if inbox < frames[v] {
						t.Errorf("%s: inbox capacity %d < the %d frames node %d receives", name, inbox, frames[v], v)
					}
				}
				if parent := 4 * (len(g.Tasks)/n + 16); inbox > parent {
					t.Errorf("%s: inbox capacity %d above the %d the task-count guess gave", name, inbox, parent)
				}
			}
		}
	}
}
