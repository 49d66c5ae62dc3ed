package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"hipress/internal/netsim"
)

// epochGrads builds n gradient sets of the given sizes with small-integer
// values, so float summation is exact in any order and results can be
// compared bitwise against the analytic sum.
func epochGrads(n int, sizes map[string]int) []map[string][]float32 {
	out := make([]map[string][]float32, n)
	for v := range out {
		out[v] = map[string][]float32{}
		for name, ne := range sizes {
			g := make([]float32, ne)
			for i := range g {
				g[i] = float32((v + 1) * (i%7 + 1))
			}
			out[v][name] = g
		}
	}
	return out
}

// exactSum returns the analytic aggregate for epochGrads values.
func exactSum(n, ne int) []float32 {
	s := make([]float32, ne)
	for i := range s {
		s[i] = float32((i%7 + 1) * n * (n + 1) / 2)
	}
	return s
}

func TestPlanEpochCodecRoundTrip(t *testing.T) {
	cases := []PlanEpoch{
		{Version: 0, Strategy: StrategyRing, Parts: 1, CompressMin: -1},
		{Version: 1, Strategy: StrategyPS, Parts: 4, CompressMin: 0},
		{Version: 1<<63 - 1, Strategy: StrategyPS, Parts: maxEpochParts, CompressMin: 1 << 40},
		{Version: 42, Strategy: StrategyRing, Parts: 7, CompressMin: -12345},
	}
	for _, ep := range cases {
		b := EncodePlanEpoch(ep)
		if len(b) != epochFrameLen {
			t.Fatalf("frame length %d, want %d", len(b), epochFrameLen)
		}
		got, err := DecodePlanEpoch(b)
		if err != nil {
			t.Fatalf("decode %v: %v", ep, err)
		}
		if got != ep {
			t.Fatalf("round trip %v -> %v", ep, got)
		}
	}
}

func TestPlanEpochDecodeRejects(t *testing.T) {
	valid := EncodePlanEpoch(PlanEpoch{Version: 3, Strategy: StrategyPS, Parts: 2, CompressMin: 0})
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"short", valid[:10]},
		{"long", append(append([]byte(nil), valid...), 0)},
		{"bad-magic", mutate(func(b []byte) { b[0] = 'X' })},
		{"bad-format", mutate(func(b []byte) { b[4] = 99 })},
		{"bad-crc", mutate(func(b []byte) { b[epochFrameLen-1] ^= 0xff })},
	}
	for _, c := range cases {
		if _, err := DecodePlanEpoch(c.b); err == nil {
			t.Errorf("%s: decode accepted a malformed frame", c.name)
		}
	}
	// Field-range rejections need a valid CRC over the bad field.
	if _, err := DecodePlanEpoch(EncodePlanEpoch(PlanEpoch{Strategy: StrategyHD, Parts: 2})); err == nil {
		t.Error("decode accepted a non-live strategy")
	}
	if _, err := DecodePlanEpoch(EncodePlanEpoch(PlanEpoch{Strategy: StrategyPS, Parts: 0})); err == nil {
		t.Error("decode accepted zero partitions")
	}
	if _, err := DecodePlanEpoch(EncodePlanEpoch(PlanEpoch{Strategy: StrategyPS, Parts: maxEpochParts + 1})); err == nil {
		t.Error("decode accepted an oversized partition count")
	}
}

// FuzzPlanEpochDecode hammers the epoch frame decoder: arbitrary
// bytes must either be rejected or decode into an in-range epoch whose
// canonical re-encoding is byte-identical to the input.
func FuzzPlanEpochDecode(f *testing.F) {
	f.Add(EncodePlanEpoch(PlanEpoch{Version: 1, Strategy: StrategyPS, Parts: 4, CompressMin: 1 << 20}))
	f.Add(EncodePlanEpoch(PlanEpoch{Version: 1<<63 - 1, Strategy: StrategyRing, Parts: maxEpochParts, CompressMin: -1}))
	f.Add([]byte(epochMagic))
	f.Add(make([]byte, epochFrameLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		ep, err := DecodePlanEpoch(b)
		if err != nil {
			return
		}
		if enc := EncodePlanEpoch(ep); string(enc) != string(b) {
			t.Fatalf("decode/encode not canonical: % x -> %+v -> % x", b, ep, enc)
		}
		if ep.Parts < 1 || ep.Parts > maxEpochParts {
			t.Fatalf("decoded partition count out of range: %+v", ep)
		}
		if ep.Strategy != StrategyRing && ep.Strategy != StrategyPS {
			t.Fatalf("decoded non-live strategy: %+v", ep)
		}
	})
}

// TestProposeEpochActivatesAtBarrier: a staged epoch does not affect the
// in-flight plan, activates exactly at the next round barrier, and the
// post-switch round still produces correct aggregates.
func TestProposeEpochActivatesAtBarrier(t *testing.T) {
	lc, err := NewLiveCluster(4, LiveConfig{Strategy: StrategyPS, Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{"w": 96}
	_, h, err := lc.SyncRoundContext(context.Background(), epochGrads(4, sizes))
	if err != nil {
		t.Fatal(err)
	}
	if h.EpochVersion != 0 {
		t.Fatalf("round 0 ran under epoch v%d, want v0", h.EpochVersion)
	}

	prop := PlanEpoch{Version: 1, Strategy: StrategyPS, Parts: 2, CompressMin: -1}
	if err := lc.ProposeEpoch(prop); err != nil {
		t.Fatal(err)
	}
	if got := lc.Epoch().Version; got != 0 {
		t.Fatalf("active epoch jumped to v%d before the barrier", got)
	}
	if got := lc.NextEpoch(); got != prop {
		t.Fatalf("NextEpoch = %v, want staged %v", got, prop)
	}

	out, h, err := lc.SyncRoundContext(context.Background(), epochGrads(4, sizes))
	if err != nil {
		t.Fatal(err)
	}
	if h.EpochVersion != 1 {
		t.Fatalf("post-switch round ran under epoch v%d, want v1", h.EpochVersion)
	}
	if n := lc.EpochSwitches(); n != 1 {
		t.Fatalf("EpochSwitches = %d, want 1", n)
	}
	want := exactSum(4, sizes["w"])
	for v := range out {
		for i, x := range out[v]["w"] {
			if x != want[i] {
				t.Fatalf("node %d elem %d = %v, want %v (post-switch aggregate wrong)", v, i, x, want[i])
			}
		}
	}
}

// TestProposeEpochValidation covers the rejection paths: stale versions,
// unreachable strategies, compression without an algorithm, bad partition
// counts, and double-staging.
func TestProposeEpochValidation(t *testing.T) {
	lc, err := NewLiveCluster(3, LiveConfig{Strategy: StrategyPS, Reliable: true,
		OnPeerFail: DegradeExclude})
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		ep   PlanEpoch
		frag string
	}{
		{"stale-version", PlanEpoch{Version: 0, Strategy: StrategyPS, Parts: 1, CompressMin: -1}, "supersede"},
		{"ring-under-exclude", PlanEpoch{Version: 1, Strategy: StrategyRing, Parts: 1, CompressMin: -1}, "ring"},
		{"hd-strategy", PlanEpoch{Version: 1, Strategy: StrategyHD, Parts: 1, CompressMin: -1}, "live-plane"},
		{"zero-parts", PlanEpoch{Version: 1, Strategy: StrategyPS, Parts: 0, CompressMin: -1}, "partition"},
		{"compress-without-algo", PlanEpoch{Version: 1, Strategy: StrategyPS, Parts: 1, CompressMin: 0}, "Algo"},
	}
	for _, c := range bad {
		err := lc.ProposeEpoch(c.ep)
		if err == nil {
			t.Errorf("%s: proposal accepted", c.name)
		} else if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
	ok := PlanEpoch{Version: 1, Strategy: StrategyPS, Parts: 2, CompressMin: -1}
	if err := lc.ProposeEpoch(ok); err != nil {
		t.Fatal(err)
	}
	if err := lc.ProposeEpoch(PlanEpoch{Version: 2, Strategy: StrategyPS, Parts: 1, CompressMin: -1}); err == nil {
		t.Error("second proposal accepted while the first is still staged")
	}
}

// TestProposeEpochUnderChaos: gradient-transport chaos does not reach a
// proposal — a lossy cluster stages it like a clean one.
func TestProposeEpochUnderChaos(t *testing.T) {
	lc, err := NewLiveCluster(4, LiveConfig{Strategy: StrategyPS, Reliable: true,
		Chaos: &netsim.ChaosConfig{Seed: 7, Default: netsim.LinkFaults{Drop: 0.3, Dup: 0.1, Corrupt: 0.1}}})
	if err != nil {
		t.Fatal(err)
	}
	prop := PlanEpoch{Version: 1, Strategy: StrategyPS, Parts: 3, CompressMin: -1}
	if err := lc.ProposeEpoch(prop); err != nil {
		t.Fatal(err)
	}
	if got := lc.NextEpoch(); got != prop {
		t.Fatalf("NextEpoch = %v, want %v", got, prop)
	}
}

// TestProposeEpochWithPeerDown: a blacked-out peer does not hold up a
// proposal. The epoch is cluster state, not a message to the peer, so the
// proposal is staged at once and the peer runs it whenever it runs.
func TestProposeEpochWithPeerDown(t *testing.T) {
	lc, err := NewLiveCluster(4, LiveConfig{Strategy: StrategyPS, Reliable: true,
		Chaos: &netsim.ChaosConfig{NodeDown: map[int]bool{3: true}}})
	if err != nil {
		t.Fatal(err)
	}
	prop := PlanEpoch{Version: 1, Strategy: StrategyPS, Parts: 2, CompressMin: -1}
	start := time.Now()
	if err := lc.ProposeEpoch(prop); err != nil {
		t.Fatalf("proposal with peer 3 down: %v (after %v)", err, time.Since(start))
	}
	if got := lc.NextEpoch(); got != prop {
		t.Fatalf("NextEpoch = %v, want %v", got, prop)
	}
}

// TestProposeEpochConcurrent: racing proposers of one version stage it
// exactly once; every other proposer finds it staged.
func TestProposeEpochConcurrent(t *testing.T) {
	lc, err := NewLiveCluster(4, LiveConfig{Strategy: StrategyPS, Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	prop := PlanEpoch{Version: 1, Strategy: StrategyPS, Parts: 2, CompressMin: -1}
	const proposers = 8
	errs := make([]error, proposers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = lc.ProposeEpoch(prop)
		}(i)
	}
	wg.Wait()
	staged := 0
	for i, err := range errs {
		switch {
		case err == nil:
			staged++
		case !strings.Contains(err.Error(), "still staged"):
			t.Errorf("proposer %d: %v, want a still-staged refusal", i, err)
		}
	}
	if staged != 1 {
		t.Errorf("%d proposers staged the epoch, want exactly 1", staged)
	}
	if got := lc.NextEpoch(); got != prop {
		t.Fatalf("NextEpoch = %v, want %v", got, prop)
	}
}

// TestPerGradientSelectiveCompression: a CompressMin between two gradient
// sizes must compress only the large one — the small gradient takes the
// exact raw path while the large one's encodes show up in WireStats.
func TestPerGradientSelectiveCompression(t *testing.T) {
	lc, err := NewLiveCluster(2, LiveConfig{Strategy: StrategyPS, Algo: "onebit"})
	if err != nil {
		t.Fatal(err)
	}
	// 4096 elems = 16 KiB (compressed); 64 elems = 256 B (raw).
	if err := lc.RestoreEpoch(PlanEpoch{Version: 1, Strategy: StrategyPS, Parts: 1, CompressMin: 1024}, 0); err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{"big": 4096, "small": 64}
	out, _, err := lc.SyncRoundContext(context.Background(), epochGrads(2, sizes))
	if err != nil {
		t.Fatal(err)
	}
	st := lc.WireStats()
	// PS with 2 nodes, 1 partition: the non-server worker encodes once and
	// the server re-encodes the aggregate once — exactly 2 encodes, all for
	// "big". A compressed "small" would add 2 more.
	if st.Encodes != 2 {
		t.Fatalf("WireStats.Encodes = %d, want 2 (only the large gradient compresses)", st.Encodes)
	}
	want := exactSum(2, sizes["small"])
	for v := range out {
		for i, x := range out[v]["small"] {
			if x != want[i] {
				t.Fatalf("node %d small[%d] = %v, want exact %v (raw path must be lossless)", v, i, x, want[i])
			}
		}
	}
}

// TestRestoreEpoch: the checkpoint-resume path installs an epoch and round
// index directly, and subsequent rounds run under it.
func TestRestoreEpoch(t *testing.T) {
	lc, err := NewLiveCluster(3, LiveConfig{Strategy: StrategyPS})
	if err != nil {
		t.Fatal(err)
	}
	ep := PlanEpoch{Version: 5, Strategy: StrategyPS, Parts: 2, CompressMin: -1}
	if err := lc.RestoreEpoch(ep, 7); err != nil {
		t.Fatal(err)
	}
	if got := lc.Rounds(); got != 7 {
		t.Fatalf("Rounds = %d, want 7", got)
	}
	_, h, err := lc.SyncRoundContext(context.Background(), epochGrads(3, map[string]int{"w": 40}))
	if err != nil {
		t.Fatal(err)
	}
	if h.EpochVersion != 5 {
		t.Fatalf("restored round ran under v%d, want v5", h.EpochVersion)
	}
	if got := lc.Rounds(); got != 8 {
		t.Fatalf("Rounds after one round = %d, want 8", got)
	}
}

// recordingTuner is a scripted Autotuner for loop-wiring tests: it records
// every observation and proposes a fixed epoch once, after `after` rounds.
type recordingTuner struct {
	mu       sync.Mutex
	links    int
	obs      []RoundObservation
	after    int
	proposal *PlanEpoch
	proposed bool
}

func (r *recordingTuner) ObserveLink(from, to, payloadBytes int, rtt time.Duration) {
	r.mu.Lock()
	r.links++
	r.mu.Unlock()
}

func (r *recordingTuner) ObserveRound(obs RoundObservation) {
	r.mu.Lock()
	r.obs = append(r.obs, obs)
	r.mu.Unlock()
}

func (r *recordingTuner) Propose(cur PlanEpoch) *PlanEpoch {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.proposed || len(r.obs) < r.after || r.proposal == nil {
		return nil
	}
	r.proposed = true
	p := *r.proposal
	p.Version = cur.Version + 1
	return &p
}

// TestAutotuneLoopWiring: a LiveConfig.Autotune tuner receives per-round
// observations and link samples, and its proposal is staged and activated
// at the following barrier.
func TestAutotuneLoopWiring(t *testing.T) {
	tun := &recordingTuner{after: 2,
		proposal: &PlanEpoch{Strategy: StrategyPS, Parts: 2, CompressMin: 0}}
	lc, err := NewLiveCluster(3, LiveConfig{Strategy: StrategyPS, Algo: "onebit",
		Reliable: true, Autotune: tun})
	if err != nil {
		t.Fatal(err)
	}
	grads := epochGrads(3, map[string]int{"w": 300})
	versions := []uint64{}
	for round := 0; round < 4; round++ {
		_, h, err := lc.SyncRoundContext(context.Background(), grads)
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, h.EpochVersion)
	}
	// Proposal fires after observing round 1 (the 2nd round); it activates
	// at the round-2 barrier.
	want := []uint64{0, 0, 1, 1}
	for i := range want {
		if versions[i] != want[i] {
			t.Fatalf("epoch versions per round = %v, want %v", versions, want)
		}
	}
	tun.mu.Lock()
	defer tun.mu.Unlock()
	if len(tun.obs) != 4 {
		t.Fatalf("tuner observed %d rounds, want 4", len(tun.obs))
	}
	if tun.links == 0 {
		t.Fatal("tuner observed no link samples on a reliable cluster")
	}
	for i, o := range tun.obs {
		if o.Round != int64(i) {
			t.Fatalf("observation %d has round %d", i, o.Round)
		}
		if len(o.GradBytes) != 1 || o.GradBytes[0] != 1200 {
			t.Fatalf("observation %d GradBytes = %v, want [1200]", i, o.GradBytes)
		}
	}
	if tun.obs[3].Wire.Encodes == 0 {
		t.Fatal("autotuned cluster reported no encode instrumentation (its compressors are always counted)")
	}
}

// TestRoundObservationWindow: the tuner reads the send window from the round
// it observes — the configured window on a reliable pipelined cluster, 1 on
// the sequential zero config — so it never needs the window set twice.
func TestRoundObservationWindow(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  LiveConfig
		want int
	}{
		{"zero config", LiveConfig{}, 1},
		{"reliable w4", LiveConfig{Reliable: true, Pipeline: PipelineConfig{Window: 4, AckBatch: 4}}, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			tun := &recordingTuner{}
			c.cfg.Autotune = tun
			lc, err := NewLiveCluster(3, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lc.SyncRound(epochGrads(3, map[string]int{"w": 300})); err != nil {
				t.Fatal(err)
			}
			tun.mu.Lock()
			defer tun.mu.Unlock()
			if len(tun.obs) != 1 || tun.obs[0].Window != c.want {
				t.Fatalf("observations %+v, want one with Window %d", tun.obs, c.want)
			}
		})
	}
}
