package autotune

import (
	"fmt"
	"math"
	"testing"
	"time"

	"hipress/internal/core"
)

func TestEWMA(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatal("zero EWMA not empty")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first sample should seed the value, got %v", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Fatalf("0.5-smoothed value = %v, want 15", e.Value())
	}
	if e.Count() != 2 {
		t.Fatalf("count = %d, want 2", e.Count())
	}
}

func TestCurveFitRecoversAffine(t *testing.T) {
	want := core.Curve{Fixed: 1e-4, PerByte: 2e-9}
	var f CurveFit
	for _, x := range []float64{1 << 12, 1 << 16, 1 << 18, 1 << 20, 1 << 21} {
		f.Add(x, want.At(x))
	}
	got, ok := f.Curve()
	if !ok {
		t.Fatal("fit abstained with 5 spread samples")
	}
	if math.Abs(got.Fixed-want.Fixed) > 1e-7 || math.Abs(got.PerByte-want.PerByte) > 1e-13 {
		t.Fatalf("fit = %+v, want %+v", got, want)
	}
}

func TestCurveFitConstantSizeFallsBackToProportional(t *testing.T) {
	var f CurveFit
	for i := 0; i < 10; i++ {
		f.Add(1<<20, 2e-3) // same payload every time: slope unidentifiable
	}
	got, ok := f.Curve()
	if !ok {
		t.Fatal("fit abstained")
	}
	if got.Fixed != 0 {
		t.Fatalf("constant-x fit must be proportional, got %+v", got)
	}
	if want := 2e-3 / float64(1<<20); math.Abs(got.PerByte-want) > 1e-15 {
		t.Fatalf("proportional slope = %v, want %v", got.PerByte, want)
	}
}

func TestCalibratorPicksWorstConfidentLink(t *testing.T) {
	c := NewCalibrator()
	fast := core.Curve{Fixed: 1e-5, PerByte: 1e-10}
	slow := core.Curve{Fixed: 1e-4, PerByte: 5e-9}
	for i := 0; i < 8; i++ {
		x := 1 << (14 + uint(i%4))
		c.ObserveLink(0, 1, x, time.Duration(fast.At(float64(x))*1e9))
		c.ObserveLink(1, 0, x, time.Duration(slow.At(float64(x))*1e9))
	}
	// An unconfident (2-sample) link slower than both must not be chosen
	// with a high gate.
	c.ObserveLink(2, 0, 1<<20, time.Second)
	c.ObserveLink(2, 0, 1<<19, time.Second)

	if _, ok := c.SendCurve(100); ok {
		t.Fatal("SendCurve returned a curve below the confidence gate")
	}
	got, ok := c.SendCurve(8)
	if !ok {
		t.Fatal("SendCurve abstained with two 8-sample links")
	}
	if math.Abs(got.PerByte-slow.PerByte) > 1e-12 {
		t.Fatalf("bottleneck slope = %v, want the slow link's %v", got.PerByte, slow.PerByte)
	}
}

// stationaryEnv is a synthetic fixture: a ground-truth cost model, a static
// §3.3 planner built from it, and a tuner calibrated from samples drawn
// noiselessly from the same model.
type stationaryEnv struct {
	static *core.Planner
	tuner  *Tuner
	sizes  []int64
	window int
}

func newStationaryEnv(t *testing.T) *stationaryEnv { return newStationaryEnvW(t, 1) }

// newStationaryEnvW builds the fixture for a cluster running a per-link
// pipeline window of w. The ground truth the static planner prices is the
// *effective* send curve a windowed link exhibits — fixed cost amortized
// across the window, per-byte serialization unchanged — while the tuner
// calibrates from raw single-transfer round trips (what ack RTT sampling
// actually measures) and must apply the same adjustment itself from the
// window each round observation reports.
func newStationaryEnvW(t *testing.T, w int) *stationaryEnv {
	t.Helper()
	send := core.Curve{Fixed: 5e-5, PerByte: 1e-9} // ~1 GB/s links
	enc := core.Curve{PerByte: 0.3e-9}
	dec := core.Curve{PerByte: 0.1e-9}
	const ratio = 0.1
	effective := send
	if w > 1 {
		effective.Fixed /= float64(w)
	}
	static := &core.Planner{
		Strategy: core.StrategyPS, N: 4, CoLocated: true,
		Send: effective, Enc: enc, Dec: dec,
		RatioOf: func(int64) float64 { return ratio },
	}
	tun, err := NewTuner(Config{
		N: 4, Algo: "onebit", CoLocated: true,
		MinSamples: 16, Margin: 0.2, Windows: 3, Cooldown: 4,
		PriorEnc: enc, PriorDec: dec, PriorRatio: ratio,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Calibrate every directed link from the ground-truth send curve, with
	// enough payload-size spread to identify both coefficients.
	for i := 0; i < 16; i++ {
		x := 1 << (14 + uint(i%6))
		rtt := time.Duration(send.At(float64(x)) * 1e9)
		for from := 0; from < 4; from++ {
			for to := 0; to < 4; to++ {
				if from != to {
					tun.ObserveLink(from, to, x, rtt)
				}
			}
		}
	}
	return &stationaryEnv{static: static, tuner: tun,
		sizes: []int64{64 << 10, 4 << 20}, window: w}
}

// observe feeds one stationary round (no compression instrumentation; the
// priors carry the compression model).
func (env *stationaryEnv) observe(round int64, ep core.PlanEpoch) {
	env.tuner.ObserveRound(core.RoundObservation{
		Round: round, Epoch: ep, Health: &core.RoundHealth{},
		GradBytes: env.sizes, Window: env.window,
	})
}

// staticEpoch is the plan the static planner would pick for the mix.
func (env *stationaryEnv) staticEpoch() core.PlanEpoch {
	max := env.sizes[len(env.sizes)-1]
	return core.PlanEpoch{
		Strategy:    core.StrategyPS,
		Parts:       env.static.Plan(max).Parts,
		CompressMin: env.static.CompressionThreshold(env.sizes[0], max),
	}
}

// TestTunerConvergesToStaticPlan is the convergence regression: starting
// from a mismatched (raw) plan under stationary conditions, the tuner's
// one and only proposal must be exactly the plan the static §3.3 planner
// derives from the same coefficients — at every pipeline window, since the
// tuner's Fixed/W adjustment must mirror the effective curve the static
// planner prices.
func TestTunerConvergesToStaticPlan(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("window%d", w), func(t *testing.T) {
			env := newStationaryEnvW(t, w)
			want := env.staticEpoch()
			if want.CompressMin < 0 {
				t.Fatalf("fixture lost its teeth: static planner never compresses (threshold %d)", want.CompressMin)
			}

			cur := core.PlanEpoch{Strategy: core.StrategyPS, Parts: 1, CompressMin: -1}
			var got *core.PlanEpoch
			for round := int64(0); round < 20; round++ {
				env.observe(round, cur)
				if p := env.tuner.Propose(cur); p != nil {
					got = p
					break
				}
			}
			if got == nil {
				t.Fatal("tuner never proposed despite a >margin modeled gain")
			}
			if got.Strategy != want.Strategy || got.Parts != want.Parts || got.CompressMin != want.CompressMin {
				t.Fatalf("converged plan = %v, want the static planner's %v", *got, want)
			}
			if got.Version != cur.Version+1 {
				t.Fatalf("proposal version = %d, want %d", got.Version, cur.Version+1)
			}
		})
	}
}

// TestTunerStationaryNoSwitches is the other half of the regression: once
// running the static plan under stationary conditions, the tuner proposes
// nothing — 0 epoch switches after warm-up — again at every pipeline
// window (a mismatched Fixed/W adjustment would manufacture phantom gains
// and flap the plan).
func TestTunerStationaryNoSwitches(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("window%d", w), func(t *testing.T) {
			env := newStationaryEnvW(t, w)
			cur := env.staticEpoch()
			cur.Version = 1
			for round := int64(0); round < 60; round++ {
				env.observe(round, cur)
				if p := env.tuner.Propose(cur); p != nil {
					t.Fatalf("round %d: tuner proposed %v under stationary conditions on the optimal plan", round, *p)
				}
			}
			if n := env.tuner.Proposals(); n != 0 {
				t.Fatalf("Proposals = %d, want 0", n)
			}
		})
	}
}

// TestTunerHysteresis: a candidate that wins only a single window (then the
// environment reverts) must never be proposed — the Windows streak requires
// consecutive wins.
func TestTunerHysteresis(t *testing.T) {
	env := newStationaryEnv(t)
	cur := env.staticEpoch()
	cur.Version = 1
	bad := cur
	bad.CompressMin = -1 // pretend we are on the bad plan for one window only
	env.observe(0, bad)
	if p := env.tuner.Propose(bad); p != nil {
		t.Fatalf("proposal after a single winning window: %v (Windows=3)", *p)
	}
	// Environment "reverts": now on the good plan, the streak must reset.
	for round := int64(1); round < 10; round++ {
		env.observe(round, cur)
		if p := env.tuner.Propose(cur); p != nil {
			t.Fatalf("round %d: stale streak produced proposal %v", round, *p)
		}
	}
}

// TestTunerCooldown: after a proposal the tuner stays silent for Cooldown
// rounds even though the modeled gain persists.
func TestTunerCooldown(t *testing.T) {
	env := newStationaryEnv(t)
	cur := core.PlanEpoch{Strategy: core.StrategyPS, Parts: 1, CompressMin: -1}
	var proposedAt int64 = -1
	for round := int64(0); round < 30; round++ {
		env.observe(round, cur)
		p := env.tuner.Propose(cur) // never adopt: gain persists forever
		if p == nil {
			continue
		}
		if proposedAt < 0 {
			proposedAt = round
			continue
		}
		if gap := round - proposedAt; gap <= 4 {
			t.Fatalf("second proposal %d rounds after the first, cooldown is 4", gap)
		}
		return
	}
	if proposedAt < 0 {
		t.Fatal("tuner never proposed")
	}
}

func TestTunerAbstainsBelowConfidence(t *testing.T) {
	tun, err := NewTuner(Config{N: 4, MinSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	tun.ObserveLink(0, 1, 1<<20, time.Millisecond)
	cur := core.PlanEpoch{Strategy: core.StrategyPS, Parts: 1, CompressMin: -1}
	for round := int64(0); round < 10; round++ {
		tun.ObserveRound(core.RoundObservation{Round: round, Epoch: cur,
			Health: &core.RoundHealth{}, GradBytes: []int64{1 << 22}})
		if p := tun.Propose(cur); p != nil {
			t.Fatalf("unconfident tuner proposed %v", *p)
		}
	}
	if _, ok := tun.CalibratedPlanner(core.StrategyPS); ok {
		t.Fatal("CalibratedPlanner returned a planner below the confidence gate")
	}
}

// TestCurveFitDecayTracksRegimeChange: with forgetting enabled, a fit fed
// 60 fast-regime samples then 20 slow-regime samples must report the slow
// regime, not the average of the two.
func TestCurveFitDecayTracksRegimeChange(t *testing.T) {
	fast := core.Curve{Fixed: 1e-5, PerByte: 1e-10}
	slow := core.Curve{Fixed: 1e-5, PerByte: 1e-7}
	f := CurveFit{Decay: 0.9}
	for i := 0; i < 60; i++ {
		x := float64(int64(1) << (14 + uint(i%6)))
		f.Add(x, fast.At(x))
	}
	for i := 0; i < 20; i++ {
		x := float64(int64(1) << (14 + uint(i%6)))
		f.Add(x, slow.At(x))
	}
	got, ok := f.Curve()
	if !ok {
		t.Fatal("fit abstained")
	}
	if got.PerByte < 0.5*slow.PerByte {
		t.Fatalf("decayed slope %v still remembers the fast regime (slow is %v)", got.PerByte, slow.PerByte)
	}
}
