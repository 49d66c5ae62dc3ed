package trainer

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"hipress/internal/compress"
	"hipress/internal/core"
	"hipress/internal/kernels"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{Workers: 2}
	if err := c.defaults(); err != nil {
		t.Fatal(err)
	}
	if c.LR <= 0 || c.Batch <= 0 || c.Iters <= 0 || c.EvalEvery <= 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	bad := Config{Workers: 1}
	if err := bad.defaults(); err == nil {
		t.Fatalf("1-worker config accepted")
	}
}

func TestLinearExactSGDConverges(t *testing.T) {
	task := NewLinearTask(20, 0.05, 7)
	curve, w, err := TrainLinear(task, Config{
		Workers: 4, Strategy: core.StrategyPS,
		LR: 0.1, Batch: 16, Iters: 150, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 20 {
		t.Fatalf("weights length %d", len(w))
	}
	first, last := curve.Losses[0], curve.Final()
	if last >= first/10 {
		t.Fatalf("exact SGD barely converged: %.4f -> %.4f", first, last)
	}
	if last > 0.1 {
		t.Fatalf("final MSE %.4f too high (noise floor ~0.0025)", last)
	}
}

// TestLinearCompressedMatchesExact: the paper's convergence claim —
// compression with error feedback reaches (approximately) the same loss in
// the same number of iterations.
func TestLinearCompressedMatchesExact(t *testing.T) {
	task := NewLinearTask(20, 0.05, 7)
	base := Config{
		Workers: 4, Strategy: core.StrategyPS,
		LR: 0.1, Batch: 16, Iters: 200, Seed: 1,
	}
	exact, _, err := TrainLinear(task, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []struct {
		name string
		p    map[string]float64
		ef   bool
	}{
		{"terngrad", map[string]float64{"bitwidth": 4}, false},
		{"dgc", map[string]float64{"ratio": 0.25}, true},
		{"onebit", nil, true},
	} {
		cfg := base
		cfg.Algo = algo.name
		cfg.Params = algo.p
		cfg.ErrorFeedback = algo.ef
		comp, _, err := TrainLinear(task, cfg)
		if err != nil {
			t.Fatalf("%s: %v", algo.name, err)
		}
		// Same iteration budget must reach a comparable loss: within 5× of
		// exact (compression adds gradient noise; it must not stall).
		if comp.Final() > exact.Final()*5+0.05 {
			t.Errorf("%s: final loss %.4f vs exact %.4f — compression broke convergence",
				algo.name, comp.Final(), exact.Final())
		}
	}
}

// TestCompressionWithoutFeedbackWorse: biased sparsification without error
// feedback must do worse than with it — the reason EF exists.
func TestCompressionWithoutFeedbackWorse(t *testing.T) {
	task := NewLinearTask(16, 0.05, 3)
	base := Config{
		Workers: 3, Strategy: core.StrategyPS,
		Algo: "dgc", Params: map[string]float64{"ratio": 0.1},
		LR: 0.1, Batch: 16, Iters: 150, Seed: 2,
	}
	withEF := base
	withEF.ErrorFeedback = true
	cEF, _, err := TrainLinear(task, withEF)
	if err != nil {
		t.Fatal(err)
	}
	cNo, _, err := TrainLinear(task, base)
	if err != nil {
		t.Fatal(err)
	}
	if cEF.Final() >= cNo.Final() {
		t.Errorf("error feedback did not help: with %.4f vs without %.4f", cEF.Final(), cNo.Final())
	}
}

func TestLinearRingStrategy(t *testing.T) {
	task := NewLinearTask(12, 0.05, 9)
	curve, _, err := TrainLinear(task, Config{
		Workers: 3, Strategy: core.StrategyRing,
		Algo: "terngrad", Params: map[string]float64{"bitwidth": 8},
		LR: 0.1, Batch: 8, Iters: 120, Seed: 4, Parts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if curve.Final() > curve.Losses[0]/3 {
		t.Fatalf("ring compressed training barely converged: %v", curve.Losses)
	}
}

func TestMLPConverges(t *testing.T) {
	task := NewMLPTask(8, 12, 11)
	exact, err := TrainMLP(task, Config{
		Workers: 3, Strategy: core.StrategyPS,
		LR: 0.2, Batch: 32, Iters: 300, Seed: 5, EvalEvery: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Final() >= exact.Losses[0]/5 {
		t.Fatalf("MLP exact training barely converged: %v", exact.Losses)
	}
	comp, err := TrainMLP(task, Config{
		Workers: 3, Strategy: core.StrategyPS,
		Algo: "dgc", Params: map[string]float64{"ratio": 0.25}, ErrorFeedback: true,
		LR: 0.2, Batch: 32, Iters: 300, Seed: 5, EvalEvery: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Final() > exact.Final()*6+0.05 {
		t.Errorf("compressed MLP final %.4f vs exact %.4f", comp.Final(), exact.Final())
	}
}

func TestCurveHelpers(t *testing.T) {
	c := &Curve{Iters: []int{0, 10, 20}, Losses: []float64{1.0, 0.5, 0.1}}
	if c.Final() != 0.1 {
		t.Fatalf("Final = %v", c.Final())
	}
	if got := c.FirstIterBelow(0.6); got != 10 {
		t.Fatalf("FirstIterBelow(0.6) = %d", got)
	}
	if got := c.FirstIterBelow(0.01); got != -1 {
		t.Fatalf("FirstIterBelow(0.01) = %d", got)
	}
	empty := &Curve{}
	if f := empty.Final(); f == f && f < 1e300 { // +Inf check
		t.Fatalf("empty Final = %v", f)
	}
}

func TestTrainerDeterministic(t *testing.T) {
	task := NewLinearTask(10, 0.05, 21)
	cfg := Config{Workers: 3, Strategy: core.StrategyPS, Algo: "onebit", ErrorFeedback: true,
		LR: 0.1, Batch: 8, Iters: 40, Seed: 9}
	a, _, err := TrainLinear(task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := TrainLinear(NewLinearTask(10, 0.05, 21), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Losses {
		if a.Losses[i] != b.Losses[i] {
			t.Fatalf("nondeterministic training at eval %d: %v vs %v", i, a.Losses[i], b.Losses[i])
		}
	}
}

// TestMomentumAccelerates: heavy-ball SGD reaches a lower loss than plain
// SGD in the same iteration budget on the exact path.
func TestMomentumAccelerates(t *testing.T) {
	task := NewLinearTask(30, 0.05, 17)
	base := Config{
		Workers: 3, Strategy: core.StrategyPS,
		LR: 0.02, Batch: 8, Iters: 80, Seed: 6,
	}
	plain, _, err := TrainLinear(task, base)
	if err != nil {
		t.Fatal(err)
	}
	mom := base
	mom.Momentum = 0.9
	fast, _, err := TrainLinear(task, mom)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Final() >= plain.Final() {
		t.Errorf("momentum did not accelerate: %.5f vs plain %.5f", fast.Final(), plain.Final())
	}
}

// TestDGCMomentumCorrection: with aggressive sparsification, locally
// correcting momentum before compression (the DGC paper's core trick)
// converges to the naive-momentum quality — on this convex task it needs a
// longer horizon to amortize its slower start (its payoff in the DGC paper
// is on deep non-convex nets), and ends at least as good.
func TestDGCMomentumCorrection(t *testing.T) {
	task := NewLinearTask(30, 0.05, 23)
	base := Config{
		Workers: 3, Strategy: core.StrategyPS,
		Algo: "dgc", Params: map[string]float64{"ratio": 0.1}, ErrorFeedback: true,
		LR: 0.02, Batch: 8, Iters: 600, Seed: 8, Momentum: 0.9, EvalEvery: 100,
	}
	naive := base
	corrected := base
	corrected.MomentumCorrection = true
	nv, _, err := TrainLinear(task, naive)
	if err != nil {
		t.Fatal(err)
	}
	cv, _, err := TrainLinear(task, corrected)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Final() > cv.Losses[0]/20 {
		t.Fatalf("momentum-corrected DGC barely converged: %v", cv.Losses)
	}
	if cv.Final() > nv.Final()*1.5 {
		t.Errorf("momentum correction worse than naive momentum at horizon: %.5f vs %.5f",
			cv.Final(), nv.Final())
	}
}

// TestAdaptiveCompressionTrains: the Accordion-style adaptive compressor
// works end to end on the live training plane.
func TestAdaptiveCompressionTrains(t *testing.T) {
	task := NewLinearTask(16, 0.05, 29)
	curve, _, err := TrainLinear(task, Config{
		Workers: 3, Strategy: core.StrategyPS,
		Algo:          "adaptive",
		Params:        map[string]float64{"conservative_ratio": 0.5, "aggressive_ratio": 0.05},
		ErrorFeedback: true,
		LR:            0.1, Batch: 16, Iters: 120, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if curve.Final() > curve.Losses[0]/10 {
		t.Fatalf("adaptive compression barely converged: %v", curve.Losses)
	}
}

// TestSeedSweepOverlap: across seeds, compressed training's final-loss
// distribution overlaps exact training's — the statistical form of the
// paper's convergence claim.
func TestSeedSweepOverlap(t *testing.T) {
	task := NewLinearTask(16, 0.05, 41)
	seeds := []uint64{1, 2, 3, 4, 5}
	base := Config{
		Workers: 3, Strategy: core.StrategyPS,
		LR: 0.1, Batch: 16, Iters: 150,
	}
	exMean, exStd, err := SeedSweep(task, base, seeds)
	if err != nil {
		t.Fatal(err)
	}
	comp := base
	comp.Algo = "dgc"
	comp.Params = map[string]float64{"ratio": 0.25}
	comp.ErrorFeedback = true
	cpMean, cpStd, err := SeedSweep(task, comp, seeds)
	if err != nil {
		t.Fatal(err)
	}
	// Same loss floor within 3 pooled standard deviations (plus an absolute
	// epsilon for the near-zero-variance regime).
	spread := 3*(exStd+cpStd) + 0.01
	if diff := math.Abs(cpMean - exMean); diff > spread {
		t.Errorf("compressed mean %.5f vs exact %.5f exceeds spread %.5f", cpMean, exMean, spread)
	}
	if _, _, err := SeedSweep(task, base, nil); err == nil {
		t.Error("empty seed list accepted")
	}
}

// curveDigest is FNV-1a over a run's recorded iterations, the bits of their
// losses and the bits of the final weights (nil for the MLP).
func curveDigest(c *Curve, w []float32) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i, it := range c.Iters {
		binary.LittleEndian.PutUint64(b[:], uint64(it))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c.Losses[i]))
		h.Write(b[:])
	}
	for _, x := range w {
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(x))
		h.Write(b[:4])
	}
	return h.Sum64()
}

// TestPinnedCurves holds both training loops to digests recorded when every
// worker's gradients were computed in turn on the caller's goroutine. The
// literals are never edited: a step that computes workers concurrently must
// reproduce the serial schedule's loss bits exactly, and so must the same
// step run with the kernel pool capped to one worker.
func TestPinnedCurves(t *testing.T) {
	mlpTask := NewMLPTask(64, 128, 9)
	linTask := NewLinearTask(48, 0.05, 9)
	base := Config{Workers: 4, Strategy: core.StrategyPS, LR: 0.05, Batch: 8, Iters: 60, EvalEvery: 1, Seed: 9}
	cases := []struct {
		name   string
		linear bool
		cfg    func(c *Config)
		want   uint64
	}{
		{"mlp-terngrad-ef", false, func(c *Config) {
			c.Algo, c.ErrorFeedback = "terngrad", true
		}, 0x733718efde455631},
		{"mlp-dgc-ef", false, func(c *Config) {
			c.Algo, c.Params, c.ErrorFeedback = "dgc", compress.Params{"ratio": 0.05}, true
		}, 0xd611e64a7fb6190c},
		{"mlp-exact", false, func(*Config) {}, 0xb08d1c2d5fc984ca},
		{"linear-dgc-momentum-correction", true, func(c *Config) {
			c.Algo, c.Params, c.ErrorFeedback = "dgc", compress.Params{"ratio": 0.1}, true
			c.Momentum, c.MomentumCorrection = 0.9, true
		}, 0x2527ebeb1240e6a6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.cfg(&cfg)
			run := func() uint64 {
				if tc.linear {
					curve, w, err := TrainLinear(linTask, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return curveDigest(curve, w)
				}
				curve, err := TrainMLP(mlpTask, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return curveDigest(curve, nil)
			}
			if got := run(); got != tc.want {
				t.Errorf("digest %016x, pinned %016x", got, tc.want)
			}
			defer kernels.SetWorkers(kernels.SetWorkers(1))
			if got := run(); got != tc.want {
				t.Errorf("one pool worker: digest %016x, pinned %016x", got, tc.want)
			}
		})
	}
}
