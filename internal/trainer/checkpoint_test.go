package trainer

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"hipress/internal/autotune"
	"hipress/internal/ckpt"
	_ "hipress/internal/compll" // registers cll-terngrad
	"hipress/internal/compress"
	"hipress/internal/core"
)

// curveTail returns the (iter, loss) pairs of c recorded at or after from.
func curveTail(c *Curve, from int) ([]int, []float64) {
	var its []int
	var ls []float64
	for i, it := range c.Iters {
		if it >= from {
			its = append(its, it)
			ls = append(ls, c.Losses[i])
		}
	}
	return its, ls
}

// requireBitIdenticalTail fails unless resumed's curve matches the
// uninterrupted reference bit-for-bit from iteration `from` on.
func requireBitIdenticalTail(t *testing.T, label string, ref, resumed *Curve, from int) {
	t.Helper()
	refIts, refLs := curveTail(ref, from)
	if len(resumed.Iters) != len(refIts) {
		t.Fatalf("%s: resumed curve has %d entries, reference tail has %d", label, len(resumed.Iters), len(refIts))
	}
	for i := range refIts {
		if resumed.Iters[i] != refIts[i] {
			t.Fatalf("%s: resumed records iter %d where reference has %d", label, resumed.Iters[i], refIts[i])
		}
		if math.Float64bits(resumed.Losses[i]) != math.Float64bits(refLs[i]) {
			t.Fatalf("%s: loss at iter %d diverged: resumed %x (%v) vs reference %x (%v)",
				label, refIts[i],
				math.Float64bits(resumed.Losses[i]), resumed.Losses[i],
				math.Float64bits(refLs[i]), refLs[i])
		}
	}
}

// TestKillResumeBitIdentical is the recovery plane's headline guarantee:
// training that is killed at iteration k and resumed from its checkpoint
// produces a loss curve (and final weights) bit-identical to the
// uninterrupted run. This only holds if the checkpoint captured *all*
// mutable state — parameters, momentum velocities, per-worker data RNG
// positions, error-feedback residuals at every node, and the round index
// that keys the stochastic compressors' draws — so the test exercises the
// entire recovery plane end to end for a biased sparsifier (dgc), a biased
// quantizer (onebit), and a stochastic quantizer as hand kernel and as
// interpreted CompLL program (terngrad, cll-terngrad). The legacy row
// resumes from a checkpoint as written before compressors stopped carrying
// a stream: its "comp/<node>" RNG entries must be ignored, not refused.
func TestKillResumeBitIdentical(t *testing.T) {
	task := NewLinearTask(24, 0.05, 9)
	terngrad := Config{
		Workers: 3, Strategy: core.StrategyPS,
		Algo: "terngrad", ErrorFeedback: true,
	}
	cases := []struct {
		name   string
		cfg    Config
		legacy bool
	}{
		{"dgc-ps-momentum-correction", Config{
			Workers: 3, Strategy: core.StrategyPS,
			Algo: "dgc", Params: compress.Params{"ratio": 0.25}, ErrorFeedback: true,
			Momentum: 0.9, MomentumCorrection: true,
		}, false},
		{"onebit-ring-momentum", Config{
			Workers: 3, Strategy: core.StrategyRing,
			Algo: "onebit", ErrorFeedback: true, Momentum: 0.5,
		}, false},
		{"terngrad-ps-keyed-draws", terngrad, false},
		{"terngrad-ps-legacy-checkpoint", terngrad, true},
		{"cll-terngrad-ps-keyed-draws", Config{
			Workers: 3, Strategy: core.StrategyPS,
			Algo: "cll-terngrad", ErrorFeedback: true,
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.LR = 0.1
			cfg.Batch = 4
			cfg.Iters = 60
			cfg.EvalEvery = 5
			cfg.Seed = 11
			cfg.Parts = 2

			// Uninterrupted reference.
			ref, refW, err := TrainLinear(task, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Killed run: checkpoints every 20 iterations, "crashes" (exits)
			// at iteration 35 — so the latest durable state is step 20.
			dir := t.TempDir()
			killed := cfg
			killed.Iters = 35
			killed.Checkpoint = &CheckpointConfig{Dir: dir, Every: 20}
			if _, _, err := TrainLinear(task, killed); err != nil {
				t.Fatal(err)
			}
			if tc.legacy {
				st, err := ckpt.OpenStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				snap, _, err := st.LoadLatest()
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < cfg.Workers; v++ {
					snap.RNG["comp/"+strconv.Itoa(v)] = uint64(1000 + v)
				}
				if _, err := st.Save(snap); err != nil {
					t.Fatal(err)
				}
			}

			// Resumed run: fresh process state, everything rebuilt from the
			// checkpoint, trained to the same horizon as the reference.
			resumed := cfg
			resumed.Checkpoint = &CheckpointConfig{Dir: dir, Every: 20, Resume: true}
			got, gotW, err := TrainLinear(task, resumed)
			if err != nil {
				t.Fatal(err)
			}

			requireBitIdenticalTail(t, tc.name, ref, got, 20)
			for i := range refW {
				if math.Float32bits(gotW[i]) != math.Float32bits(refW[i]) {
					t.Fatalf("final weight [%d] diverged: %x vs %x",
						i, math.Float32bits(gotW[i]), math.Float32bits(refW[i]))
				}
			}
		})
	}
}

// TestKillResumeBitIdenticalMLP covers the same guarantee on the nonlinear
// task (four parameter tensors, no momentum state).
func TestKillResumeBitIdenticalMLP(t *testing.T) {
	task := NewMLPTask(8, 6, 3)
	cfg := Config{
		Workers: 2, Strategy: core.StrategyPS,
		Algo: "dgc", Params: compress.Params{"ratio": 0.25}, ErrorFeedback: true,
		LR: 0.1, Batch: 4, Iters: 40, EvalEvery: 5, Seed: 21,
	}
	ref, err := TrainMLP(task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	killed := cfg
	killed.Iters = 25
	killed.Checkpoint = &CheckpointConfig{Dir: dir, Every: 10}
	if _, err := TrainMLP(task, killed); err != nil {
		t.Fatal(err)
	}
	resumed := cfg
	resumed.Checkpoint = &CheckpointConfig{Dir: dir, Every: 10, Resume: true}
	got, err := TrainMLP(task, resumed)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdenticalTail(t, "mlp", ref, got, 20)
}

// TestResumeFallsBackPastCorruptCheckpoint: when the newest checkpoint file
// is damaged after the crash, resume transparently restarts from the
// previous good one — and the continuation is still bit-identical.
func TestResumeFallsBackPastCorruptCheckpoint(t *testing.T) {
	task := NewLinearTask(16, 0.05, 5)
	cfg := Config{
		Workers: 2, Strategy: core.StrategyPS,
		Algo: "onebit", ErrorFeedback: true,
		LR: 0.1, Batch: 4, Iters: 40, EvalEvery: 5, Seed: 7,
	}
	ref, _, err := TrainLinear(task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	killed := cfg
	killed.Iters = 35
	killed.Checkpoint = &CheckpointConfig{Dir: dir, Every: 10} // saves 10, 20, 30; keeps 20, 30
	if _, _, err := TrainLinear(task, killed); err != nil {
		t.Fatal(err)
	}
	// Bit-flip the newest checkpoint (step 30).
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.hpck"))
	if err != nil || len(matches) != 2 {
		t.Fatalf("want 2 retained checkpoints, got %v (%v)", matches, err)
	}
	latest := matches[len(matches)-1]
	raw, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(latest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := cfg
	resumed.Checkpoint = &CheckpointConfig{Dir: dir, Resume: true}
	got, _, err := TrainLinear(task, resumed)
	if err != nil {
		t.Fatal(err)
	}
	// Fallback resumed from step 20, so the curve tail starts there.
	requireBitIdenticalTail(t, "fallback", ref, got, 20)
}

// TestResumeRejectsMismatchedConfig: a checkpoint from one configuration
// must not silently seed a different one.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	task := NewLinearTask(16, 0.05, 5)
	dir := t.TempDir()
	cfg := Config{
		Workers: 2, Strategy: core.StrategyPS, Algo: "onebit", ErrorFeedback: true,
		LR: 0.1, Batch: 4, Iters: 20, Seed: 7,
		Checkpoint: &CheckpointConfig{Dir: dir, Every: 10},
	}
	if _, _, err := TrainLinear(task, cfg); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Algo = "dgc"
	bad.Params = compress.Params{"ratio": 0.5}
	bad.Checkpoint = &CheckpointConfig{Dir: dir, Resume: true}
	if _, _, err := TrainLinear(task, bad); err == nil {
		t.Fatal("resume under a different algo succeeded")
	}
	badW := cfg
	badW.Workers = 3
	badW.Checkpoint = &CheckpointConfig{Dir: dir, Resume: true}
	if _, _, err := TrainLinear(task, badW); err == nil {
		t.Fatal("resume under a different worker count succeeded")
	}
}

// TestKillResumeBitIdenticalMidEpochSwitch extends the recovery guarantee
// to the autotuning plane: a run whose synchronization plan changes mid-
// training via scripted epoch switches — one staged-but-not-yet-activated
// at the exact checkpoint boundary, one scheduled after the kill point —
// is killed and resumed, and the continuation must be bit-identical. This
// only holds if checkpoints record NextEpoch (the staged pending plan, not
// the still-active old one) and resume both reinstalls it and fast-
// forwards the decision script past already-applied switches.
func TestKillResumeBitIdenticalMidEpochSwitch(t *testing.T) {
	task := NewLinearTask(24, 0.05, 9)
	// The scripted decisions: after round 19's observation the plan flips
	// to raw with a different partitioning — proposed and staged during
	// iteration 19, activating at round 20, exactly straddling the Every=20
	// checkpoint. After round 44 it flips back to compressed single-part.
	trace := autotune.DecisionTrace{Switches: []autotune.TraceSwitch{
		{AfterRound: 19, Epoch: core.PlanEpoch{
			Strategy: core.StrategyPS, Parts: 3, CompressMin: -1}},
		{AfterRound: 44, Epoch: core.PlanEpoch{
			Strategy: core.StrategyPS, Parts: 1, CompressMin: 0}},
	}}
	cfg := Config{
		Workers: 3, Strategy: core.StrategyPS,
		Algo: "onebit", ErrorFeedback: true, Momentum: 0.5,
		LR: 0.1, Batch: 4, Iters: 60, EvalEvery: 5, Seed: 11, Parts: 2,
	}

	// Uninterrupted reference (fresh script: Script replay is stateful).
	ref := cfg
	ref.Autotune = autotune.NewScript(trace)
	refCurve, refW, err := TrainLinear(task, ref)
	if err != nil {
		t.Fatal(err)
	}

	// The switches must actually change the computation, or the scenario
	// has no teeth: compare against the same run with a frozen plan.
	frozen := cfg
	frozenCurve, _, err := TrainLinear(task, frozen)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range refCurve.Losses {
		if math.Float64bits(refCurve.Losses[i]) != math.Float64bits(frozenCurve.Losses[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("scripted epoch switches did not change the training trajectory")
	}

	// Killed at iteration 35: the newest durable checkpoint is step 20,
	// whose snapshot was captured with switch #1 staged but not active.
	dir := t.TempDir()
	killed := cfg
	killed.Iters = 35
	killed.Autotune = autotune.NewScript(trace)
	killed.Checkpoint = &CheckpointConfig{Dir: dir, Every: 20}
	if _, _, err := TrainLinear(task, killed); err != nil {
		t.Fatal(err)
	}

	// Resumed with a fresh script over the same trace: SeekRound must skip
	// the already-applied switch and still replay the post-kill one.
	resumed := cfg
	resumed.Autotune = autotune.NewScript(trace)
	resumed.Checkpoint = &CheckpointConfig{Dir: dir, Every: 20, Resume: true}
	gotCurve, gotW, err := TrainLinear(task, resumed)
	if err != nil {
		t.Fatal(err)
	}

	requireBitIdenticalTail(t, "mid-epoch-switch", refCurve, gotCurve, 20)
	for i := range refW {
		if math.Float32bits(gotW[i]) != math.Float32bits(refW[i]) {
			t.Fatalf("final weight [%d] diverged: %x vs %x",
				i, math.Float32bits(gotW[i]), math.Float32bits(refW[i]))
		}
	}
}
