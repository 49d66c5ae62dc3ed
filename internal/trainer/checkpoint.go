package trainer

import (
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"strconv"

	"hipress/internal/ckpt"
	"hipress/internal/core"
	"hipress/internal/telemetry"
	"hipress/internal/tensor"
)

// CheckpointConfig wires the recovery plane into a training run: periodic
// crash-consistent snapshots (internal/ckpt) and resume-from-latest. The
// headline guarantee — enforced by TestKillResumeBitIdentical — is that
// kill-at-iteration-k + resume reproduces the uninterrupted run's loss
// curve bit-for-bit: snapshots capture model parameters, momentum
// velocities, per-worker data RNG positions, error-feedback residuals at
// every node, and the round index — which, with node and pipeline position,
// is all a stochastic compressor's draws depend on — so the continuation is
// the same computation, not merely a similar one.
type CheckpointConfig struct {
	// Dir is the checkpoint store directory.
	Dir string
	// Every saves a snapshot after every Every completed iterations (a
	// snapshot taken after iteration k-1 stores Step k). Zero disables
	// periodic saving (useful with Resume to only read).
	Every int
	// Resume loads the newest valid checkpoint from Dir (falling back past
	// corrupt files) and continues from its Step. A fresh/empty store
	// starts from iteration 0.
	Resume bool
	// Keep overrides how many checkpoints survive garbage collection
	// (default 2: latest plus one fallback).
	Keep int
}

// ckptRunner is the per-run checkpoint driver shared by TrainLinear and
// TrainMLP. Beside the store it holds what a snapshot captures of the run,
// bound once by openCkpt: the live model and velocity tensors by snapshot
// name, the worker data streams, and the cluster (residuals, plan epoch and
// round index).
type ckptRunner struct {
	store *ckpt.Store
	every int
	tel   *telemetry.Set

	cfg     *Config
	task    string
	tensors map[string][]float32
	rngs    []*tensor.RNG
	lc      *core.LiveCluster
}

// openCkpt opens the run's checkpoint store (nil CheckpointConfig → nil
// runner, checkpointing disabled) and, when resuming, restores the latest
// valid snapshot into tensors, rngs and lc. It returns the iteration to
// start from: 0 for a fresh run or an empty store.
func openCkpt(cfg *Config, task string, tensors map[string][]float32, rngs []*tensor.RNG, lc *core.LiveCluster) (*ckptRunner, int, error) {
	cc := cfg.Checkpoint
	if cc == nil {
		return nil, 0, nil
	}
	if cc.Dir == "" {
		return nil, 0, fmt.Errorf("trainer: CheckpointConfig.Dir is empty")
	}
	st, err := ckpt.OpenStore(cc.Dir)
	if err != nil {
		return nil, 0, err
	}
	if cc.Keep > 0 {
		st.Keep = cc.Keep
	}
	cr := &ckptRunner{store: st, every: cc.Every, tel: cfg.Telemetry,
		cfg: cfg, task: task, tensors: tensors, rngs: rngs, lc: lc}
	if !cc.Resume {
		return cr, 0, nil
	}
	start, err := cr.restore()
	return cr, start, err
}

// restore loads the latest valid snapshot into the run's state and returns
// its step, or 0 when the store is empty (fresh start). Corrupt-latest
// fallbacks are counted in telemetry. The snapshot is validated against the
// run configuration: resuming a run under a different algorithm or worker
// count would make the restored residuals and data streams meaningless.
// RNG entries the run does not name are ignored — checkpoints written when
// compressors still carried a stream hold "comp/<node>" positions, and such
// a terngrad/graddrop run resumes onto the keyed draws instead.
func (cr *ckptRunner) restore() (int, error) {
	cfg := cr.cfg
	snap, skipped, err := cr.store.LoadLatest()
	if m := cr.tel.M(); m != nil && len(skipped) > 0 {
		m.Counter("hipress_ckpt_fallbacks_total",
			"checkpoints skipped as corrupt during resume").Add(float64(len(skipped)))
	}
	if errors.Is(err, ckpt.ErrNoCheckpoint) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if snap.Algo != cfg.Algo {
		return 0, fmt.Errorf("trainer: checkpoint was taken under algo %q, run uses %q", snap.Algo, cfg.Algo)
	}
	if got := snap.Meta["task"]; got != cr.task {
		return 0, fmt.Errorf("trainer: checkpoint is for task %q, run is %q", got, cr.task)
	}
	if got := snap.Meta["workers"]; got != strconv.Itoa(cfg.Workers) {
		return 0, fmt.Errorf("trainer: checkpoint has %s workers, run has %d", got, cfg.Workers)
	}
	if snap.Step > cfg.Iters {
		return 0, fmt.Errorf("trainer: checkpoint step %d beyond run's %d iterations", snap.Step, cfg.Iters)
	}
	for name, dst := range cr.tensors {
		if err := restoreTensor(snap, name, dst); err != nil {
			return 0, err
		}
	}
	for v, rng := range cr.rngs {
		st, ok := snap.RNG[workerRNGKey(v)]
		if !ok {
			return 0, fmt.Errorf("trainer: checkpoint is missing RNG state %q", workerRNGKey(v))
		}
		rng.Restore(tensor.RNGState(st))
	}
	if err := cr.lc.ImportState(snap.Residuals); err != nil {
		return 0, err
	}
	if err := restoreEpoch(snap, cr.lc); err != nil {
		return 0, err
	}
	if m := cr.tel.M(); m != nil {
		m.Counter("hipress_ckpt_resumes_total", "training runs resumed from a checkpoint").Inc()
	}
	return snap.Step, nil
}

// snapshot captures the run's state as of step (the next iteration to
// execute) in detached copies.
func (cr *ckptRunner) snapshot(step int) *ckpt.Snapshot {
	tensors := make(map[string][]float32, len(cr.tensors))
	for name, src := range cr.tensors {
		tensors[name] = tensor.Clone(src)
	}
	rng := make(map[string]uint64, len(cr.rngs))
	for v, r := range cr.rngs {
		rng[workerRNGKey(v)] = uint64(r.Save())
	}
	meta := map[string]string{"task": cr.task, "workers": strconv.Itoa(cr.cfg.Workers)}
	captureEpoch(meta, cr.lc)
	return &ckpt.Snapshot{
		Step: step, Algo: cr.cfg.Algo, Params: maps.Clone(cr.cfg.Params),
		Tensors: tensors, Residuals: cr.lc.ExportState(), RNG: rng,
		Meta: meta,
	}
}

// maybeSave persists a snapshot when iteration it (0-based, just completed)
// hits the period; other iterations pay nothing.
func (cr *ckptRunner) maybeSave(it int) error {
	if cr == nil || cr.every <= 0 || (it+1)%cr.every != 0 {
		return nil
	}
	var start float64
	tr := cr.tel.T()
	if tr.Enabled() {
		start = tr.Now()
	}
	snap := cr.snapshot(it + 1)
	if _, err := cr.store.Save(snap); err != nil {
		return fmt.Errorf("trainer: checkpoint at step %d: %w", snap.Step, err)
	}
	if tr.Enabled() {
		tr.Record(telemetry.Span{
			Name: fmt.Sprintf("ckpt save step %d", snap.Step), Cat: "ckpt",
			Node: 0, Stream: "comp", Start: start, Dur: tr.Now() - start,
		}.With(telemetry.Num("step", float64(snap.Step))))
	}
	if m := cr.tel.M(); m != nil {
		m.Counter("hipress_ckpt_saves_total", "checkpoints written").Inc()
	}
	return nil
}

// Checkpoint metadata keys for the autotuning plane's plan epoch.
const (
	metaEpochKey   = "autotune/epoch" // hex of the canonical epoch frame
	metaEpochRound = "autotune/round" // round index the epoch was captured at
)

// captureEpoch records the plan epoch the next round will execute under —
// NextEpoch, so a snapshot taken between a staged epoch switch and its
// round-barrier activation resumes into the post-switch plan, exactly what
// the uninterrupted run would have executed.
func captureEpoch(meta map[string]string, lc *core.LiveCluster) {
	meta[metaEpochKey] = hex.EncodeToString(core.EncodePlanEpoch(lc.NextEpoch()))
	meta[metaEpochRound] = strconv.FormatInt(lc.Rounds(), 10)
}

// restoreEpoch reinstalls the checkpointed plan epoch (a no-op for
// checkpoints predating the autotuning plane: the cluster keeps its default
// epoch). All peers restore from the same snapshot, so agreement is
// implicit.
func restoreEpoch(snap *ckpt.Snapshot, lc *core.LiveCluster) error {
	enc, ok := snap.Meta[metaEpochKey]
	if !ok {
		return nil
	}
	frame, err := hex.DecodeString(enc)
	if err != nil {
		return fmt.Errorf("trainer: checkpoint epoch frame: %w", err)
	}
	ep, err := core.DecodePlanEpoch(frame)
	if err != nil {
		return fmt.Errorf("trainer: checkpoint epoch frame: %w", err)
	}
	round, err := strconv.ParseInt(snap.Meta[metaEpochRound], 10, 64)
	if err != nil {
		return fmt.Errorf("trainer: checkpoint epoch round: %w", err)
	}
	return lc.RestoreEpoch(ep, round)
}

// restoreTensor copies a named snapshot tensor into dst, demanding an exact
// length match (a dimension mismatch means the checkpoint belongs to a
// different model).
func restoreTensor(snap *ckpt.Snapshot, name string, dst []float32) error {
	src, ok := snap.Tensors[name]
	if !ok {
		return fmt.Errorf("trainer: checkpoint is missing tensor %q", name)
	}
	if len(src) != len(dst) {
		return fmt.Errorf("trainer: checkpoint tensor %q has %d elements, model wants %d", name, len(src), len(dst))
	}
	copy(dst, src)
	return nil
}

func workerRNGKey(v int) string { return "rng/worker/" + strconv.Itoa(v) }
