package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"hipress/internal/ckpt"
	"hipress/internal/core"
	"hipress/internal/kernels"
	"hipress/internal/models"
	"hipress/internal/telemetry"
	"hipress/internal/trainer"
)

// The training workload: trainer.TrainMLP, 4 workers, terngrad with error
// feedback over the trainer's default send path, checkpointing every 50
// steps. One operation is one training step.
//
// TrainMLP owns its loop, so the harness steps it from outside through the
// public Config.FaultHook: the hook parks the trainer at the top of every
// iteration until the harness asks for the next step. The first TrainMLP
// call runs a fixed number of steps, so its final loss is a pure function of
// the seed; training then continues from the last checkpoint (bit-identical
// by the trainer's contract) for as long as the measured phase lasts.

const (
	mlpIn, mlpHidden = 256, 512
	trainBatch       = 16
	ckptEvery        = 50
	fixedSteps       = 150 // loss_final is the loss after this many steps
	// lossTarget is the recorded quality target: the loss after fixedSteps
	// was 0.046–0.067 on the 36 seeds tried while writing the benchmark
	// (README.md), and the untrained student starts near 0.7.
	lossTarget = 0.12
)

var errStopped = errors.New("bench: training stopped by the harness")

type trainDone struct {
	curve *trainer.Curve
	err   error
}

type trainInst struct {
	task  *trainer.MLPTask
	cfg   trainer.Config
	dir   string
	fixed int

	gate   chan bool // harness → trainer: run the next iteration (false: stop)
	at     chan int  // trainer → harness: parked at the top of this iteration
	done   chan trainDone
	parked bool // a TrainMLP call is waiting on gate

	loss     float64
	haveLoss bool
}

func trainConfig(seed uint64, algo string, tel *telemetry.Set) trainer.Config {
	return trainer.Config{
		Workers: nodes, Strategy: core.StrategyPS,
		Algo: algo, ErrorFeedback: algo != "",
		Batch: trainBatch, Seed: seed, Telemetry: tel,
	}
}

func newTrainInst(o options, tel *telemetry.Set) (*trainInst, error) {
	dir, err := tempDir("ckpt-")
	if err != nil {
		return nil, err
	}
	t := &trainInst{
		task:  trainer.NewMLPTask(mlpIn, mlpHidden, o.seed),
		cfg:   trainConfig(o.seed, "terngrad", tel),
		dir:   dir,
		fixed: pick(o.smoke, fixedSteps, 3),
		gate:  make(chan bool),
		at:    make(chan int),
		done:  make(chan trainDone, 1), // the trainer's single send never blocks, so it always exits
	}
	t.cfg.Checkpoint = &trainer.CheckpointConfig{Dir: dir, Every: pick(o.smoke, ckptEvery, 3)}
	t.cfg.FaultHook = func(it int) error {
		t.at <- it
		if !<-t.gate {
			return errStopped
		}
		return nil
	}
	if err := t.start(t.fixed, false); err != nil {
		return nil, errors.Join(err, t.close())
	}
	for i := 0; i < pick(o.smoke, warmupOps, 1); i++ {
		if _, err := t.op(i); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up step %d: %w", i, err), t.close())
		}
	}
	return t, nil
}

// start launches TrainMLP and returns once it is parked at its first
// iteration.
func (t *trainInst) start(iters int, resume bool) error {
	cfg := t.cfg
	cfg.Iters = iters
	cc := *t.cfg.Checkpoint
	cc.Resume = resume
	cfg.Checkpoint = &cc
	go func() {
		curve, err := trainer.TrainMLP(t.task, cfg)
		t.done <- trainDone{curve, err}
	}()
	select {
	case <-t.at:
		t.parked = true
		return nil
	case d := <-t.done:
		if d.err != nil {
			return d.err
		}
		return errors.New("bench: TrainMLP returned without running an iteration")
	}
}

// op runs one training step. The step that ends the fixed segment also
// restarts training from the checkpoint it just wrote.
func (t *trainInst) op(int) (int, error) {
	t.gate <- true
	t.parked = false
	select {
	case <-t.at:
		t.parked = true
		return 1, nil
	case d := <-t.done:
		if d.err != nil {
			return 1, d.err
		}
		t.loss, t.haveLoss = d.curve.Final(), true
		return 1, t.start(1<<30, true)
	}
}

// close stops the parked trainer, waits for it, and removes its checkpoints.
// After a failed step no trainer is left to stop.
func (t *trainInst) close() error {
	var err error
	if t.parked {
		t.gate <- false
		t.parked = false
		if d := <-t.done; !errors.Is(d.err, errStopped) {
			err = fmt.Errorf("bench: trainer ended with %v, want the harness's stop", d.err)
		}
	}
	return errors.Join(err, os.RemoveAll(t.dir))
}

// finishFixed steps (untimed) until the fixed segment has produced its loss,
// for machines on which the measured phase ended first.
func (t *trainInst) finishFixed() error {
	for !t.haveLoss {
		if _, err := t.op(0); err != nil {
			return err
		}
	}
	return nil
}

func runTrain(o options, rep *report) error {
	inst, setupS, err := setUp(func() (*trainInst, error) { return newTrainInst(o, nil) }, o.smoke)
	if err != nil {
		return err
	}
	p, ok := rep.measure(inst, 0, o.untracedSeconds(), minSamples, o.smoke)
	if !ok {
		return inst.close()
	}
	if err := inst.finishFixed(); err != nil {
		return errors.Join(err, inst.close())
	}
	if err := inst.close(); err != nil {
		return err
	}
	loss, target := inst.loss, lossTarget
	if o.smoke {
		target = math.Inf(1) // three steps teach nothing; any finite loss passes
	}
	if o.corrupt {
		loss = math.Inf(1)
	}
	if !(loss < target) {
		rep.wrong("loss after %d steps is %.6g, target below %g", inst.fixed, loss, target)
	}
	rep.notef("# %d steps in %.2f s, %.1f samples/s, loss after %d steps %.6g", p.ops, p.wall, samplesPerS(p), inst.fixed, loss)
	if !o.trace {
		endToEndMetrics(rep, p, setupS)
		return nil
	}
	return trainLayers(o, p, loss, rep)
}

func samplesPerS(p phase) float64 { return float64(nodes*trainBatch*p.ops) / p.wall }

// mlpGradients is the MLP's parameter list as the trainer synchronizes it.
func mlpGradients() []models.Gradient {
	return []models.Gradient{{Name: "b1", Elems: mlpHidden}, {Name: "b2", Elems: 1},
		{Name: "w1", Elems: mlpIn * mlpHidden}, {Name: "w2", Elems: mlpHidden}}
}

// trainLayers makes the traced run, the plain exact baseline and the layer
// replays of one training step's synchronization round.
func trainLayers(o options, untraced phase, loss float64, rep *report) error {
	tel := telemetry.New()
	traced, err := newTrainInst(o, tel)
	if err != nil {
		return err
	}
	tel.T().Reset()
	k0 := kernelCounters()
	tp, ok := rep.measure(traced, 0, o.seconds/2, minTraced, o.smoke)
	if err := traced.close(); err != nil || !ok {
		return err
	}
	k0.since(rep.Metrics)
	spans := tel.T().Spans()
	// Unhook the kernel plane from the traced run's registry before the
	// replays, which must run as the untraced steps do.
	kernels.SetTelemetry(nil)

	m := rep.Metrics
	p50u, tailMs := commonLayerMetrics(m, untraced, tp, len(spans))
	m.set("trainer.step_ms_tail", tailMs)
	m.set("trainer.samples_per_s", samplesPerS(untraced))
	m.set("trainer.loss_final", loss)
	spanSums(m, spans, tp.ops)

	// Synchronization's share of a step, from the round spans the live plane
	// already records; what a checkpointing step costs beyond an ordinary
	// one, from the untraced step times (warm-up consumed the first
	// iterations, so sample i is iteration warmupOps+i).
	var roundS float64
	for _, s := range spans {
		if s.Cat == "round" {
			roundS += s.Dur
		}
	}
	m.set("trainer.sync_share_pct", roundS/tp.wall*100)
	var stalls []float64
	for i, ms := range untraced.samples {
		if (i+warmupOps+1)%ckptEvery == 0 {
			stalls = append(stalls, ms-p50u)
		}
	}
	m.set("trainer.ckpt_stall_ms", median(stalls))
	rep.notef("# untraced %d steps, traced %d steps, %d spans, %d checkpointing steps", untraced.ops, tp.ops, len(spans), len(stalls))

	if !o.smoke {
		// The same task and seed with exact synchronization: what compression
		// costs in loss after the same number of steps.
		cfg := trainConfig(o.seed, "", nil)
		cfg.Iters = fixedSteps
		curve, err := trainer.TrainMLP(trainer.NewMLPTask(mlpIn, mlpHidden, o.seed), cfg)
		if err != nil {
			return fmt.Errorf("exact baseline: %w", err)
		}
		m.set("trainer.loss_gap_vs_exact", loss-curve.Final())
	}

	// One step's synchronization round, replayed layer by layer: the
	// trainer's cluster is PS, one partition, unreliable sequential chan.
	lcfg := core.LiveConfig{Strategy: core.StrategyPS, Algo: "terngrad", ErrorFeedback: true, Parts: 1}
	grads := mlpGradients()
	in := generateInputs(grads, o.seed, 1)
	sched, err := roundSchedule(lcfg, grads)
	if err != nil {
		return err
	}
	m.set("core.tasks_per_round", float64(sched.tasks))
	m.set("core.msgs_per_round", float64(len(sched.msgs)))
	m.set("core.graph_build_ms", sched.buildMs)
	if err := compressLayer(m, lcfg, sched, in.sets[0][0], o.smoke); err != nil {
		return err
	}
	kernelsLayer(m, o.smoke)
	if err := netsimLayer(m, "chan", sched, o.smoke); err != nil {
		return err
	}
	// The floor is taken against the synchronization round, not the whole
	// step: forward and backward passes are the trainer's own work.
	floorRatio(m, p50u*m["trainer.sync_share_pct"]/100)
	if err := ckptLayer(m, in, o.smoke); err != nil {
		return err
	}
	return writeTrace(o.traceDir, o.workload, tel.T().WriteChromeTrace)
}

// ckptLayer times Store.Save and LoadLatest on a snapshot of the size the
// run checkpoints: the four parameter tensors plus every node's residuals.
func ckptLayer(m metrics, in *inputs, smoke bool) error {
	dir, err := tempDir("ckptlayer-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := ckpt.OpenStore(dir)
	if err != nil {
		return err
	}
	snap := &ckpt.Snapshot{Algo: "terngrad", Tensors: in.sets[0][0], Residuals: in.sets[0],
		RNG: map[string]uint64{"w0": 1}, Meta: map[string]string{"task": "mlp"}}
	var save, load []float64
	for r := 0; r < pick(smoke, 9, 1); r++ {
		snap.Step = r + 1
		t0 := time.Now()
		path, err := st.Save(snap)
		if err != nil {
			return err
		}
		save = append(save, time.Since(t0).Seconds()*1e3)
		t0 = time.Now()
		if _, _, err := st.LoadLatest(); err != nil {
			return err
		}
		load = append(load, time.Since(t0).Seconds()*1e3)
		if fi, err := os.Stat(path); err == nil {
			m.set("ckpt.bytes", float64(fi.Size()))
		}
	}
	m.set("ckpt.save_ms", median(save))
	m.set("ckpt.load_ms", median(load))
	return nil
}
