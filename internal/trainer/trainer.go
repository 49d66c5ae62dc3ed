// Package trainer is the real-execution convergence plane: genuine
// data-parallel SGD where N in-process workers compute real gradients on
// synthetic learnable tasks and synchronize them through live CaSync with
// real compression. It validates the paper's Fig. 13 claim — compression-
// enabled training converges to the same quality, in less (simulated) wall
// time — end to end, with actual compressed bytes on the wire.
//
// The workers compute at once: each step's gradient pass is one Op on the
// kernel pool (internal/kernels), which is the pool's second client after
// the compression kernels, with one chunk per worker. A worker owns its data
// stream, accumulator, velocity and scratch, and only reads the model, so a
// step's results are those of computing the workers in turn.
package trainer

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"hipress/internal/compress"
	"hipress/internal/core"
	"hipress/internal/kernels"
	"hipress/internal/telemetry"
	"hipress/internal/tensor"
)

// Config describes one training run.
type Config struct {
	// Workers is the number of data-parallel nodes (≥ 2).
	Workers int
	// Strategy selects the live synchronization strategy.
	Strategy core.Strategy
	// Algo is the compression algorithm ("" = exact synchronization);
	// Params its parameters; ErrorFeedback enables residuals.
	Algo          string
	Params        compress.Params
	ErrorFeedback bool
	// Parts partitions each gradient during synchronization.
	Parts int

	// LR is the SGD learning rate; Batch the per-worker minibatch size;
	// Iters the iteration count.
	LR    float64
	Batch int
	Iters int
	// Momentum enables heavy-ball SGD (0 = plain SGD). With
	// MomentumCorrection (DGC §3's trick), each worker applies momentum
	// *locally before compression* and the synchronized quantity is the
	// velocity — so sparsified updates carry their accumulated momentum
	// instead of having stale momentum re-applied globally.
	Momentum           float64
	MomentumCorrection bool
	// Seed drives all data generation and initialization.
	Seed uint64
	// EvalEvery records the loss every this many iterations (0 → 10).
	EvalEvery int

	// Telemetry, when non-nil, receives wall-clock spans and metrics from
	// the live synchronization rounds (see internal/telemetry). Nil keeps
	// training uninstrumented with zero overhead.
	Telemetry *telemetry.Set

	// Autotune, when non-nil, closes the cost-model loop during training:
	// the cluster feeds it ack timings and round observations, and its
	// proposals re-plan synchronization from the next round barrier on
	// (see internal/autotune). Checkpoints record the active plan
	// epoch, so kill+resume lands in the same plan the uninterrupted run
	// would have executed.
	Autotune core.Autotuner

	// Checkpoint, when non-nil, enables the recovery plane: periodic
	// crash-consistent snapshots and resume-from-latest such that a killed
	// and resumed run is bit-identical to an uninterrupted one (see
	// CheckpointConfig).
	Checkpoint *CheckpointConfig

	// FaultHook, when non-nil, is called at the top of every iteration and
	// may return an error to abort the run there — the injection point the
	// supervisor tests use to simulate mid-training round failures. The
	// returned error surfaces unwrapped so errors.As classification works.
	FaultHook func(iter int) error
}

func (c *Config) defaults() error {
	if c.Workers < 2 {
		return fmt.Errorf("trainer: need at least 2 workers, got %d", c.Workers)
	}
	if c.LR <= 0 {
		c.LR = 0.05
	}
	if c.Batch <= 0 {
		c.Batch = 16
	}
	if c.Iters <= 0 {
		c.Iters = 100
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 10
	}
	return nil
}

// live is the cluster configuration both training loops synchronize under.
func (c *Config) live() core.LiveConfig {
	return core.LiveConfig{Strategy: c.Strategy, Algo: c.Algo, Params: c.Params,
		ErrorFeedback: c.ErrorFeedback, Parts: c.Parts,
		Telemetry: c.Telemetry, Autotune: c.Autotune}
}

// Curve is a training trajectory: the loss at recorded iterations.
type Curve struct {
	Iters  []int
	Losses []float64
}

// Final returns the last recorded loss.
func (c *Curve) Final() float64 {
	if len(c.Losses) == 0 {
		return math.Inf(1)
	}
	return c.Losses[len(c.Losses)-1]
}

// FirstIterBelow returns the first recorded iteration whose loss is below
// target, or -1 if never reached.
func (c *Curve) FirstIterBelow(target float64) int {
	for i, l := range c.Losses {
		if l < target {
			return c.Iters[i]
		}
	}
	return -1
}

// --- linear regression task -----------------------------------------------------

// LinearTask is a noisy linear teacher: y = w*·x + ε. Convex, so exact and
// compressed SGD trajectories are cleanly comparable.
type LinearTask struct {
	Dim     int
	Noise   float64
	teacher []float32
}

// NewLinearTask builds a task with a fixed random teacher.
func NewLinearTask(dim int, noise float64, seed uint64) *LinearTask {
	w := make([]float32, dim)
	tensor.NewRNG(seed).FillNormal(w, 1)
	return &LinearTask{Dim: dim, Noise: noise, teacher: w}
}

// sample fills x and returns the label.
func (t *LinearTask) sample(rng *tensor.RNG, x []float32) float32 {
	rng.FillNormal(x, 1)
	return float32(tensor.Dot(x, t.teacher) + rng.NormFloat64()*t.Noise)
}

// TrainLinear runs data-parallel SGD on linear regression and returns the
// loss curve (mean squared error on a held-out set) plus the final weights.
func TrainLinear(task *LinearTask, cfg Config) (*Curve, []float32, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	lc, err := core.NewLiveCluster(cfg.Workers, cfg.live())
	if err != nil {
		return nil, nil, err
	}

	dim := task.Dim
	w := make([]float32, dim) // shared model, starts at zero
	workerRNG := make([]*tensor.RNG, cfg.Workers)
	for v := range workerRNG {
		workerRNG[v] = tensor.NewRNG(cfg.Seed*1000 + uint64(v) + 1)
	}

	// Held-out evaluation set.
	evalRNG := tensor.NewRNG(cfg.Seed + 777)
	const evalN = 256
	evalX := make([][]float32, evalN)
	evalY := make([]float32, evalN)
	for i := range evalX {
		evalX[i] = make([]float32, dim)
		evalY[i] = task.sample(evalRNG, evalX[i])
	}
	mse := func() float64 {
		var sum float64
		for i := range evalX {
			d := tensor.Dot(evalX[i], w) - float64(evalY[i])
			sum += d * d
		}
		return sum / evalN
	}

	curve := &Curve{}
	// Momentum state: per-worker velocities when momentum correction is on
	// (each worker compresses its own velocity), one global velocity
	// otherwise (momentum applied after synchronization).
	localVel := make([][]float32, cfg.Workers)
	for v := range localVel {
		localVel[v] = make([]float32, dim)
	}
	globalVel := make([]float32, dim)

	// Recovery plane: open the store, optionally restore every piece of
	// mutable training state (weights, velocities, data RNG positions,
	// error-feedback residuals, plan epoch and round index) from the latest
	// valid checkpoint, and save periodically below.
	state := map[string][]float32{"w": w, "vel/global": globalVel}
	for v := range localVel {
		state["vel/local/"+strconv.Itoa(v)] = localVel[v]
	}
	cr, startIt, err := openCkpt(&cfg, "linear", state, workerRNG, lc)
	if err != nil {
		return nil, nil, err
	}

	// Per-worker gradient and sample buffers, the results they synchronize
	// into and both maps are allocated once and reused every iteration (a
	// round reads grads and writes dst during the round only), so the step
	// loop stays off the allocator. Values are identical to per-iteration
	// allocation — resume bit-identity is unaffected.
	grads, dst := make([]map[string][]float32, cfg.Workers), make([]map[string][]float32, cfg.Workers)
	pass := &linearStep{task: task, cfg: &cfg, w: w, rngs: workerRNG, vel: localVel,
		g: make([][]float32, cfg.Workers), x: make([][]float32, cfg.Workers)}
	for v := range pass.g {
		pass.g[v], pass.x[v] = make([]float32, dim), make([]float32, dim)
		grads[v], dst[v] = map[string][]float32{"w": pass.g[v]}, map[string][]float32{"w": make([]float32, dim)}
	}
	for it := startIt; it < cfg.Iters; it++ {
		if cfg.FaultHook != nil {
			if err := cfg.FaultHook(it); err != nil {
				return nil, nil, err
			}
		}
		// The pass calls no compress kernel, so it never calls Run on the
		// pool it runs on (see kernels.Pool.Run).
		kernels.Default().Run(cfg.Workers, pass)
		if _, err := lc.SyncRoundInto(context.Background(), grads, dst); err != nil {
			return nil, nil, err
		}
		// All nodes hold identical aggregates (BSP); apply the mean.
		step := dst[0]["w"]
		if cfg.Momentum > 0 && !cfg.MomentumCorrection {
			// Conventional momentum on the synchronized gradient.
			tensor.Scale(globalVel, float32(cfg.Momentum))
			tensor.Add(globalVel, step)
			step = globalVel
		}
		tensor.AXPY(w, -float32(cfg.LR/float64(cfg.Workers)), step)
		if it%cfg.EvalEvery == 0 || it == cfg.Iters-1 {
			curve.Iters = append(curve.Iters, it)
			curve.Losses = append(curve.Losses, mse())
		}
		if err := cr.maybeSave(it); err != nil {
			return nil, nil, err
		}
	}
	return curve, w, nil
}

// linearStep is one TrainLinear step's gradient pass as a kernels.Op: chunk
// v is worker v, which clears its accumulator and runs its batch.
type linearStep struct {
	task      *LinearTask
	cfg       *Config
	w         []float32
	rngs      []*tensor.RNG
	g, x, vel [][]float32
}

func (s *linearStep) RunChunk(v int) {
	g, x, rng := s.g[v], s.x[v], s.rngs[v]
	clear(g)
	for b := 0; b < s.cfg.Batch; b++ {
		y := s.task.sample(rng, x)
		resid := float32(tensor.Dot(x, s.w)) - y
		// ∂/∂w of (w·x − y)² / 2 = (w·x − y)·x
		tensor.AXPY(g, resid/float32(s.cfg.Batch), x)
	}
	if s.cfg.Momentum > 0 && s.cfg.MomentumCorrection {
		// DGC momentum correction: u ← m·u + g locally; the velocity is
		// what gets (sparsely) synchronized.
		tensor.Scale(s.vel[v], float32(s.cfg.Momentum))
		tensor.Add(s.vel[v], g)
		copy(g, s.vel[v])
	}
}

// --- two-layer MLP task ------------------------------------------------------

// MLPTask is a small nonlinear regression problem: the target is a fixed
// random two-layer tanh network, so a student of the same shape can fit it
// to near-zero loss — giving the convergence comparison a nontrivial,
// non-convex loss surface.
type MLPTask struct {
	In, Hidden int
	teacher    *mlp
}

// NewMLPTask builds the task with a fixed teacher network.
func NewMLPTask(in, hidden int, seed uint64) *MLPTask {
	t := newMLP(in, hidden, tensor.NewRNG(seed))
	return &MLPTask{In: in, Hidden: hidden, teacher: t}
}

// mlp is y = w2·tanh(W1·x + b1) + b2 with flat parameter storage.
type mlp struct {
	in, hidden     int
	w1, b1, w2, b2 []float32
}

// newMLP initializes a network's parameters from rng; with a nil rng it is
// zero, parameter-shaped storage for gradients and their aggregates.
func newMLP(in, hidden int, rng *tensor.RNG) *mlp {
	m := &mlp{in: in, hidden: hidden, w1: make([]float32, in*hidden),
		b1: make([]float32, hidden), w2: make([]float32, hidden), b2: make([]float32, 1)}
	if rng == nil {
		return m
	}
	rng.FillNormal(m.w1, 1/math.Sqrt(float64(in)))
	rng.FillNormal(m.w2, 1/math.Sqrt(float64(hidden)))
	return m
}

// forward returns the output and the hidden activations.
func (m *mlp) forward(x []float32, hid []float32) float32 {
	for h := 0; h < m.hidden; h++ {
		var acc float64
		row := m.w1[h*m.in : (h+1)*m.in]
		for i, xi := range x {
			acc += float64(row[i]) * float64(xi)
		}
		hid[h] = float32(math.Tanh(acc + float64(m.b1[h])))
	}
	var out float64
	for h := 0; h < m.hidden; h++ {
		out += float64(m.w2[h]) * float64(hid[h])
	}
	return float32(out + float64(m.b2[0]))
}

// grads accumulates parameter gradients of the squared error at (x, y) into
// g (same layout as the mlp), scaled by scale.
func (m *mlp) grads(x []float32, y float32, hid []float32, g *mlp, scale float32) {
	pred := m.forward(x, hid)
	dOut := (pred - y) * scale
	g.b2[0] += dOut
	for h := 0; h < m.hidden; h++ {
		g.w2[h] += dOut * hid[h]
		dHid := dOut * m.w2[h] * (1 - hid[h]*hid[h])
		g.b1[h] += dHid
		row := g.w1[h*m.in : (h+1)*m.in]
		for i, xi := range x {
			row[i] += dHid * xi
		}
	}
}

func (m *mlp) gradsMap() map[string][]float32 {
	return map[string][]float32{"w1": m.w1, "b1": m.b1, "w2": m.w2, "b2": m.b2}
}

// TrainMLP trains a student network against the task's teacher with
// data-parallel compressed SGD.
func TrainMLP(task *MLPTask, cfg Config) (*Curve, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	lc, err := core.NewLiveCluster(cfg.Workers, cfg.live())
	if err != nil {
		return nil, err
	}

	student := newMLP(task.In, task.Hidden, tensor.NewRNG(cfg.Seed+1))
	workerRNG := make([]*tensor.RNG, cfg.Workers)
	for v := range workerRNG {
		workerRNG[v] = tensor.NewRNG(cfg.Seed*4099 + uint64(v) + 13)
	}

	// Per-worker state allocated once (see TrainLinear); the evaluation reuses
	// the step's hidden buffers, as the two run one after the other.
	pass := &mlpStep{teacher: task.teacher, student: student, batch: cfg.Batch, rngs: workerRNG,
		g: make([]*mlp, cfg.Workers), x: make([][]float32, cfg.Workers), hid: make([][]float32, cfg.Workers)}
	grads, dst := make([]map[string][]float32, cfg.Workers), make([]map[string][]float32, cfg.Workers)
	for v := range pass.g {
		pass.g[v], pass.x[v], pass.hid[v] = newMLP(task.In, task.Hidden, nil), make([]float32, task.In), make([]float32, task.Hidden)
		grads[v], dst[v] = pass.g[v].gradsMap(), newMLP(task.In, task.Hidden, nil).gradsMap()
	}

	evalRNG := tensor.NewRNG(cfg.Seed + 555)
	const evalN = 200
	eval := &mlpEval{student: student, x: make([][]float32, evalN), y: make([]float32, evalN),
		sq: make([]float64, evalN), hid: pass.hid}
	for i := range eval.x {
		eval.x[i] = make([]float32, task.In)
		evalRNG.FillNormal(eval.x[i], 1)
		eval.y[i] = task.teacher.forward(eval.x[i], pass.hid[0])
	}

	// Recovery plane: see TrainLinear. The MLP snapshot carries the four
	// student parameter tensors plus worker RNG and cluster state.
	cr, startIt, err := openCkpt(&cfg, "mlp", student.gradsMap(), workerRNG, lc)
	if err != nil {
		return nil, err
	}

	curve := &Curve{}
	for it := startIt; it < cfg.Iters; it++ {
		if cfg.FaultHook != nil {
			if err := cfg.FaultHook(it); err != nil {
				return nil, err
			}
		}
		kernels.Default().Run(cfg.Workers, pass) // calls no compress kernel (see TrainLinear)
		if _, err := lc.SyncRoundInto(context.Background(), grads, dst); err != nil {
			return nil, err
		}
		step := -float32(cfg.LR / float64(cfg.Workers))
		tensor.AXPY(student.w1, step, dst[0]["w1"])
		tensor.AXPY(student.b1, step, dst[0]["b1"])
		tensor.AXPY(student.w2, step, dst[0]["w2"])
		tensor.AXPY(student.b2, step, dst[0]["b2"])
		if it%cfg.EvalEvery == 0 || it == cfg.Iters-1 {
			curve.Iters = append(curve.Iters, it)
			curve.Losses = append(curve.Losses, eval.mse())
		}
		if err := cr.maybeSave(it); err != nil {
			return nil, err
		}
	}
	return curve, nil
}

// mlpStep is one TrainMLP step's gradient pass as a kernels.Op: chunk v is
// worker v, which clears its accumulator and runs its batch.
type mlpStep struct {
	teacher, student *mlp
	batch            int
	rngs             []*tensor.RNG
	g                []*mlp
	x, hid           [][]float32
}

func (s *mlpStep) RunChunk(v int) {
	g, x, hid, rng := s.g[v], s.x[v], s.hid[v], s.rngs[v]
	clear(g.w1)
	clear(g.b1)
	clear(g.w2)
	clear(g.b2)
	for b := 0; b < s.batch; b++ {
		rng.FillNormal(x, 1)
		y := s.teacher.forward(x, hid)
		s.student.grads(x, y, hid, g, 1/float32(s.batch))
	}
}

// mlpEval is TrainMLP's held-out loss as a kernels.Op: chunk c writes the
// squared errors of its contiguous share of the samples into sq, through its
// own hidden buffer, and mse sums sq in sample order on the caller, so the
// loss bits are those of one serial pass.
type mlpEval struct {
	student *mlp
	x, hid  [][]float32 // hid: one per chunk
	y       []float32
	sq      []float64
}

func (e *mlpEval) RunChunk(c int) {
	n, k := len(e.x), len(e.hid)
	for i := c * n / k; i < (c+1)*n/k; i++ {
		d := float64(e.student.forward(e.x[i], e.hid[c]) - e.y[i])
		e.sq[i] = d * d
	}
}

func (e *mlpEval) mse() float64 {
	kernels.Default().Run(len(e.hid), e) // calls no compress kernel (see TrainLinear)
	var sum float64
	for _, d := range e.sq {
		sum += d
	}
	return sum / float64(len(e.sq))
}

// SeedSweep runs TrainLinear across several seeds and reports the mean and
// (population) standard deviation of the final loss — the variance evidence
// behind "converges to approximately the same accuracy" claims.
func SeedSweep(task *LinearTask, cfg Config, seeds []uint64) (mean, std float64, err error) {
	if len(seeds) == 0 {
		return 0, 0, fmt.Errorf("trainer: SeedSweep needs at least one seed")
	}
	finals := make([]float64, 0, len(seeds))
	for _, s := range seeds {
		c := cfg
		c.Seed = s
		curve, _, terr := TrainLinear(task, c)
		if terr != nil {
			return 0, 0, terr
		}
		finals = append(finals, curve.Final())
	}
	for _, f := range finals {
		mean += f
	}
	mean /= float64(len(finals))
	for _, f := range finals {
		std += (f - mean) * (f - mean)
	}
	std = math.Sqrt(std / float64(len(finals)))
	return mean, std, nil
}
