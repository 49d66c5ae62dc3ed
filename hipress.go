// Package hipress is the public API of HiPress-Go, a from-scratch Go
// reproduction of "Gradient Compression Supercharged High-Performance Data
// Parallel DNN Training" (SOSP 2021).
//
// The library has three planes:
//
//   - A real compression plane: five gradient compression algorithms
//     (onebit, TBQ, TernGrad, DGC, GradDrop) operating on genuine []float32
//     gradients, plus the CompLL DSL toolkit that compiles C-like algorithm
//     descriptions into registered compressors.
//   - A live synchronization plane: CaSync task graphs executed by real
//     goroutine workers exchanging real compressed bytes, used for
//     data-parallel SGD with verified convergence.
//   - A timing plane: the same CaSync graphs executed in virtual time on
//     calibrated GPU/network models, reproducing the paper's cluster-scale
//     evaluation (128 V100s, 100 Gbps) on a laptop.
//
// Quick start:
//
//	cluster := hipress.EC2Cluster(16)
//	model, _ := hipress.Model("bert-large")
//	cfg, _ := hipress.Preset("hipress-ps", "onebit", cluster, nil)
//	res, _ := hipress.Run(cluster, model, cfg)
//	fmt.Printf("%.0f seq/s at scaling efficiency %.2f\n", res.Throughput, res.ScalingEff)
package hipress

import (
	"io"

	"hipress/internal/compll"
	"hipress/internal/compress"
	"hipress/internal/core"
	"hipress/internal/engine"
	"hipress/internal/models"
	"hipress/internal/netsim"
	"hipress/internal/sim"
	"hipress/internal/telemetry"
	"hipress/internal/trainer"
)

// --- cluster-scale simulation (timing plane) ---------------------------------

// Cluster describes a training cluster (nodes, GPUs per node, device and
// fabric models).
type Cluster = engine.Cluster

// Config selects a synchronization system and its optimization switches.
type Config = engine.Config

// Result is one simulated training iteration's measurements.
type Result = engine.Result

// DNNModel is one Table 6 model description.
type DNNModel = models.Model

// Table is a rendered experiment output.
type Table = engine.Table

// EC2Cluster returns the paper's AWS testbed: n nodes × 8 V100, 100 Gbps.
func EC2Cluster(nodes int) Cluster { return engine.EC2Cluster(nodes) }

// LocalCluster returns the paper's local testbed: n nodes × 2 GTX 1080 Ti,
// 56 Gbps InfiniBand.
func LocalCluster(nodes int) Cluster { return engine.LocalCluster(nodes) }

// Model returns a Table 6 model by name (vgg19, resnet50, ugatit,
// ugatit-light, bert-base, bert-large, lstm, transformer).
func Model(name string) (*DNNModel, error) { return models.ByName(name) }

// ModelNames lists the model zoo.
func ModelNames() []string { return models.Names() }

// ModelFromJSON loads a user-defined model spec (explicit gradient list or
// Table 6-style statistics) for simulation; see internal/models/json.go for
// the format.
func ModelFromJSON(r io.Reader) (*DNNModel, error) { return models.FromJSON(r) }

// Preset resolves a named system configuration ("byteps", "ring",
// "byteps-oss", "ring-oss", "hipress-ps", "hipress-ring") against a cluster.
func Preset(name, algo string, cl Cluster, params map[string]float64) (Config, error) {
	return engine.PresetFor(name, algo, cl, params)
}

// Presets lists the recognized system preset names.
func Presets() []string { return engine.PresetNames() }

// Run simulates one training iteration of model m on cluster cl under cfg.
func Run(cl Cluster, m *DNNModel, cfg Config) (Result, error) { return engine.Run(cl, m, cfg) }

// Experiments lists the paper table/figure reproduction ids.
func Experiments() []string { return engine.Experiments() }

// RunExperiment regenerates one paper table or figure; scale in (0,1]
// shrinks iteration-heavy experiments.
func RunExperiment(id string, scale float64) (*Table, error) {
	return engine.RunExperiment(id, scale)
}

// --- observability plane --------------------------------------------------------

// Telemetry bundles a span tracer and a metrics registry — the shared
// observability plane both execution planes publish into. Attach one via
// Config.Telemetry (simulation), LiveConfig.Telemetry / TrainConfig.Telemetry
// (live execution), or process-wide with SetDefaultTelemetry.
type Telemetry = telemetry.Set

// Tracer records spans (virtual-clock in simulation, wall-clock live) and
// exports them as Chrome trace-event JSON via WriteChromeTrace — loadable in
// Perfetto / chrome://tracing, one track per node and stream, flow arrows
// linking sends to receives.
type Tracer = telemetry.Tracer

// Metrics is a Prometheus-style registry (counters, gauges, histograms)
// exported as text exposition via WritePrometheus: compression byte volumes
// and realized ratios, retries, round latencies, link occupancy.
type Metrics = telemetry.Registry

// NewTelemetry builds an enabled tracer+metrics pair. A nil *Telemetry (and
// nil Tracer/Metrics) is valid everywhere and keeps every instrumented hot
// path allocation-free.
func NewTelemetry() *Telemetry { return telemetry.New() }

// SetDefaultTelemetry installs tel as the fallback observability set for
// experiment runs whose Config carries none (what hipress-bench's -trace and
// -metrics flags use). Pass nil to uninstall.
func SetDefaultTelemetry(tel *Telemetry) { engine.SetDefaultTelemetry(tel) }

// SetLiveTransport selects the netsim transport the live-plane experiment
// gates (recovery, stragglers, autotune, tcpchaos) run over: "" or "chan"
// for in-process channels, "tcp" for real loopback sockets through the
// socket plane (what hipress-bench's -transport flag and the CI tcp-parity
// job use).
func SetLiveTransport(name string) error { return engine.SetDefaultLiveTransport(name) }

// --- fault plane ---------------------------------------------------------------

// ChaosSchedule is a timing-plane fault plan: stragglers and link outages
// scheduled in virtual time, attached via Config.Chaos.
type ChaosSchedule = sim.ChaosSchedule

// ParseChaosSchedule parses a compact fault-schedule spec, e.g.
// "slow:1x2@0+10;link:0-2@0.01+0.05;down:3@0.2+0.1".
func ParseChaosSchedule(spec string) (*ChaosSchedule, error) { return sim.ParseSchedule(spec) }

// ChaosExperiment runs the fault-injection study under a custom schedule
// (the "chaos" experiment id uses a default one).
func ChaosExperiment(spec string) (*Table, error) { return engine.ChaosExp(spec) }

// ChaosConfig injects deterministic faults (drops, duplicates, corruption,
// delays, reorders, blackouts) into a live cluster's transport; attach via
// LiveConfig.Chaos.
type ChaosConfig = netsim.ChaosConfig

// LinkFaults is the per-link fault mix of a ChaosConfig.
type LinkFaults = netsim.LinkFaults

// Link names a directed (src, dst) transport pair in ChaosConfig.Links.
type Link = netsim.Link

// ChaosStats counts what a chaotic transport actually did to traffic.
type ChaosStats = netsim.ChaosStats

// RetryPolicy bounds the live plane's per-transfer retransmission (every live
// round is acknowledged-or-retried).
type RetryPolicy = core.RetryPolicy

// DegradePolicy selects what a live round does when a peer is diagnosed
// dead: abort with a typed error, or exclude its contribution.
type DegradePolicy = core.DegradePolicy

// Degradation policies for LiveConfig.OnPeerFail.
const (
	DegradeAbort   = core.DegradeAbort
	DegradeExclude = core.DegradeExclude
)

// RoundHealth reports one live round's fault-plane telemetry: retries,
// duplicates, corrupt drops, excluded peers, renormalization.
type RoundHealth = core.RoundHealth

// RoundTimeoutError is returned when a live round exceeds its deadline.
type RoundTimeoutError = core.RoundTimeoutError

// PeerFailureError is returned when retries against a peer are exhausted.
type PeerFailureError = core.PeerFailureError

// --- compression (real data plane) --------------------------------------------

// Compressor is the unified gradient compression abstraction: EncodeInto
// and DecodeInto write into buffers the caller provides; Encode and Decode
// below are the allocating forms.
//
//	c, _ := hipress.NewCompressor("onebit", nil)
//	payload, _ := hipress.Encode(c, grad)
//	back, _ := hipress.Decode(c, payload, len(grad))
type Compressor = compress.Compressor

// NewCompressor builds a registered compressor by name: "onebit", "tbq",
// "terngrad", "dgc", "graddrop", their "oss-" baseline variants, the DSL
// builds ("cll-onebit", ...), and anything registered via RegisterAlgorithm.
func NewCompressor(name string, params map[string]float64) (Compressor, error) {
	return compress.New(name, params)
}

// Encode compresses grad under c into a fresh payload. Code that owns a
// reusable buffer calls c.EncodeInto directly.
func Encode(c Compressor, grad []float32) ([]byte, error) { return compress.Encode(c, grad) }

// Decode reconstructs an n-element gradient from payload into a fresh slice
// (c.DecodeInto writes into one the caller owns).
func Decode(c Compressor, payload []byte, n int) ([]float32, error) {
	return compress.Decode(c, payload, n)
}

// CompressorNames lists every registered compression algorithm.
func CompressorNames() []string { return compress.Names() }

// ErrorFeedback wraps a compressor with per-gradient residual accumulation
// (EF-SGD), which biased compressors need for convergence.
type ErrorFeedback = compress.ErrorFeedback

// NewErrorFeedback builds residual state around c.
func NewErrorFeedback(c Compressor) *ErrorFeedback { return compress.NewErrorFeedback(c) }

// --- CompLL (DSL toolkit) ------------------------------------------------------

// Algorithm is a compiled CompLL DSL program.
type Algorithm = compll.Algorithm

// CompileAlgorithm parses and validates CompLL DSL source.
func CompileAlgorithm(name, src string) (*Algorithm, error) { return compll.Compile(name, src) }

// RegisterAlgorithm installs a compiled DSL algorithm into the compression
// registry — the paper's automated integration: after this call the
// algorithm is usable by name everywhere (presets, live training, plans).
func RegisterAlgorithm(a *Algorithm, registryName string, defaults map[string]float64) {
	compll.RegisterCompressor(a, registryName, defaults)
}

// GenerateGo emits Go source for a compiled DSL algorithm (the compllc
// code-synthesis path).
func GenerateGo(a *Algorithm, pkg string) (string, error) {
	return compll.Gen(a.Program(), pkg)
}

// --- live compressed training (real execution plane) ---------------------------

// Strategy selects a gradient synchronization strategy.
type Strategy = core.Strategy

// Synchronization strategies. StrategyHD (recursive halving-doubling) is
// the beyond-the-paper strategy demonstrating CaSync's generality; it is
// timing-plane only and needs power-of-two node counts.
const (
	StrategyRing = core.StrategyRing
	StrategyPS   = core.StrategyPS
	StrategyHD   = core.StrategyHD
)

// LiveConfig configures a live (real-data) synchronization cluster.
type LiveConfig = core.LiveConfig

// LiveCluster synchronizes real gradients across in-process workers with
// real compression.
type LiveCluster = core.LiveCluster

// NewLiveCluster builds an n-node live cluster.
func NewLiveCluster(n int, cfg LiveConfig) (*LiveCluster, error) {
	return core.NewLiveCluster(n, cfg)
}

// TrainConfig configures a data-parallel SGD run on the live plane.
type TrainConfig = trainer.Config

// CheckpointConfig configures crash-consistent checkpointing (and resume)
// for a live training run; set it on TrainConfig.Checkpoint.
type CheckpointConfig = trainer.CheckpointConfig

// TrainCurve is a recorded loss trajectory.
type TrainCurve = trainer.Curve

// LinearTask is a synthetic linear-regression training task.
type LinearTask = trainer.LinearTask

// MLPTask is a synthetic two-layer-network training task.
type MLPTask = trainer.MLPTask

// NewLinearTask builds a linear task with a fixed random teacher.
func NewLinearTask(dim int, noise float64, seed uint64) *LinearTask {
	return trainer.NewLinearTask(dim, noise, seed)
}

// NewMLPTask builds an MLP task with a fixed teacher network.
func NewMLPTask(in, hidden int, seed uint64) *MLPTask {
	return trainer.NewMLPTask(in, hidden, seed)
}

// TrainLinear runs compressed data-parallel SGD on a linear task.
func TrainLinear(task *LinearTask, cfg TrainConfig) (*TrainCurve, []float32, error) {
	return trainer.TrainLinear(task, cfg)
}

// TrainMLP runs compressed data-parallel SGD on an MLP task.
func TrainMLP(task *MLPTask, cfg TrainConfig) (*TrainCurve, error) {
	return trainer.TrainMLP(task, cfg)
}

// SeedSweep trains across seeds and reports the mean and standard deviation
// of the final loss.
func SeedSweep(task *LinearTask, cfg TrainConfig, seeds []uint64) (mean, std float64, err error) {
	return trainer.SeedSweep(task, cfg, seeds)
}
