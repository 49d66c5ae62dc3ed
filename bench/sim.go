package main

import (
	"fmt"
	"math"
	"time"

	"hipress/internal/compress"
	"hipress/internal/core"
	"hipress/internal/engine"
	"hipress/internal/gpu"
	"hipress/internal/models"
	"hipress/internal/netsim"
	"hipress/internal/telemetry"
)

// The timing-plane workload: the six Fig. 7/8 panels at 128 GPUs (16 EC2
// nodes), every system of each panel through engine.PresetFor + engine.Run.
// One operation is one engine.Run; a whole pass over the panels is timed as
// one sample, because the 24 runs of a pass differ by two orders of
// magnitude and a median over single runs would sit in a gap between them.

type panel struct {
	model, algo string
	presets     []string
}

// paperPanels are the panels of Figs. 7 and 8 with the systems each compares.
var paperPanels = []panel{
	{"vgg19", "onebit", []string{"byteps", "ring", "byteps-oss", "hipress-ps", "hipress-ring"}},
	{"resnet50", "dgc", []string{"byteps", "ring", "ring-oss", "hipress-ring"}},
	{"ugatit", "terngrad", []string{"byteps", "ring", "hipress-ps"}},
	{"bert-large", "onebit", []string{"byteps", "ring", "byteps-oss", "hipress-ps", "hipress-ring"}},
	{"transformer", "dgc", []string{"byteps", "ring", "ring-oss", "hipress-ring"}},
	{"lstm", "terngrad", []string{"byteps", "ring", "hipress-ps"}},
}

const simNodes = 16

// simJob is one engine.Run of a pass.
type simJob struct {
	panel    int
	baseline bool // a non-compression baseline (byteps, ring)
	hipress  bool
	model    *models.Model
	cfg      engine.Config
}

type simInst struct {
	cl      engine.Cluster
	panels  []panel
	jobs    []simJob
	first   []engine.Result // the first pass's results; every later pass must equal them
	wrong   []string
	tracer  *telemetry.Tracer
	spans   int
	corrupt bool
}

func simConfig(preset string, p panel, cl engine.Cluster, tel *telemetry.Set) (engine.Config, error) {
	algo := p.algo
	if preset == "byteps" || preset == "ring" {
		algo = ""
	}
	cfg, err := engine.PresetFor(preset, algo, cl, nil)
	cfg.Telemetry = tel
	return cfg, err
}

func newSimInst(o options, tel *telemetry.Set) (*simInst, error) {
	s := &simInst{cl: engine.EC2Cluster(simNodes), tracer: tel.T(), corrupt: o.corrupt}
	s.panels = paperPanels[pick(o.smoke, 0, 5):] // smoke keeps lstm only: ten gradients, the cheapest panel
	for pi, p := range s.panels {
		m, err := models.ByName(p.model)
		if err != nil {
			return nil, err
		}
		for _, preset := range p.presets {
			cfg, err := simConfig(preset, p, s.cl, tel)
			if err != nil {
				return nil, err
			}
			s.jobs = append(s.jobs, simJob{panel: pi, model: m, cfg: cfg,
				baseline: preset == "byteps" || preset == "ring",
				hipress:  preset == "hipress-ps" || preset == "hipress-ring"})
		}
	}
	if _, err := s.op(0); err != nil { // warm-up pass, also the reference results
		return nil, err
	}
	return s, nil
}

func (s *simInst) op(i int) (int, error) {
	for j, job := range s.jobs {
		r, err := engine.Run(s.cl, job.model, job.cfg)
		if err != nil {
			return len(s.jobs), fmt.Errorf("%s on %s: %w", job.cfg.System, job.model.Name, err)
		}
		if len(s.first) < len(s.jobs) {
			s.first = append(s.first, r)
			continue
		}
		if s.corrupt && i == 1 && j == 0 {
			r.IterSec = math.Nextafter(r.IterSec, 1)
		}
		if f := s.first[j]; r.IterSec != f.IterSec || r.Throughput != f.Throughput || r.ScalingEff != f.ScalingEff {
			s.wrong = append(s.wrong, fmt.Sprintf("pass %d: %s on %s gave iteration time %v, the first pass %v: the timing plane is not deterministic",
				i, job.cfg.System, job.model.Name, r.IterSec, f.IterSec))
		}
	}
	if s.tracer != nil {
		s.spans += s.tracer.Len()
		s.tracer.Reset()
	}
	return len(s.jobs), nil
}

func (s *simInst) close() error { return nil }

// speedups returns, per panel, HiPress's best throughput over the best
// non-compression baseline's.
func (s *simInst) speedups() []float64 {
	n := s.jobs[len(s.jobs)-1].panel + 1
	base, hi := make([]float64, n), make([]float64, n)
	for j, job := range s.jobs {
		t := s.first[j].Throughput
		if job.baseline {
			base[job.panel] = max(base[job.panel], t)
		}
		if job.hipress {
			hi[job.panel] = max(hi[job.panel], t)
		}
	}
	for i := range hi {
		hi[i] /= base[i]
	}
	return hi
}

func runSim(o options, rep *report) error {
	inst, setupS, err := setUp(func() (*simInst, error) { return newSimInst(o, nil) }, o.smoke)
	if err != nil {
		return err
	}
	p, ok := rep.measure(inst, 1, o.untracedSeconds(), minSamples, o.smoke)
	if !ok {
		return nil
	}
	// The paper-shape gate: HiPress beats both plain baselines on every
	// panel, and every pass reproduced the first bit for bit.
	sp := inst.speedups()
	minSp, logSum := math.Inf(1), 0.0
	for i, x := range sp {
		if !(x > 1) {
			inst.wrong = append(inst.wrong, fmt.Sprintf("panel %s: HiPress is %.3fx the best plain baseline, want above 1", inst.panels[i].model, x))
		}
		minSp = min(minSp, x)
		logSum += math.Log(x)
	}
	for _, w := range inst.wrong {
		rep.wrong("%s", w)
	}
	geo := math.Exp(logSum / float64(len(sp)))
	rep.notef("# %d engine.Run calls in %.2f s (%d passes), paper speedup min %.4f geomean %.4f", p.ops, p.wall, len(p.samples), minSp, geo)
	if !o.trace {
		endToEndMetrics(rep, p, setupS)
		return nil
	}
	m := rep.Metrics
	m.set("engine.paper_speedup_min", minSp)
	m.set("engine.paper_speedup_geomean", geo)
	return simLayers(o, p, rep)
}

// simLayers makes the traced passes and measures the timing plane's layers
// alone: the DAG executor, the planner, and single engine.Run calls.
func simLayers(o options, untraced phase, rep *report) error {
	tel := telemetry.New()
	traced, err := newSimInst(o, tel)
	if err != nil {
		return err
	}
	traced.spans = 0
	tp, ok := rep.measure(traced, 1, o.seconds/2, minTraced, o.smoke)
	if !ok {
		return nil
	}
	for _, w := range traced.wrong {
		rep.wrong("traced run: %s", w)
	}
	m := rep.Metrics
	commonLayerMetrics(m, untraced, tp, traced.spans)
	rep.notef("# untraced %d runs, traced %d runs, %d spans", untraced.ops, tp.ops, traced.spans)

	// Single runs of the HiPress-PS preset: a model with 38 gradients and one
	// with 399 (smoke runs take the ten-gradient LSTM for both).
	cl := engine.EC2Cluster(simNodes)
	reps := pick(o.smoke, 5, 1)
	cfg, err := engine.PresetFor("hipress-ps", "onebit", cl, nil)
	if err != nil {
		return err
	}
	timeRun := func(model string) (callCost, engine.Result, error) {
		var res engine.Result
		mod, err := models.ByName(model)
		if err != nil {
			return callCost{}, res, err
		}
		c, err := timeCalls(10, o.smoke, func() (err error) {
			res, err = engine.Run(cl, mod, cfg)
			return err
		})
		return c, res, err
	}
	smallModel, largeModel := "vgg19", "bert-large"
	if o.smoke {
		smallModel, largeModel = "lstm", "lstm"
	}
	small, _, err := timeRun(smallModel)
	if err != nil {
		return err
	}
	large, res, err := timeRun(largeModel)
	if err != nil {
		return err
	}
	m.set("engine.run_ms_vgg19", small.ns/1e6)
	m.set("engine.run_ms_bert_large", large.ns/1e6)
	m.set("engine.allocs_per_run_bert_large", large.allocs)
	m.set("engine.scaling_eff_bert_large", res.ScalingEff)

	// The DAG executor alone: Bert-large's gradient list as a compressed PS
	// graph on 16 nodes, walked on virtual time.
	mod, err := models.ByName("bert-large")
	if err != nil {
		return err
	}
	comp, err := compress.New("onebit", nil)
	if err != nil {
		return err
	}
	dev, fabric := gpu.NewDevice(gpu.V100), netsim.EC2100G()
	topo := core.PSBipartite(simNodes)
	grads := mod.Gradients()
	if o.smoke {
		grads = grads[:8]
	}
	var rate []float64
	for r := 0; r < reps; r++ {
		g := core.NewGraph()
		for _, gr := range grads {
			spec := core.GradSync{Name: gr.Name, Elems: gr.Elems, Parts: 2, Algo: "onebit",
				WireBytes: func(e int) int64 { return int64(comp.CompressedSize(e)) }}
			if _, err := core.BuildPS(g, topo, spec); err != nil {
				return err
			}
		}
		x, err := core.NewSimExecutor(simNodes, core.SimConfig{CompDev: dev, Fabric: fabric,
			Pipeline: true, BulkComm: true, BulkComp: true, FuseDecMerge: true})
		if err != nil {
			return err
		}
		t0 := time.Now()
		x.Run(g)
		rate = append(rate, float64(len(g.Tasks))/time.Since(t0).Seconds())
	}
	m.set("core.simexec_tasks_per_s", median(rate))

	// One SeCoPa decision, with the cost curves engine.Run gives the planner.
	enc, dec := gpu.ProfileEncode(dev, "onebit"), gpu.ProfileDecode(dev, "onebit")
	pl := &core.Planner{Strategy: core.StrategyPS, N: simNodes, CoLocated: true,
		Enc:     core.Curve{Fixed: enc.Fixed, PerByte: enc.PerByte},
		Dec:     core.Curve{Fixed: dec.Fixed, PerByte: dec.PerByte},
		Send:    core.Curve{Fixed: fabric.Latency, PerByte: 1 / fabric.Bandwidth},
		RatioOf: func(b int64) float64 { return compress.Ratio(comp, max(int(b/4), 1)) }}
	m.set("core.planner_plan_ns", timeInfallible(20000, o.smoke, func() { pl.Plan(4 << 20) }))
	return nil
}
