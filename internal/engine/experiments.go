package engine

import (
	"fmt"
	"time"

	"hipress/internal/compll"
	"hipress/internal/compress"
	"hipress/internal/core"
	"hipress/internal/gpu"
	"hipress/internal/models"
	"hipress/internal/netsim"
	"hipress/internal/tensor"
	"hipress/internal/trainer"
)

// This file regenerates every table and figure of the paper's evaluation
// (§2 Table 1, §3 Table 3, §4 Table 5, §6 Tables 6-7 and Figures 7-13) from
// the simulation and live planes. Paper reference values are included in
// the output where the paper states them, so EXPERIMENTS.md's
// paper-vs-measured comparison regenerates mechanically.

// Experiments lists the available experiment ids in run order.
func Experiments() []string {
	return []string{
		"table1", "table3", "table5", "table6", "table7",
		"fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "fig8c",
		"fig9", "fig10", "fig11", "fig12a", "fig12b", "fig13",
		"micro", "kernels", "jitter", "strategies", "wire",
		"chaos", "plan-robustness", "trace", "recovery", "stragglers",
		"autotune", "tcpchaos",
	}
}

// RunExperiment dispatches an experiment by id. scale (0..1] shrinks
// iteration-heavy experiments for quick runs; 1.0 reproduces the full
// configuration.
func RunExperiment(id string, scale float64) (*Table, error) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	switch id {
	case "table1":
		return Table1Exp()
	case "table3":
		return Table3Exp(), nil
	case "table5":
		return Table5Exp()
	case "table6":
		return Table6Exp(), nil
	case "table7":
		return Table7Exp()
	case "fig7a":
		return ThroughputExp("fig7a", "vgg19", "onebit", []string{"byteps", "ring", "byteps-oss", "hipress-ps", "hipress-ring"})
	case "fig7b":
		return ThroughputExp("fig7b", "resnet50", "dgc", []string{"byteps", "ring", "ring-oss", "hipress-ring"})
	case "fig7c":
		return ThroughputExp("fig7c", "ugatit", "terngrad", []string{"byteps", "ring", "hipress-ps"})
	case "fig8a":
		return ThroughputExp("fig8a", "bert-large", "onebit", []string{"byteps", "ring", "byteps-oss", "hipress-ps", "hipress-ring"})
	case "fig8b":
		return ThroughputExp("fig8b", "transformer", "dgc", []string{"byteps", "ring", "ring-oss", "hipress-ring"})
	case "fig8c":
		return ThroughputExp("fig8c", "lstm", "terngrad", []string{"byteps", "ring", "hipress-ps"})
	case "fig9":
		return Fig9Exp()
	case "fig10":
		return Fig10Exp()
	case "fig11":
		return Fig11Exp()
	case "fig12a":
		return Fig12aExp()
	case "fig12b":
		return Fig12bExp()
	case "fig13":
		return Fig13Exp(scale)
	case "micro":
		return MicroExp()
	case "kernels":
		return KernelsExp(scale)
	case "jitter":
		return JitterExp()
	case "strategies":
		return StrategiesExp()
	case "wire":
		return WireExp()
	case "chaos":
		return ChaosExp("")
	case "plan-robustness":
		return PlanRobustnessExp()
	case "trace":
		return TraceExp()
	case "recovery":
		return RecoveryExp()
	case "stragglers":
		return StragglersExp(scale)
	case "autotune":
		return AutotuneExp(scale)
	case "tcpchaos":
		return TCPChaosExp()
	default:
		return nil, fmt.Errorf("engine: unknown experiment %q (have %v)", id, Experiments())
	}
}

// Table1Exp reproduces Table 1: scaling efficiency and communication ratio
// for Transformer (Ring ± DGC) and Bert-large (BytePS ± onebit) on 16 EC2
// nodes / 128 V100s.
func Table1Exp() (*Table, error) {
	cl := EC2Cluster(16)
	t := &Table{
		Title:  "Table 1: training performance, 16×8 V100, 100Gbps",
		Header: []string{"model", "system", "scaling-eff", "paper", "comm-ratio", "paper"},
	}
	rows := []struct {
		model, preset, algo  string
		paperEff, paperRatio string
	}{
		{"transformer", "ring", "", "0.47", "76.8%"},
		{"transformer", "ring-oss", "dgc", "0.61", "70.3%"},
		{"bert-large", "byteps", "", "0.71", "63.6%"},
		{"bert-large", "byteps-oss", "onebit", "0.76", "60.9%"},
	}
	for _, row := range rows {
		cfg, err := PresetFor(row.preset, row.algo, cl, nil)
		if err != nil {
			return nil, err
		}
		m, err := models.ByName(row.model)
		if err != nil {
			return nil, err
		}
		r, err := Run(cl, m, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.model, r.System,
			fmt.Sprintf("%.2f", r.ScalingEff), row.paperEff,
			fmt.Sprintf("%.1f%%", 100*r.CommRatio), row.paperRatio)
	}
	return t, nil
}

// Table3Exp prints the synchronization parameters α/β/γ (computed by the
// planner's Coeffs, which the unit tests pin to the paper).
func Table3Exp() *Table {
	t := &Table{
		Title:  "Table 3: synchronization parameters (N nodes, K partitions)",
		Header: []string{"strategy", "alpha", "beta", "gamma"},
		Notes:  []string{"co-located CaSync-PS (the §6.1 deployment) uses alpha=2(N-1), beta=K, gamma=N"},
	}
	a, b, g := core.Coeffs(core.StrategyRing, 16, 4, false)
	t.AddRow("CaSync-Ring (N=16)", fmt.Sprintf("%.0f = 2(N-1)", a), fmt.Sprintf("%.0f = N", b), fmt.Sprintf("%.0f = N", g))
	a, b, g = core.Coeffs(core.StrategyPS, 16, 4, false)
	t.AddRow("CaSync-PS (N=16,K=4)", fmt.Sprintf("%.0f = 2N", a), fmt.Sprintf("%.0f = K+1", b), fmt.Sprintf("%.0f = N+1", g))
	a, b, g = core.Coeffs(core.StrategyPS, 16, 4, true)
	t.AddRow("CaSync-PS co-located", fmt.Sprintf("%.0f", a), fmt.Sprintf("%.0f", b), fmt.Sprintf("%.0f", g))
	return t
}

// paperOSSLoC holds Table 5's open-source line counts for comparison.
var paperOSSLoC = map[string][2]int{ // logic, integration
	"onebit":   {80, 445},
	"tbq":      {100, 384},
	"terngrad": {170, 513},
	"dgc":      {1298, 1869},
	"graddrop": {-1, -1}, // N/A in the paper
}

// Table5Exp reproduces Table 5: implementation and integration cost of the
// five algorithms, measured from the actual bundled .cll programs.
func Table5Exp() (*Table, error) {
	algs, err := compll.BuiltinAlgorithms()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table 5: implementation cost, OSS vs CompLL (lines of code)",
		Header: []string{"algorithm", "oss-logic", "oss-integr", "cll-logic", "cll-udf", "#operators", "cll-integr"},
		Notes:  []string{"CompLL integration is 0 lines: bundled programs register with the compression registry automatically"},
	}
	for _, name := range []string{"onebit", "tbq", "terngrad", "dgc", "graddrop"} {
		alg := algs[name]
		if alg == nil {
			return nil, fmt.Errorf("missing builtin %s", name)
		}
		st := compll.StatsOf(alg)
		oss := paperOSSLoC[name]
		ossLogic, ossInt := fmt.Sprint(oss[0]), fmt.Sprint(oss[1])
		if oss[0] < 0 {
			ossLogic, ossInt = "N/A", "N/A"
		}
		t.AddRow(name, ossLogic, ossInt, st.LogicLines, st.UDFLines, st.CommonOperators, 0)
	}
	return t, nil
}

// Table6Exp prints the model zoo statistics (pinned to the paper by tests).
func Table6Exp() *Table {
	t := &Table{
		Title:  "Table 6: statistics of trained models",
		Header: []string{"name", "total-size", "max-gradient", "#gradients", "batch/GPU", "algo"},
	}
	for _, m := range models.Zoo() {
		t.AddRow(m.Name,
			fmt.Sprintf("%.2fMB", float64(m.TotalBytes)/(1<<20)),
			fmt.Sprintf("%.2fMB", float64(m.MaxBytes)/(1<<20)),
			m.NumGradients,
			fmt.Sprintf("%d %s", m.BatchPerGPU, m.SampleUnit),
			m.Algo)
	}
	return t
}

// Table7Exp reproduces Table 7: selective compression and partitioning plans
// of CompLL-onebit for 4MB/16MB/392MB gradients at 4 and 16 nodes under both
// strategies.
func Table7Exp() (*Table, error) {
	ob, err := compress.New("onebit", nil)
	if err != nil {
		return nil, err
	}
	dev := gpu.NewDevice(gpu.V100)
	fab := netsim.EC2100G()
	t := &Table{
		Title:  "Table 7: compression and partitioning plans, CompLL-onebit (EC2)",
		Header: []string{"gradient", "ps-4n", "ps-16n", "ring-4n", "ring-16n", "paper(ps-16n)", "paper(ring-16n)"},
		Notes:  []string{"paper tuples: 4MB <yes,1>/<no,16>; 16MB <yes,6>/<yes,5>; 392MB <yes,16>/<yes,16>"},
	}
	paperPS := map[string]string{"4MB": "<yes, 1>", "16MB": "<yes, 6>", "392MB": "<yes, 16>"}
	paperRing := map[string]string{"4MB": "<no, 16>", "16MB": "<yes, 5>", "392MB": "<yes, 16>"}
	for _, sz := range []struct {
		label string
		bytes int64
	}{{"4MB", 4 << 20}, {"16MB", 16 << 20}, {"392MB", 392 << 20}} {
		row := []string{sz.label}
		for _, strat := range []core.Strategy{core.StrategyPS, core.StrategyRing} {
			for _, n := range []int{4, 16} {
				p := newPlanner(strat, n, dev, fab, "onebit", ob)
				row = append(row, p.Plan(sz.bytes).String())
			}
		}
		// Reorder: ps-4, ps-16, ring-4, ring-16 (built in that order).
		t.AddRow(row[0], row[1], row[2], row[3], row[4], paperPS[sz.label], paperRing[sz.label])
	}
	return t, nil
}

// gpuCounts is the weak-scaling x-axis of Figs. 7 and 8 (8..128 GPUs on
// EC2). A single node synchronizes only intra-node, which the engine treats
// as the ideal-scaling anchor.
var gpuCounts = []int{8, 16, 32, 64, 128}

// ThroughputExp produces one Fig. 7/8 panel: throughput vs GPU count for the
// given systems.
func ThroughputExp(id, model, algo string, presets []string) (*Table, error) {
	m, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("%s: %s throughput (%s/sec), EC2 V100 100Gbps", id, model, m.SampleUnit),
		Header: []string{"system"},
	}
	for _, g := range gpuCounts {
		t.Header = append(t.Header, fmt.Sprintf("%dGPU", g))
	}
	for _, preset := range presets {
		a := algo
		if preset == "byteps" || preset == "ring" {
			a = ""
		}
		row := []interface{}{""}
		for _, gcount := range gpuCounts {
			nodes := gcount / 8
			if nodes < 2 {
				// Single node: ideal scaling (intra-node NVLink only).
				dev := gpu.NewDevice(gpu.V100)
				iter := m.V100IterSec * dev.ComputeScale
				row = append(row, fmt.Sprintf("%.0f", float64(gcount*m.BatchPerGPU)/iter))
				row[0] = preset
				continue
			}
			cl := EC2Cluster(nodes)
			cfg, err := PresetFor(preset, a, cl, nil)
			if err != nil {
				return nil, err
			}
			r, err := Run(cl, m, cfg)
			if err != nil {
				return nil, err
			}
			row[0] = r.System
			row = append(row, fmt.Sprintf("%.0f", r.Throughput))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig9Exp renders GPU-utilization timelines (20 buckets across one
// iteration) for Ring vs HiPress on Bert-large and UGATIT.
func Fig9Exp() (*Table, error) {
	cl := EC2Cluster(16)
	t := &Table{
		Title:  "Fig 9: DNN-compute GPU utilization over one iteration (20 buckets, node 0)",
		Header: []string{"model", "system", "timeline", "mean-util"},
		Notes:  []string{"each cell ▁▂▃▄▅▆▇█ = utilization octile; HiPress shows denser compute"},
	}
	rows := []struct{ model, preset, algo string }{
		{"bert-large", "ring", ""},
		{"bert-large", "hipress-ps", "onebit"},
		{"ugatit", "ring", ""},
		{"ugatit", "hipress-ps", "terngrad"},
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	for _, row := range rows {
		m, err := models.ByName(row.model)
		if err != nil {
			return nil, err
		}
		cfg, err := PresetFor(row.preset, row.algo, cl, nil)
		if err != nil {
			return nil, err
		}
		r, err := Run(cl, m, cfg)
		if err != nil {
			return nil, err
		}
		buckets := r.Util.Buckets(0, 20)
		var spark []rune
		for _, b := range buckets {
			idx := int(b * 7.999)
			if idx < 0 {
				idx = 0
			}
			if idx > 7 {
				idx = 7
			}
			spark = append(spark, blocks[idx])
		}
		t.AddRow(row.model, r.System, string(spark), fmt.Sprintf("%.2f", r.Util.MeanUtilization()))
	}
	return t, nil
}

// Fig10Exp reproduces the local-cluster speedups normalized to BytePS for
// VGG19 and Bert-base at 16 nodes / 32×1080Ti / 56Gbps.
func Fig10Exp() (*Table, error) {
	cl := LocalCluster(16)
	t := &Table{
		Title:  "Fig 10: local cluster speedup over BytePS (16 nodes, 32×1080Ti, 56Gbps)",
		Header: []string{"model", "system", "speedup-vs-byteps"},
		Notes:  []string{"paper: HiPress beats non-compression baselines by up to 133.1% and BytePS(OSS-onebit) by up to 53.3%; BytePS(OSS-onebit) runs 8.5% slower than Ring on Bert-base"},
	}
	for _, model := range []string{"vgg19", "bert-base"} {
		m, err := models.ByName(model)
		if err != nil {
			return nil, err
		}
		baseCfg, err := PresetFor("byteps", "", cl, nil)
		if err != nil {
			return nil, err
		}
		base, err := Run(cl, m, baseCfg)
		if err != nil {
			return nil, err
		}
		for _, preset := range []string{"byteps", "ring", "byteps-oss", "hipress-ps", "hipress-ring"} {
			algo := ""
			if preset == "byteps-oss" || preset == "hipress-ps" || preset == "hipress-ring" {
				algo = "onebit"
			}
			cfg, err := PresetFor(preset, algo, cl, nil)
			if err != nil {
				return nil, err
			}
			r, err := Run(cl, m, cfg)
			if err != nil {
				return nil, err
			}
			t.AddRow(model, r.System, fmt.Sprintf("%.2fx", r.Throughput/base.Throughput))
		}
	}
	return t, nil
}

// Fig11Exp reproduces the optimization-stacking latency breakdown on the
// local cluster: Default → on-CPU → on-GPU → +pipelining → +bulk → +SeCoPa,
// for VGG19 (CaSync-PS) and Bert-base (CaSync-Ring), onebit.
func Fig11Exp() (*Table, error) {
	cl := LocalCluster(16)
	t := &Table{
		Title:  "Fig 11: per-iteration time while stacking optimizations (16 local nodes, onebit)",
		Header: []string{"model", "config", "compute(s)", "sync-exposed(s)", "iter(s)"},
		Notes: []string{
			"paper: on-CPU adds 32.2% sync cost to VGG19; on-GPU cuts 41.2%/10.0%; pipelining cuts 7.8%/10.6%; bulk 26.1%/6.6%; SeCoPa 19.9%/7.4%",
			"final stacked configuration = the HiPress preset",
		},
	}
	type step struct {
		label  string
		mutate func(*Config)
	}
	for _, mc := range []struct {
		model string
		strat core.Strategy
	}{
		{"vgg19", core.StrategyPS},
		{"bert-base", core.StrategyRing},
	} {
		m, err := models.ByName(mc.model)
		if err != nil {
			return nil, err
		}
		baseline := Config{
			System:   "Default",
			Strategy: mc.strat,
			Pipeline: mc.strat == core.StrategyPS, // BytePS pipelines; Ring doesn't
			LocalAgg: true,
			BulkComm: mc.strat == core.StrategyRing, // Horovod fuses
		}
		if mc.strat == core.StrategyRing {
			baseline.FusionBytes = 64 << 20
			baseline.Parts = cl.Nodes
		} else {
			baseline.ExtraCopies = true
			baseline.PSChunkBytes = 4 << 20
		}
		steps := []step{
			{"Default (no compression)", func(c *Config) {}},
			// Ad-hoc compression integration: whole tensors (no
			// partitioning, no fusion, no selection), synchronous with
			// communication. The on-CPU row additionally pays CPU kernel
			// speed and PCIe crossings (§2.5: the CPU implementation runs
			// 35.6× slower than CompLL's GPU code).
			{"on-CPU onebit", func(c *Config) {
				c.Algo = "onebit"
				c.OnCPU = true
				c.Pipeline = false
				c.BulkComm = false
				c.FusionBytes = 0
				c.Parts = 1
				c.PSChunkBytes = 0
			}},
			{"on-GPU CompLL onebit", func(c *Config) {
				c.OnCPU = false
				c.FuseDecMerge = true
			}},
			// CaSync's memory-centric pipeline: compression overlaps
			// communication and BytePS's extra buffer copies disappear.
			{"+ pipelining", func(c *Config) { c.Pipeline = true; c.ExtraCopies = false }},
			{"+ bulk synchronization", func(c *Config) { c.BulkComm = true; c.BulkComp = true }},
			// Selective compression and partitioning: skip tiny gradients,
			// split the big ones.
			{"+ SeCoPa", func(c *Config) { c.SeCoPa = true }},
		}
		cfg := baseline
		for _, s := range steps {
			s.mutate(&cfg)
			cfg.System = s.label
			r, err := Run(cl, m, cfg)
			if err != nil {
				return nil, err
			}
			t.AddRow(mc.model, s.label,
				fmt.Sprintf("%.3f", r.ComputeSec),
				fmt.Sprintf("%.3f", r.SyncExposedSec),
				fmt.Sprintf("%.3f", r.IterSec))
		}
	}
	return t, nil
}

// Fig12aExp compares HiPress throughput across network bandwidths for
// Bert-base (the paper: near-identical speedups on fast and slow fabrics).
func Fig12aExp() (*Table, error) {
	t := &Table{
		Title:  "Fig 12a: HiPress-CaSync-PS(onebit) Bert-base throughput vs network bandwidth",
		Header: []string{"cluster", "fabric", "throughput", "vs-fastest"},
	}
	type env struct {
		label  string
		make   func() Cluster
		fabric *netsim.Fabric
	}
	envs := []env{
		{"EC2 16n", func() Cluster { return EC2Cluster(16) }, netsim.EC2100G()},
		{"EC2 16n", func() Cluster { return EC2Cluster(16) }, netsim.EC225G()},
		{"local 16n", func() Cluster { return LocalCluster(16) }, netsim.IB56G()},
		{"local 16n", func() Cluster { return LocalCluster(16) }, netsim.Eth10G()},
	}
	m, err := models.ByName("bert-base")
	if err != nil {
		return nil, err
	}
	var fastest float64
	var rows [][2]interface{}
	var tputs []float64
	for _, e := range envs {
		cl := e.make()
		cl.Fabric = e.fabric
		cfg, err := PresetFor("hipress-ps", "onebit", cl, nil)
		if err != nil {
			return nil, err
		}
		r, err := Run(cl, m, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, [2]interface{}{e.label, e.fabric.Name})
		tputs = append(tputs, r.Throughput)
		if r.Throughput > fastest {
			fastest = r.Throughput
		}
	}
	// Normalize within each cluster pair (EC2 pair, local pair).
	for i, row := range rows {
		ref := tputs[i-(i%2)]
		t.AddRow(row[0], row[1], fmt.Sprintf("%.0f seq/s", tputs[i]), fmt.Sprintf("%.2f", tputs[i]/ref))
	}
	t.Notes = append(t.Notes, "paper: HiPress delivers similar speedups on low-bandwidth networks (no high-end fabric required)")
	return t, nil
}

// Fig12bExp sweeps compression rates on VGG19 / CaSync-PS: TernGrad bitwidth
// 2/4/8 and DGC ratio 0.1%/1%/5%.
func Fig12bExp() (*Table, error) {
	cl := LocalCluster(16)
	m, err := models.ByName("vgg19")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 12b: VGG19 throughput vs compression rate (CaSync-PS, 16 local nodes)",
		Header: []string{"algorithm", "setting", "throughput", "drop-vs-best"},
		Notes:  []string{"paper: TernGrad 2→4/8-bit drops 12.8%/23.6%; DGC 0.1%→1%/5% drops 6.7%/11.3%"},
	}
	var best float64
	type cfgRow struct {
		algo, label string
		params      compress.Params
	}
	rows := []cfgRow{
		{"terngrad", "2-bit", compress.Params{"bitwidth": 2}},
		{"terngrad", "4-bit", compress.Params{"bitwidth": 4}},
		{"terngrad", "8-bit", compress.Params{"bitwidth": 8}},
		{"dgc", "0.1%", compress.Params{"ratio": 0.001}},
		{"dgc", "1%", compress.Params{"ratio": 0.01}},
		{"dgc", "5%", compress.Params{"ratio": 0.05}},
	}
	tputs := make([]float64, len(rows))
	for i, row := range rows {
		cfg, err := PresetFor("hipress-ps", row.algo, cl, row.params)
		if err != nil {
			return nil, err
		}
		r, err := Run(cl, m, cfg)
		if err != nil {
			return nil, err
		}
		tputs[i] = r.Throughput
		if i == 0 || i == 3 {
			best = r.Throughput
		}
		drop := 100 * (1 - r.Throughput/best)
		t.AddRow(row.algo, row.label, fmt.Sprintf("%.0f img/s", r.Throughput), fmt.Sprintf("%.1f%%", drop))
	}
	return t, nil
}

// Fig13Exp validates convergence on the live plane: exact vs compressed SGD
// reach the same loss, and the compressed run needs less simulated wall time
// because its iterations are faster (iteration times taken from the
// corresponding zoo-model simulation, LSTM↔TernGrad and ResNet50↔DGC as in
// the paper).
func Fig13Exp(scale float64) (*Table, error) {
	iters := int(300 * scale)
	if iters < 40 {
		iters = 40
	}
	t := &Table{
		Title:  "Fig 13: convergence, exact vs compressed (live plane, real compressed bytes)",
		Header: []string{"task", "sync", "final-loss", "iters-to-target", "iter-time(s)", "time-to-target(s)"},
		Notes: []string{
			"iteration times from the matching zoo model on the 16-node local cluster (lstm+terngrad, resnet50+dgc)",
			"paper: compression converges to the same quality in up to 28.6% less time",
		},
	}
	lc := LocalCluster(16)

	addTask := func(taskName, zooModel, algo string, params compress.Params, ef bool, train func(cfg trainer.Config) (*trainer.Curve, error)) error {
		m, err := models.ByName(zooModel)
		if err != nil {
			return err
		}
		// Per-iteration wall times: uncompressed Ring vs HiPress.
		ringCfg, err := PresetFor("ring", "", lc, nil)
		if err != nil {
			return err
		}
		ringRes, err := Run(lc, m, ringCfg)
		if err != nil {
			return err
		}
		hpCfg, err := PresetFor("hipress-ps", algo, lc, params)
		if err != nil {
			return err
		}
		hpRes, err := Run(lc, m, hpCfg)
		if err != nil {
			return err
		}

		exact, err := train(trainer.Config{
			Workers: 4, Strategy: core.StrategyPS,
			LR: 0.15, Batch: 16, Iters: iters, Seed: 11, EvalEvery: 10,
		})
		if err != nil {
			return err
		}
		comp, err := train(trainer.Config{
			Workers: 4, Strategy: core.StrategyPS,
			Algo: algo, Params: params, ErrorFeedback: true,
			LR: 0.15, Batch: 16, Iters: iters, Seed: 11, EvalEvery: 10,
		})
		if err != nil {
			return err
		}
		// Target: within 20% of the exact run's final loss.
		target := exact.Final()*1.2 + 1e-6
		exIter := exact.FirstIterBelow(target)
		cpIter := comp.FirstIterBelow(target)
		exTime, cpTime := float64(exIter)*ringRes.IterSec, float64(cpIter)*hpRes.IterSec
		exT, cpT := fmt.Sprintf("%.1f", exTime), fmt.Sprintf("%.1f", cpTime)
		if exIter < 0 {
			exT = "n/a"
		}
		if cpIter < 0 {
			cpT = "n/a"
		}
		t.AddRow(taskName, "exact (Ring)", fmt.Sprintf("%.4f", exact.Final()), exIter, fmt.Sprintf("%.3f", ringRes.IterSec), exT)
		t.AddRow(taskName, fmt.Sprintf("HiPress %s", algo), fmt.Sprintf("%.4f", comp.Final()), cpIter, fmt.Sprintf("%.3f", hpRes.IterSec), cpT)
		return nil
	}

	linTask := trainer.NewLinearTask(24, 0.05, 31)
	if err := addTask("linear (LSTM proxy)", "lstm", "terngrad", compress.Params{"bitwidth": 2}, true,
		func(cfg trainer.Config) (*trainer.Curve, error) {
			c, _, err := trainer.TrainLinear(linTask, cfg)
			return c, err
		}); err != nil {
		return nil, err
	}
	mlpTask := trainer.NewMLPTask(10, 16, 31)
	if err := addTask("mlp (ResNet50 proxy)", "resnet50", "dgc", compress.Params{"ratio": 0.25}, true,
		func(cfg trainer.Config) (*trainer.Curve, error) {
			return trainer.TrainMLP(mlpTask, cfg)
		}); err != nil {
		return nil, err
	}
	return t, nil
}

// MicroExp reproduces the §4.4 microbenchmarks: modeled kernel times at
// 256 MB (pinned to the paper's anchors) plus real Go wall-times of the
// optimized vs OSS implementations in this repository.
func MicroExp() (*Table, error) {
	dev := gpu.NewDevice(gpu.V100)
	t := &Table{
		Title:  "§4.4 micro: encode cost, CompLL vs OSS (256MB gradient)",
		Header: []string{"algorithm", "compll-model(ms)", "oss-model(ms)", "model-speedup", "paper", "go-speedup(8MB)"},
		Notes:  []string{"model columns are the calibrated device model; go-speedup is real wall time of this repo's Go implementations"},
	}
	paper := map[string]string{"tbq": "12x (38.2ms OSS)", "dgc": "5.1x", "onebit": "35.6x vs CPU", "terngrad": "-", "graddrop": "-"}
	const mBytes = 256 << 20
	const goElems = 2 << 20 // 8 MB real-data measurement
	g := make([]float32, goElems)
	tensor.NewRNG(3).FillNormal(g, 1)
	for _, algo := range []string{"onebit", "tbq", "terngrad", "dgc", "graddrop"} {
		opt := dev.EncodeTime(algo, mBytes)
		oss := dev.EncodeTime("oss-"+algo, mBytes)
		goRatio := "-"
		if algo == "onebit" || algo == "tbq" || algo == "dgc" {
			c1, err := compress.New(algo, nil)
			if err != nil {
				return nil, err
			}
			c2, err := compress.New("oss-"+algo, nil)
			if err != nil {
				return nil, err
			}
			t1 := timeEncode(c1, g)
			t2 := timeEncode(c2, g)
			goRatio = fmt.Sprintf("%.1fx", t2.Seconds()/t1.Seconds())
		}
		t.AddRow(algo,
			fmt.Sprintf("%.2f", opt*1000),
			fmt.Sprintf("%.2f", oss*1000),
			fmt.Sprintf("%.1fx", oss/opt),
			paper[algo], goRatio)
	}
	return t, nil
}

// StrategiesExp compares the three CaSync strategies (PS, Ring, and the
// beyond-the-paper halving-doubling) across cluster sizes — the generality
// demonstration: one architecture, three synchronization strategies, one
// cost model.
func StrategiesExp() (*Table, error) {
	t := &Table{
		Title:  "CaSync generality: three strategies, same primitives (EC2, throughput)",
		Header: []string{"model", "nodes", "casync-ps", "casync-ring", "casync-hd"},
		Notes: []string{
			"halving-doubling is not in the paper; it composes from the same five primitives",
			"HD's 2·log2(N) serial codec rounds erode its small-cluster advantage at scale",
		},
	}
	for _, model := range []string{"resnet50", "bert-base"} {
		m, err := models.ByName(model)
		if err != nil {
			return nil, err
		}
		algo := m.Algo
		for _, nodes := range []int{4, 8, 16} {
			cl := EC2Cluster(nodes)
			row := []interface{}{model, nodes}
			for _, preset := range []string{"hipress-ps", "hipress-ring", "hipress-hd"} {
				cfg, err := PresetFor(preset, algo, cl, nil)
				if err != nil {
					return nil, err
				}
				r, err := Run(cl, m, cfg)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.0f", r.Throughput))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// WireExp measures realized compression on the live plane: real payloads of
// every algorithm crossing a real 4-node synchronization, with the
// instrumented byte counters — evidence the data-volume reductions are not
// just size formulas.
func WireExp() (*Table, error) {
	t := &Table{
		Title:  "Realized wire compression (live plane, 4 nodes, 1M-element gradient)",
		Header: []string{"algorithm", "encodes", "raw-bytes", "wire-bytes", "realized-ratio", "paper-claim"},
		Notes:  []string{"onebit's 1/32 is the paper's '96.9%' reduction (§2.4)"},
	}
	claims := map[string]string{
		"onebit":   "1/32 (96.9% reduction)",
		"terngrad": "~1/16 at 2-bit",
		"dgc":      "~0.2% at 0.1% keep",
		"graddrop": "~2% at 1% keep",
		"tbq":      "data-dependent (tau=2sigma here)",
	}
	grad := make([]float32, 1<<20)
	tensor.NewRNG(77).FillNormal(grad, 1)
	for _, algo := range []string{"onebit", "terngrad", "dgc", "graddrop", "tbq"} {
		var params compress.Params
		if algo == "tbq" {
			// Strom's threshold is data-scale-relative; 2σ keeps ~4.5% of a
			// unit-gaussian gradient.
			params = compress.Params{"tau": 2.0}
		}
		lc, err := core.NewLiveCluster(4, core.LiveConfig{
			Strategy: core.StrategyPS, Algo: algo, Params: params,
		})
		if err != nil {
			return nil, err
		}
		grads := make([]map[string][]float32, 4)
		for v := range grads {
			g := make([]float32, len(grad))
			copy(g, grad)
			grads[v] = map[string][]float32{"w": g}
		}
		if _, err := lc.SyncRound(grads); err != nil {
			return nil, err
		}
		st := lc.WireStats()
		t.AddRow(algo, st.Encodes,
			fmt.Sprintf("%.1fMB", float64(st.RawBytes)/(1<<20)),
			fmt.Sprintf("%.2fMB", float64(st.WireBytes)/(1<<20)),
			fmt.Sprintf("%.4f", st.Ratio()), claims[algo])
	}
	return t, nil
}

// JitterExp runs the §3.3 future-work study the paper defers: how stable
// are SeCoPa's plans when the profiled GPU and network cost curves carry
// measurement noise, and what do mis-profiled plans cost under the true
// model?
func JitterExp() (*Table, error) {
	ob, err := compress.New("onebit", nil)
	if err != nil {
		return nil, err
	}
	dev := gpu.NewDevice(gpu.V100)
	fab := netsim.EC2100G()
	sizes := []int64{16 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 392 << 20}
	t := &Table{
		Title:  "§3.3 future work: SeCoPa plan stability under profiling noise (onebit, EC2 16n)",
		Header: []string{"strategy", "noise", "stable-plans", "flipped-compress", "changed-K", "true-cost-penalty"},
		Notes: []string{
			"the paper defers 'the impacts of dynamics on the profiling accuracy of our cost model' to future work; this implements it",
			"penalty = extra sync time of the mis-profiled plan under the noise-free cost model",
		},
	}
	for _, strat := range []core.Strategy{core.StrategyPS, core.StrategyRing} {
		p := newPlanner(strat, 16, dev, fab, "onebit", ob)
		for _, jitter := range []float64{0.05, 0.10, 0.25, 0.50} {
			rep := core.PlanRobustness(p, sizes, jitter, 40, 7)
			t.AddRow(strat.String(),
				fmt.Sprintf("±%.0f%%", 100*jitter),
				fmt.Sprintf("%.1f%%", 100*rep.StableFraction()),
				rep.FlippedCompress, rep.ChangedParts,
				fmt.Sprintf("%.2f%%", 100*rep.MeanCostPenalty))
		}
	}
	return t, nil
}

func timeEncode(c compress.Compressor, g []float32) time.Duration {
	start := time.Now()
	if _, err := compress.Encode(c, g); err != nil {
		return time.Hour
	}
	return time.Since(start)
}
