package hipress_test

// One testing.B benchmark per paper table and figure, plus the ablation and
// data-plane benches DESIGN.md calls out. The per-figure benches execute the
// experiment's representative configuration (full sweeps live in
// cmd/hipress-bench); data-plane benches measure the real Go implementations
// with -benchmem.

import (
	"fmt"
	"testing"

	"hipress"
	"hipress/internal/compress"
	"hipress/internal/core"
	"hipress/internal/engine"
	"hipress/internal/gpu"
	"hipress/internal/models"
	"hipress/internal/netsim"
	"hipress/internal/tensor"
)

// runExp executes a full experiment once per iteration.
func runExp(b *testing.B, id string, scale float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := hipress.RunExperiment(id, scale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)        { runExp(b, "table1", 1) }
func BenchmarkTable3(b *testing.B)        { runExp(b, "table3", 1) }
func BenchmarkTable5(b *testing.B)        { runExp(b, "table5", 1) }
func BenchmarkTable6(b *testing.B)        { runExp(b, "table6", 1) }
func BenchmarkTable7(b *testing.B)        { runExp(b, "table7", 1) }
func BenchmarkFig9(b *testing.B)          { runExp(b, "fig9", 1) }
func BenchmarkFig10(b *testing.B)         { runExp(b, "fig10", 1) }
func BenchmarkFig11(b *testing.B)         { runExp(b, "fig11", 1) }
func BenchmarkFig12a(b *testing.B)        { runExp(b, "fig12a", 1) }
func BenchmarkFig12b(b *testing.B)        { runExp(b, "fig12b", 1) }
func BenchmarkFig13(b *testing.B)         { runExp(b, "fig13", 0.2) }
func BenchmarkCompressMicro(b *testing.B) { runExp(b, "micro", 1) }

// BenchmarkFig7 and BenchmarkFig8 run each panel's systems at the largest
// cluster (128 GPUs), the headline point of the weak-scaling curves; the
// full sweep is `hipress-bench fig7a ...`.
func BenchmarkFig7(b *testing.B) {
	panels := []struct {
		name, model, algo string
		presets           []string
	}{
		{"a_vgg19", "vgg19", "onebit", []string{"byteps", "ring", "byteps-oss", "hipress-ps"}},
		{"b_resnet50", "resnet50", "dgc", []string{"byteps", "ring", "ring-oss", "hipress-ring"}},
		{"c_ugatit", "ugatit", "terngrad", []string{"byteps", "ring", "hipress-ps"}},
	}
	benchPanels(b, panels)
}

func BenchmarkFig8(b *testing.B) {
	panels := []struct {
		name, model, algo string
		presets           []string
	}{
		{"a_bert-large", "bert-large", "onebit", []string{"byteps", "ring", "byteps-oss", "hipress-ps"}},
		{"b_transformer", "transformer", "dgc", []string{"byteps", "ring", "ring-oss", "hipress-ring"}},
		{"c_lstm", "lstm", "terngrad", []string{"byteps", "ring", "hipress-ps"}},
	}
	benchPanels(b, panels)
}

func benchPanels(b *testing.B, panels []struct {
	name, model, algo string
	presets           []string
}) {
	for _, p := range panels {
		b.Run(p.name, func(b *testing.B) {
			cl := hipress.EC2Cluster(16)
			m, err := hipress.Model(p.model)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				var last hipress.Result
				for _, preset := range p.presets {
					algo := p.algo
					if preset == "byteps" || preset == "ring" {
						algo = ""
					}
					cfg, err := hipress.Preset(preset, algo, cl, nil)
					if err != nil {
						b.Fatal(err)
					}
					last, err = hipress.Run(cl, m, cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				if i == 0 {
					b.ReportMetric(last.Throughput, "samples/s_hipress")
				}
			}
		})
	}
}

// --- data-plane benches: the real Go compression implementations --------------

func BenchmarkCompressors(b *testing.B) {
	sizes := []int{1 << 12, 1 << 16, 1 << 20}
	algos := []string{"onebit", "tbq", "terngrad", "dgc", "graddrop", "oss-onebit", "oss-dgc"}
	for _, algo := range algos {
		for _, n := range sizes {
			b.Run(fmt.Sprintf("%s/encode/n=%d", algo, n), func(b *testing.B) {
				c, err := compress.New(algo, nil)
				if err != nil {
					b.Fatal(err)
				}
				g := make([]float32, n)
				tensor.NewRNG(uint64(n)).FillNormal(g, 1)
				dst := make([]byte, compress.MaxEncodedSize(c, n))
				b.SetBytes(int64(4 * n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.EncodeInto(dst, g); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/decode/n=%d", algo, n), func(b *testing.B) {
				c, err := compress.New(algo, nil)
				if err != nil {
					b.Fatal(err)
				}
				g := make([]float32, n)
				tensor.NewRNG(uint64(n)).FillNormal(g, 1)
				payload, err := hipress.Encode(c, g)
				if err != nil {
					b.Fatal(err)
				}
				dec := make([]float32, n)
				b.SetBytes(int64(4 * n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.DecodeInto(dec, payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDSLvsGenerated compares the three execution paths of the same
// algorithm: native Go, the CompLL interpreter, and CompLL-generated code.
func BenchmarkDSLvsGenerated(b *testing.B) {
	const n = 1 << 14
	g := make([]float32, n)
	tensor.NewRNG(1).FillNormal(g, 1)
	for _, name := range []string{"onebit", "cll-onebit"} {
		b.Run(name, func(b *testing.B) {
			c, err := compress.New(name, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hipress.Encode(c, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablation benches (DESIGN.md design-choice studies) ------------------------

// BenchmarkAblationPipeline measures the simulated iteration under
// compression-communication pipelining on and off.
func BenchmarkAblationPipeline(b *testing.B) {
	for _, pipeline := range []bool{false, true} {
		b.Run(fmt.Sprintf("pipeline=%v", pipeline), func(b *testing.B) {
			cl := engine.LocalCluster(16)
			m, _ := models.ByName("vgg19")
			cfg, err := engine.PresetFor("hipress-ps", "onebit", cl, nil)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Pipeline = pipeline
			var iter float64
			for i := 0; i < b.N; i++ {
				r, err := engine.Run(cl, m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				iter = r.IterSec
			}
			b.ReportMetric(iter*1000, "simulated_ms/iter")
		})
	}
}

// BenchmarkAblationPartitions sweeps fixed partition counts against the
// SeCoPa-chosen optimum for VGG19's largest gradient.
func BenchmarkAblationPartitions(b *testing.B) {
	dev := gpu.NewDevice(gpu.V100)
	fab := netsim.EC2100G()
	c, _ := compress.New("onebit", nil)
	for _, parts := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("K=%d", parts), func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				g := core.NewGraph()
				spec := core.GradSync{
					Name: "g", Elems: 98 << 20, Parts: parts, Algo: "onebit",
					WireBytes: func(e int) int64 { return int64(c.CompressedSize(e)) },
				}
				if _, err := core.BuildPS(g, core.PSBipartite(16), spec); err != nil {
					b.Fatal(err)
				}
				x, err := core.NewSimExecutor(16, core.SimConfig{CompDev: dev, Fabric: fab, Pipeline: true})
				if err != nil {
					b.Fatal(err)
				}
				makespan = x.Run(g).Makespan
			}
			b.ReportMetric(makespan*1000, "simulated_ms/sync")
		})
	}
}

// BenchmarkAblationBulkBatch sweeps the coordinator's batch size threshold.
func BenchmarkAblationBulkBatch(b *testing.B) {
	for _, batch := range []int64{256 << 10, 4 << 20, 32 << 20} {
		b.Run(fmt.Sprintf("threshold=%dKB", batch>>10), func(b *testing.B) {
			cl := engine.EC2Cluster(8)
			m, _ := models.ByName("bert-base")
			cfg, err := engine.PresetFor("hipress-ring", "onebit", cl, nil)
			if err != nil {
				b.Fatal(err)
			}
			cfg.BatchBytes = batch
			var iter float64
			for i := 0; i < b.N; i++ {
				r, err := engine.Run(cl, m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				iter = r.IterSec
			}
			b.ReportMetric(iter*1000, "simulated_ms/iter")
		})
	}
}

// BenchmarkLiveSync measures the live plane's real synchronization round
// (goroutines + channels + real compression).
func BenchmarkLiveSync(b *testing.B) {
	for _, algo := range []string{"", "onebit", "dgc"} {
		label := algo
		if label == "" {
			label = "exact"
		}
		b.Run(label, func(b *testing.B) {
			lc, err := core.NewLiveCluster(4, core.LiveConfig{
				Strategy: core.StrategyPS, Algo: algo, Parts: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			const n = 1 << 14
			mk := func() []map[string][]float32 {
				grads := make([]map[string][]float32, 4)
				for v := range grads {
					g := make([]float32, n)
					tensor.NewRNG(uint64(v)).FillNormal(g, 1)
					grads[v] = map[string][]float32{"w": g}
				}
				return grads
			}
			b.SetBytes(4 * n * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lc.SyncRound(mk()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSeCoPaPlanner measures the cost-model planning itself.
func BenchmarkSeCoPaPlanner(b *testing.B) {
	dev := gpu.NewDevice(gpu.V100)
	enc := gpu.ProfileEncode(dev, "onebit")
	dec := gpu.ProfileDecode(dev, "onebit")
	fab := netsim.EC2100G()
	ob, _ := compress.New("onebit", nil)
	p := &core.Planner{
		Strategy: core.StrategyPS, N: 16, CoLocated: true,
		Enc:  core.Curve{Fixed: enc.Fixed, PerByte: enc.PerByte},
		Dec:  core.Curve{Fixed: dec.Fixed, PerByte: dec.PerByte},
		Send: core.Curve{Fixed: fab.Latency, PerByte: 1 / fab.Bandwidth},
		RatioOf: func(m int64) float64 {
			return compress.Ratio(ob, int(m/4)+1)
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Plan(int64(4096 + i%(392<<20)))
	}
}
