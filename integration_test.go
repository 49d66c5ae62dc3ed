package hipress_test

import (
	"strings"
	"testing"

	"hipress"
)

// TestEndToEndPipeline tells the full HiPress story in one test: author a
// compression algorithm in the CompLL DSL, register it (zero integration
// code), train a real model with it over real TCP sockets with error
// feedback, and then size a 128-GPU cluster for it on the timing plane —
// the complete workflow the paper's abstract promises.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline is slow")
	}
	// 1. Author: top-k sparsification with a squared-magnitude score,
	// deliberately not one of the bundled five.
	const src = `
param Params {
    float ratio;
}
float thr;

uint1 keep(float x) {
    if (x * x >= thr) { return 1; }
    return 0;
}

void encode(float* gradient, uint8* compressed, Params params) {
    int32 k = floor(gradient.size * params.ratio);
    if (k < 1) { k = 1; }
    float cut = topk(gradient, k);
    thr = cut * cut;
    sparse kept = filter(gradient, keep);
    compressed = concat(kept);
}

void decode(uint8* compressed, float* gradient, Params params) {
    sparse kept = extract(compressed, 0);
    gradient = scatter(kept, gradient.size);
}`
	alg, err := hipress.CompileAlgorithm("sq-topk", src)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Integrate: one call, usable everywhere by name.
	hipress.RegisterAlgorithm(alg, "sq-topk", map[string]float64{"ratio": 0.1})

	// 3. Validate the data plane.
	c, err := hipress.NewCompressor("sq-topk", map[string]float64{"ratio": 0.3})
	if err != nil {
		t.Fatal(err)
	}
	g := []float32{5, 0.1, -4, 0.2, 3, -0.3, 2, 0.4, -1, 0.5}
	payload, err := hipress.Encode(c, g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := hipress.Decode(c, payload, len(g))
	if err != nil {
		t.Fatal(err)
	}
	if dec[0] != 5 || dec[2] != -4 || dec[1] != 0 {
		t.Fatalf("sq-topk decode = %v", dec)
	}

	// 4. Train with it for real, over real TCP sockets.
	task := hipress.NewLinearTask(20, 0.05, 99)
	curve, _, err := hipress.TrainLinear(task, hipress.TrainConfig{
		Workers: 3, Strategy: hipress.StrategyPS,
		Algo: "sq-topk", Params: map[string]float64{"ratio": 0.3},
		ErrorFeedback: true,
		LR:            0.1, Batch: 16, Iters: 120, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if curve.Final() > curve.Losses[0]/10 {
		t.Fatalf("DSL-authored algorithm failed to train: %v", curve.Losses)
	}
	lc, err := hipress.NewLiveCluster(3, hipress.LiveConfig{
		Strategy: hipress.StrategyPS, Algo: "sq-topk", Transport: "tcp",
	})
	if err != nil {
		t.Fatal(err)
	}
	grads := make([]map[string][]float32, 3)
	for v := range grads {
		grads[v] = map[string][]float32{"w": {float32(v + 1), 0, float32(-v - 1), 0}}
	}
	if _, err := lc.SyncRound(grads); err != nil {
		t.Fatalf("TCP sync with DSL algorithm: %v", err)
	}

	// 5. Size a cluster for it on the timing plane.
	cluster := hipress.EC2Cluster(16)
	model, err := hipress.ModelFromJSON(strings.NewReader(`{
		"name": "pipeline-model", "batch_per_gpu": 32,
		"v100_iter_sec": 0.25,
		"total_mb": 600, "max_gradient_mb": 150, "num_gradients": 80}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := hipress.Preset("hipress-ps", "sq-topk", cluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hipress.Run(cluster, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseCfg, _ := hipress.Preset("byteps", "", cluster, nil)
	base, err := hipress.Run(cluster, model, baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= base.Throughput {
		t.Fatalf("DSL-authored compression (%.0f) did not beat the baseline (%.0f)",
			res.Throughput, base.Throughput)
	}
	if len(res.Plans) == 0 {
		t.Fatal("no SeCoPa plans for the custom algorithm")
	}
}
