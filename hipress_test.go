package hipress

import (
	"strings"
	"sync"
	"testing"
)

// The facade tests exercise the public API end to end, the way a downstream
// user would.

func TestQuickstartFlow(t *testing.T) {
	cluster := EC2Cluster(4)
	model, err := Model("bert-large")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Preset("hipress-ps", "onebit", cluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cluster, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.ScalingEff <= 0 {
		t.Fatalf("quickstart produced %+v", res)
	}
}

func TestModelZooAccess(t *testing.T) {
	if len(ModelNames()) != 8 {
		t.Fatalf("zoo = %v", ModelNames())
	}
	if _, err := Model("vgg19"); err != nil {
		t.Fatal(err)
	}
	if _, err := Model("gpt5"); err == nil {
		t.Fatalf("unknown model accepted")
	}
}

func TestCompressorRoundTripThroughFacade(t *testing.T) {
	for _, name := range []string{"onebit", "dgc", "cll-terngrad"} {
		c, err := NewCompressor(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		g := make([]float32, 256)
		for i := range g {
			g[i] = float32(i%13) - 6
		}
		payload, err := Encode(c, g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec, err := Decode(c, payload, len(g))
		if err != nil || len(dec) != len(g) {
			t.Fatalf("%s: decode %d, %v", name, len(dec), err)
		}
	}
	found := false
	for _, n := range CompressorNames() {
		if n == "cll-dgc" {
			found = true
		}
	}
	if !found {
		t.Fatalf("DSL compressors not registered: %v", CompressorNames())
	}
}

// registerSignSGD registers the custom algorithm once per test binary: the
// compressor registry refuses a duplicate name, and -count=N reruns the test.
var registerSignSGD sync.Once

func TestRegisterCustomDSLAlgorithm(t *testing.T) {
	// A user-authored "sign-only" algorithm: the custom-algorithm example's
	// flow, compiled and registered through the facade.
	src := `
float scale;
uint1 sgn(float x) {
    if (x >= 0) { return 1; }
    return 0;
}
float back(uint1 b) {
    if (b > 0) { return scale; }
    return -scale;
}
void encode(float* gradient, uint8* compressed) {
    scale = reduce(map(gradient, absf), sum) / gradient.size;
    uint1* bits = map(gradient, sgn);
    compressed = concat(scale, bits);
}
void decode(uint8* compressed, float* gradient) {
    scale = extract(compressed, 0);
    uint1* bits = extract(compressed, 1);
    gradient = map(bits, back);
}`
	alg, err := CompileAlgorithm("signsgd", src)
	if err != nil {
		t.Fatal(err)
	}
	registerSignSGD.Do(func() { RegisterAlgorithm(alg, "test-signsgd", nil) })
	c, err := NewCompressor("test-signsgd", nil)
	if err != nil {
		t.Fatal(err)
	}
	g := []float32{2, -3, 0.5, -0.5}
	payload, err := Encode(c, g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(c, payload, 4)
	if err != nil {
		t.Fatal(err)
	}
	// mean |g| = 1.5
	want := []float32{1.5, -1.5, 1.5, -1.5}
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("signsgd decode = %v, want %v", dec, want)
		}
	}
	// And it should be usable by the engine directly.
	cluster := EC2Cluster(4)
	model, _ := Model("vgg19")
	cfg, err := Preset("hipress-ps", "test-signsgd", cluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cluster, model, cfg); err != nil {
		t.Fatalf("engine could not use registered DSL algorithm: %v", err)
	}
}

func TestGenerateGoThroughFacade(t *testing.T) {
	alg, err := CompileAlgorithm("tiny", `
void encode(float* gradient, uint8* compressed) {
    compressed = concat(gradient);
}
void decode(uint8* compressed, float* gradient) {
    float* v = extract(compressed, 0);
    gradient = v;
}`)
	if err != nil {
		t.Fatal(err)
	}
	src, err := GenerateGo(alg, "gen")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "func (p *ProgTiny) Encode(") {
		t.Fatalf("generated code missing Encode method:\n%s", src)
	}
}

func TestLiveTrainingThroughFacade(t *testing.T) {
	task := NewLinearTask(10, 0.05, 3)
	curve, _, err := TrainLinear(task, TrainConfig{
		Workers: 3, Strategy: StrategyPS,
		Algo: "terngrad", Params: map[string]float64{"bitwidth": 8},
		LR: 0.1, Batch: 8, Iters: 60, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if curve.Final() >= curve.Losses[0] {
		t.Fatalf("training diverged: %v", curve.Losses)
	}
}

func TestExperimentDispatch(t *testing.T) {
	ids := Experiments()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments", len(ids))
	}
	tab, err := RunExperiment("table3", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "alpha") {
		t.Fatalf("table3 output malformed:\n%s", tab)
	}
	if _, err := RunExperiment("fig99", 1); err == nil {
		t.Fatalf("unknown experiment accepted")
	}
}

func TestLiveClusterThroughFacade(t *testing.T) {
	lc, err := NewLiveCluster(3, LiveConfig{Strategy: StrategyRing})
	if err != nil {
		t.Fatal(err)
	}
	grads := make([]map[string][]float32, 3)
	for v := range grads {
		grads[v] = map[string][]float32{"w": {float32(v + 1), float32(v + 1)}}
	}
	out, err := lc.SyncRound(grads)
	if err != nil {
		t.Fatal(err)
	}
	if out[0]["w"][0] != 6 {
		t.Fatalf("sum = %v, want 6", out[0]["w"][0])
	}
}
