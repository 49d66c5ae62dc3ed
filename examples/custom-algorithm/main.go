// custom-algorithm shows CompLL's full workflow on a user-authored
// compressor: write a new algorithm in the DSL (here signSGD with a
// mean-magnitude scale), compile it, register it — zero integration code —
// and immediately (a) compress real data with it, (b) train with it on the
// live plane, and (c) plan and simulate a 128-GPU cluster run with it.
package main

import (
	"fmt"
	"log"

	"hipress"
)

const signSGD = `
// signSGD (Bernstein et al. 2018) with a mean-|g| reconstruction scale:
// one bit per element plus one float of metadata. A max-|g| scale would
// overshoot every element to the largest magnitude and diverge.
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

func main() {
	alg, err := hipress.CompileAlgorithm("signsgd", signSGD)
	if err != nil {
		log.Fatal(err)
	}
	hipress.RegisterAlgorithm(alg, "signsgd", nil)
	fmt.Println("compiled and registered 'signsgd' — no integration code needed")

	// (a) Real compression.
	c, err := hipress.NewCompressor("signsgd", nil)
	if err != nil {
		log.Fatal(err)
	}
	g := []float32{0.7, -1.5, 0.2, -0.1, 3.0}
	payload, _ := hipress.Encode(c, g)
	dec, _ := hipress.Decode(c, payload, len(g))
	fmt.Printf("input:   %v\npayload: %d bytes\ndecoded: %v\n\n", g, len(payload), dec)

	// (b) Live compressed training.
	curve, _, err := hipress.TrainLinear(hipress.NewLinearTask(16, 0.05, 5), hipress.TrainConfig{
		Workers: 4, Strategy: hipress.StrategyPS,
		Algo: "signsgd", ErrorFeedback: true,
		LR: 0.05, Batch: 16, Iters: 150, Seed: 3, EvalEvery: 30,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("live training with signsgd (loss every 30 iters):")
	for i := range curve.Iters {
		fmt.Printf("  iter %3d  loss %.5f\n", curve.Iters[i], curve.Losses[i])
	}

	// (c) Cluster-scale simulation with the new algorithm.
	cluster := hipress.EC2Cluster(16)
	model, _ := hipress.Model("vgg19")
	cfg, err := hipress.Preset("hipress-ps", "signsgd", cluster, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := hipress.Run(cluster, model, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n128-GPU simulation with signsgd: %.0f images/s (scaling efficiency %.2f)\n",
		res.Throughput, res.ScalingEff)

	// Bonus: emit the generated Go for inspection.
	src, err := hipress.GenerateGo(alg, "gen")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompllc would generate %d lines of Go for this algorithm\n", countLines(src))
}

func countLines(s string) int {
	n := 1
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			n++
		}
	}
	return n
}
