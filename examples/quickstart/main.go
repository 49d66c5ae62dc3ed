// Quickstart: simulate one data-parallel training iteration of Bert-large on
// the paper's 16-node / 128-V100 / 100 Gbps cluster, comparing the BytePS
// baseline against HiPress with CompLL-onebit compression.
package main

import (
	"fmt"
	"log"

	"hipress"
)

func main() {
	cluster := hipress.EC2Cluster(16)
	model, err := hipress.Model("bert-large")
	if err != nil {
		log.Fatal(err)
	}

	for _, system := range []struct{ preset, algo string }{
		{"byteps", ""},
		{"ring", ""},
		{"hipress-ps", "onebit"},
	} {
		cfg, err := hipress.Preset(system.preset, system.algo, cluster, nil)
		if err != nil {
			log.Fatal(err)
		}
		res, err := hipress.Run(cluster, model, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-36s %8.0f seq/s  scaling-eff %.2f  comm %4.1f%%\n",
			res.System, res.Throughput, res.ScalingEff, 100*res.CommRatio)
	}

	// Compress a real gradient through the same algorithm the simulation
	// used: the data plane is not a model, it really runs.
	c, err := hipress.NewCompressor("onebit", nil)
	if err != nil {
		log.Fatal(err)
	}
	grad := make([]float32, 1<<20)
	for i := range grad {
		grad[i] = float32(i%7) - 3
	}
	payload, err := hipress.Encode(c, grad)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nonebit: %d-element gradient -> %d bytes on the wire (%.1f%% of fp32)\n",
		len(grad), len(payload), 100*float64(len(payload))/float64(4*len(grad)))
}
