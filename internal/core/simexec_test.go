package core

import (
	"fmt"
	"math"
	"testing"

	"hipress/internal/compress"
	"hipress/internal/gpu"
	"hipress/internal/netsim"
)

func testCfg(pipeline bool) SimConfig {
	return SimConfig{
		CompDev:  gpu.NewDevice(gpu.V100),
		Fabric:   netsim.EC2100G(),
		Pipeline: pipeline,
	}
}

func runRingSim(t *testing.T, n, elems, parts int, algo string, cfg SimConfig) SimResult {
	t.Helper()
	g := NewGraph()
	spec := GradSync{Name: "g", Elems: elems, Parts: parts, Algo: algo}
	if algo != "" {
		c, err := compress.New(algo, nil)
		if err != nil {
			t.Fatal(err)
		}
		spec.WireBytes = func(e int) int64 { return int64(c.CompressedSize(e)) }
	}
	if _, err := BuildRing(g, Ring(n), spec); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	x, err := NewSimExecutor(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return x.Run(g)
}

// TestRingMakespanMatchesAnalyticUncompressed: without compression and
// without batching, a single-partition N-node ring sync of m bytes takes
// 2(N−1) serial hops of SendTime(m).
func TestRingMakespanMatchesAnalyticUncompressed(t *testing.T) {
	n, elems := 4, 1<<20
	res := runRingSim(t, n, elems, 1, "", testCfg(true))
	fab := netsim.EC2100G()
	dev := gpu.NewDevice(gpu.V100)
	// Eq. 1 counts the 2(N−1) serial transfers; the executor additionally
	// charges the N−1 aggregation merges the paper's model omits.
	want := float64(2*(n-1))*fab.SendTime(int64(4*elems)) +
		float64(n-1)*dev.MergeTime(int64(4*elems))
	if math.Abs(res.Makespan-want) > want*0.01 {
		t.Fatalf("ring makespan = %v, analytic %v", res.Makespan, want)
	}
}

// TestCompressionHelpsLargeGradientOnSlowNetwork: with a big gradient on
// 10 Gbps, onebit compression must beat the uncompressed ring.
func TestCompressionHelpsLargeGradientOnSlowNetwork(t *testing.T) {
	cfg := testCfg(true)
	cfg.Fabric = netsim.Eth10G()
	elems := 32 << 20 // 128 MB
	plain := runRingSim(t, 4, elems, 1, "", cfg)
	comp := runRingSim(t, 4, elems, 1, "onebit", cfg)
	if comp.Makespan >= plain.Makespan {
		t.Fatalf("onebit (%.4fs) not faster than raw (%.4fs) on 10Gbps", comp.Makespan, plain.Makespan)
	}
	if ratio := plain.Makespan / comp.Makespan; ratio < 3 {
		t.Fatalf("compression speedup only %.2f× on 10Gbps for 128MB", ratio)
	}
}

// TestCompressionHurtsTinyGradient: the over-compression penalty (§3.3) —
// kernel launches dominate for small gradients.
func TestCompressionHurtsTinyGradient(t *testing.T) {
	cfg := testCfg(true)
	elems := 1 << 10 // 4 KB
	plain := runRingSim(t, 8, elems, 1, "", cfg)
	comp := runRingSim(t, 8, elems, 1, "onebit", cfg)
	if comp.Makespan <= plain.Makespan {
		t.Fatalf("compressing a 4KB gradient should not pay: comp %.6fs vs plain %.6fs",
			comp.Makespan, plain.Makespan)
	}
}

// TestPipeliningHelps: partitioned compressed sync overlaps encode with
// transfer only when Pipeline is on.
func TestPipeliningHelps(t *testing.T) {
	elems := 16 << 20
	withPipe := runRingSim(t, 4, elems, 4, "onebit", testCfg(true))
	without := runRingSim(t, 4, elems, 4, "onebit", testCfg(false))
	if withPipe.Makespan >= without.Makespan {
		t.Fatalf("pipelining did not help: with %.4fs, without %.4fs",
			withPipe.Makespan, without.Makespan)
	}
}

// TestPartitioningHelpsCompressedSync: K=8 partitions pipeline encode and
// transfer across the ring vs K=1.
func TestPartitioningHelpsCompressedSync(t *testing.T) {
	elems := 64 << 20
	k1 := runRingSim(t, 4, elems, 1, "onebit", testCfg(true))
	k8 := runRingSim(t, 4, elems, 8, "onebit", testCfg(true))
	if k8.Makespan >= k1.Makespan {
		t.Fatalf("partitioning did not help: K=8 %.4fs vs K=1 %.4fs", k8.Makespan, k1.Makespan)
	}
}

// TestOSSKernelsSlower: the same DAG with oss-dgc kernels must be slower
// than with CompLL dgc kernels.
func TestOSSKernelsSlower(t *testing.T) {
	elems := 16 << 20
	opt := runRingSim(t, 4, elems, 1, "dgc", testCfg(true))
	oss := runRingSim(t, 4, elems, 1, "oss-dgc", testCfg(true))
	if oss.Makespan <= opt.Makespan {
		t.Fatalf("OSS kernels not slower: oss %.4fs vs compll %.4fs", oss.Makespan, opt.Makespan)
	}
}

// TestOnCPUCompressionWorse: PCIe crossing + CPU kernel speeds make on-CPU
// compression slower than on-GPU (the §2.5 observation).
func TestOnCPUCompressionWorse(t *testing.T) {
	elems := 16 << 20
	gpuCfg := testCfg(true)
	cpuCfg := testCfg(true)
	cpuCfg.CompDev = gpu.NewDevice(gpu.CPUXeon)
	cpuCfg.PCIeCross = true
	onGPU := runRingSim(t, 4, elems, 1, "onebit", gpuCfg)
	onCPU := runRingSim(t, 4, elems, 1, "onebit", cpuCfg)
	if onCPU.Makespan <= onGPU.Makespan*2 {
		t.Fatalf("on-CPU compression should be far slower: cpu %.4fs vs gpu %.4fs",
			onCPU.Makespan, onGPU.Makespan)
	}
}

// TestExtraCopiesCost: BytePS-style extra memcopies slow the sync down.
func TestExtraCopiesCost(t *testing.T) {
	elems := 16 << 20
	clean := testCfg(true)
	dirty := testCfg(true)
	dirty.ExtraCopies = true
	a := runRingSim(t, 4, elems, 1, "onebit", clean)
	b := runRingSim(t, 4, elems, 1, "onebit", dirty)
	if b.Makespan <= a.Makespan {
		t.Fatalf("extra copies free: %.4fs vs %.4fs", b.Makespan, a.Makespan)
	}
}

// TestBulkCommAmortizesManySmallGradients: synchronizing many small
// gradients over PS is faster with coordinated batching.
func TestBulkCommAmortizesManySmallGradients(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		topo := PSBipartite(4)
		for i := 0; i < 64; i++ {
			spec := GradSync{Name: "g" + string(rune('a'+i%26)) + string(rune('0'+i/26)), Elems: 4 << 10, Parts: 1}
			if _, err := BuildPS(g, topo, spec); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	cfgPlain := testCfg(true)
	xPlain, _ := NewSimExecutor(4, cfgPlain)
	plain := xPlain.Run(build())

	cfgBulk := testCfg(true)
	cfgBulk.BulkComm = true
	cfgBulk.BatchWindow = 200e-6
	xBulk, _ := NewSimExecutor(4, cfgBulk)
	bulk := xBulk.Run(build())

	if bulk.Makespan >= plain.Makespan {
		t.Fatalf("bulk communication did not amortize latency: bulk %.6fs vs plain %.6fs",
			bulk.Makespan, plain.Makespan)
	}
}

// TestBulkCompAmortizesLaunches: batch compression reduces makespan when a
// node encodes many small gradients back to back.
func TestBulkCompAmortizesLaunches(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		topo := Ring(2)
		for i := 0; i < 64; i++ {
			spec := GradSync{
				Name:  "g" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
				Elems: 2 << 10, Parts: 1, Algo: "onebit",
				WireBytes: func(e int) int64 { return int64(e/8 + 16) },
			}
			if _, err := BuildRing(g, topo, spec); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	plainCfg := testCfg(true)
	x1, _ := NewSimExecutor(2, plainCfg)
	plain := x1.Run(build())

	bulkCfg := testCfg(true)
	bulkCfg.BulkComp = true
	x2, _ := NewSimExecutor(2, bulkCfg)
	bulk := x2.Run(build())

	if bulk.Makespan >= plain.Makespan {
		t.Fatalf("batch compression did not help: %.6fs vs %.6fs", bulk.Makespan, plain.Makespan)
	}
}

// TestComputeTasksOccupyDNNStream: KCompute durations are honored and
// tracked per node.
func TestComputeTasksOccupyDNNStream(t *testing.T) {
	g := NewGraph()
	compute := make([]int, 2)
	for v := range compute {
		compute[v] = g.Add(&Task{Kind: KCompute, Node: v, Dur: 0.5, Grad: "bwd"})
	}
	if _, err := BuildRing(g, Ring(2), GradSync{Name: "g", Elems: 1 << 20, RootDeps: compute}); err != nil {
		t.Fatal(err)
	}
	x, _ := NewSimExecutor(2, testCfg(true))
	res := x.Run(g)
	if res.Makespan <= 0.5 {
		t.Fatalf("makespan %v does not include compute", res.Makespan)
	}
	for v := 0; v < 2; v++ {
		if math.Abs(res.DNNBusy[v]-0.5) > 1e-9 {
			t.Fatalf("node %d DNN busy %v, want 0.5", v, res.DNNBusy[v])
		}
		if got := res.DNNSpans[v].BusyWithin(0, res.Makespan); math.Abs(got-0.5) > 1e-9 {
			t.Fatalf("node %d tracked spans %v", v, got)
		}
	}
}

// TestFinishTimesRespectDependencies: every task finishes no earlier than
// each of its prerequisites.
func TestFinishTimesRespectDependencies(t *testing.T) {
	g := NewGraph()
	spec := GradSync{Name: "g", Elems: 1 << 18, Parts: 3, Algo: "terngrad",
		WireBytes: func(e int) int64 { return int64(e/4 + 20) }}
	if _, err := BuildRing(g, Ring(5), spec); err != nil {
		t.Fatal(err)
	}
	// Capture the dependency structure before Run consumes the counters.
	type edge struct{ before, after int }
	var edges []edge
	for i := range g.Tasks {
		for _, o := range g.Outs(i) {
			edges = append(edges, edge{i, o})
		}
	}
	x, _ := NewSimExecutor(5, testCfg(true))
	res := x.Run(g)
	for _, e := range edges {
		if res.Finish[e.after] < res.Finish[e.before]-1e-12 {
			t.Fatalf("task %d finished at %v before its dep %d at %v",
				e.after, res.Finish[e.after], e.before, res.Finish[e.before])
		}
	}
}

// TestSelfSendIsFree: PS with co-located server merges its own partition
// without network time; a 2-node PS sync must charge exactly 2 transfers.
func TestSelfSendIsFree(t *testing.T) {
	g := NewGraph()
	if _, err := BuildPS(g, PSBipartite(2), GradSync{Name: "g", Elems: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	x, _ := NewSimExecutor(2, testCfg(true))
	res := x.Run(g)
	fab := netsim.EC2100G()
	want := 2 * fab.SendTime(4<<20) // push + pull, serialized through server
	if math.Abs(res.Makespan-want) > want*0.05 {
		t.Fatalf("2-node PS makespan %v, want ~%v", res.Makespan, want)
	}
}

func TestNewSimExecutorValidation(t *testing.T) {
	if _, err := NewSimExecutor(0, testCfg(true)); err == nil {
		t.Fatalf("accepted 0 nodes")
	}
	if _, err := NewSimExecutor(2, SimConfig{}); err == nil {
		t.Fatalf("accepted empty config")
	}
}

// TestScalingShapeRing: uncompressed ring makespan grows with N for fixed
// per-node data (more serial hops).
func TestScalingShapeRing(t *testing.T) {
	prev := 0.0
	for _, n := range []int{2, 4, 8, 16} {
		res := runRingSim(t, n, 4<<20, 1, "", testCfg(true))
		if res.Makespan <= prev {
			t.Fatalf("ring makespan did not grow at n=%d: %v <= %v", n, res.Makespan, prev)
		}
		prev = res.Makespan
	}
}

// TestSimDeterminism: identical graphs simulate to bit-identical makespans
// (map-order effects anywhere in the executor would break this).
func TestSimDeterminism(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		topo := PSBipartite(6)
		for i := 0; i < 40; i++ {
			spec := GradSync{
				Name:  fmt.Sprintf("g%02d", i),
				Elems: 4096 + i*997, Parts: 1 + i%3, Algo: "onebit",
				WireBytes: func(e int) int64 { return int64(e/8 + 16) },
				Shard:     i,
			}
			if _, err := BuildPS(g, topo, spec); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	cfg := testCfg(true)
	cfg.BulkComm = true
	cfg.BulkComp = true
	var first float64
	for trial := 0; trial < 5; trial++ {
		x, err := NewSimExecutor(6, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := x.Run(build())
		if trial == 0 {
			first = res.Makespan
			continue
		}
		if res.Makespan != first {
			t.Fatalf("trial %d: makespan %v != %v (nondeterministic simulation)", trial, res.Makespan, first)
		}
	}
}

// TestSimCompWorkers pins the multicore-kernel model on a one-encode graph:
// W ≤ 1 leaves the kernel's duration alone, and W workers split what lies
// beyond the serial launch + dispatch overhead W ways.
func TestSimCompWorkers(t *testing.T) {
	g := NewGraph()
	g.Add(&Task{Kind: KEncode, Node: 0, Bytes: 4 << 20, Algo: "onebit"})
	makespan := func(workers int) float64 {
		cfg := testCfg(true)
		cfg.Dispatch, cfg.CompWorkers = 20e-6, workers
		x, err := NewSimExecutor(1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return x.Run(g).Makespan
	}
	cfg := testCfg(true)
	fixed := cfg.CompDev.Launch + 20e-6
	dur := cfg.CompDev.EncodeTime("onebit", 4<<20) + 20e-6
	if dur <= fixed {
		t.Fatalf("encode %.3gs does not exceed its fixed overhead %.3gs", dur, fixed)
	}
	for _, w := range []int{0, 1} {
		if got := makespan(w); got != dur {
			t.Errorf("CompWorkers=%d: makespan %.9g, want %.9g", w, got, dur)
		}
	}
	if got, want := makespan(4), fixed+(dur-fixed)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("CompWorkers=4: makespan %.9g, want %.9g", got, want)
	}
}
