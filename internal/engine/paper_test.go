package engine

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"hipress/internal/models"
	"hipress/internal/sim"
)

// paperPanels are the six Fig. 7/8 panels with the systems each compares, as
// the sim-paper-128gpu benchmark workload runs them (bench/sim.go).
var paperPanels = []struct {
	model, algo string
	presets     []string
}{
	{"vgg19", "onebit", []string{"byteps", "ring", "byteps-oss", "hipress-ps", "hipress-ring"}},
	{"resnet50", "dgc", []string{"byteps", "ring", "ring-oss", "hipress-ring"}},
	{"ugatit", "terngrad", []string{"byteps", "ring", "hipress-ps"}},
	{"bert-large", "onebit", []string{"byteps", "ring", "byteps-oss", "hipress-ps", "hipress-ring"}},
	{"transformer", "dgc", []string{"byteps", "ring", "ring-oss", "hipress-ring"}},
	{"lstm", "terngrad", []string{"byteps", "ring", "hipress-ps"}},
}

// paperChaos exercises the executor's fault paths: a straggler (SlowFactor
// on every kernel), a link outage and a node outage (DeferStart on
// transfers).
const paperChaos = "slow:3x2@0.05+0.2;link:1-2@0.01+0.05;down:5@0.1+0.02"

// paperDigest is the FNV-1a digest of every paper-panel result's IterSec,
// Throughput and ScalingEff bits (see paperPanelsDigest).
//
// It pins the timing plane bit for bit: any change to the event order, the
// batcher or the executor's link scheduling that moves one simulated result
// changes it. To re-capture it — only in a change that means to move the
// paper numbers, saying why — run
//
//	go test ./internal/engine -run TestPaperPanelsBitIdentical -v
//
// and copy the digest from the failure message.
const paperDigest uint64 = 0x9ed51a29a0ff01b9

// paperPanelsDigest runs the 24 Fig. 7/8 jobs at 128 GPUs (16 EC2 nodes),
// clean and under paperChaos, and folds the results into one digest. The
// jobs cover every preset the figures use: BulkComm on and off, Pipeline
// off, OSS extra copies and host staging.
func paperPanelsDigest(t testing.TB) (digest uint64, jobs int) {
	cl := EC2Cluster(16)
	chaos, err := sim.ParseSchedule(paperChaos)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	fold := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for _, sched := range []*sim.ChaosSchedule{nil, chaos} {
		for _, p := range paperPanels {
			m, err := models.ByName(p.model)
			if err != nil {
				t.Fatal(err)
			}
			for _, preset := range p.presets {
				algo := p.algo
				if preset == "byteps" || preset == "ring" {
					algo = ""
				}
				cfg, err := PresetFor(preset, algo, cl, nil)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Chaos = sched
				r, err := Run(cl, m, cfg)
				if err != nil {
					t.Fatalf("%s on %s: %v", preset, p.model, err)
				}
				fold(r.IterSec)
				fold(r.Throughput)
				fold(r.ScalingEff)
				jobs++
			}
		}
	}
	return h.Sum64(), jobs
}

func TestPaperPanelsBitIdentical(t *testing.T) {
	got, jobs := paperPanelsDigest(t)
	if jobs != 48 {
		t.Fatalf("ran %d jobs, want 24 panels' systems × {clean, chaos} = 48", jobs)
	}
	if got != paperDigest {
		t.Fatalf("paper-panel digest %#016x, want %#016x: the timing plane's results moved", got, paperDigest)
	}
}

// bertLargePS is one timing-plane iteration of Bert-large (399 gradients)
// under HiPress-PS at 128 GPUs: graph construction, the event loop, the
// batcher and the executor's link scheduling.
func bertLargePS(tb testing.TB) func() {
	cl := EC2Cluster(16)
	m, err := models.ByName("bert-large")
	if err != nil {
		tb.Fatal(err)
	}
	cfg, err := PresetFor("hipress-ps", "onebit", cl, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if _, err := Run(cl, m, cfg); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkEngineRun(b *testing.B) {
	run := bertLargePS(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// The timing plane allocates per graph, not per task or per event: tasks
// live in chunks, out-edges in a slab, events carry an argument instead of a
// closure, the batcher reuses its queues, and a strategy builder carves its
// per-node completion sets from one slab per gradient. The bound is the
// 18,500 allocations per run measured on this configuration, plus 10 %
// (growing the completion sets by append cost 11,900 more).
func TestEngineRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts; alloc assertion only valid without it")
	}
	if allocs := testing.AllocsPerRun(2, bertLargePS(t)); allocs > 20350 {
		t.Fatalf("%.0f allocations per Bert-large engine.Run, want at most 20,350", allocs)
	}
}
