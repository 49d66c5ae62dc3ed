package core

import (
	"testing"

	"hipress/internal/compress"
	"hipress/internal/gpu"
	"hipress/internal/netsim"
)

func dedicatedGraph(t *testing.T, w, s, elems, parts int, algo string) (*Graph, []int) {
	t.Helper()
	g := NewGraph()
	topo := PSDedicated(w, s)
	spec := GradSync{Name: "g", Elems: elems, Parts: parts, Algo: algo}
	if algo != "" {
		c, err := compress.New(algo, nil)
		if err != nil {
			t.Fatal(err)
		}
		spec.WireBytes = func(e int) int64 { return int64(c.CompressedSize(e)) }
	}
	term, err := BuildPS(g, topo, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid dedicated-PS graph: %v", err)
	}
	return g, term
}

// TestDedicatedOperatorCounts: general Table 3 shape — per partition, w
// worker encodes + 1 server re-encode (β's K+1 comes from one re-encode per
// partition plus the worker's), w+w sends, w server decodes + w worker
// decodes.
func TestDedicatedOperatorCounts(t *testing.T) {
	const w, s, parts = 4, 2, 3
	g, _ := dedicatedGraph(t, w, s, 1<<16, parts, "onebit")
	st := g.Stat()
	if want := parts * (w + 1); st.Encode != want {
		t.Errorf("encodes = %d, want %d", st.Encode, want)
	}
	if want := parts * 2 * w; st.Decode != want {
		t.Errorf("decodes = %d, want %d", st.Decode, want)
	}
	if want := parts * 2 * w; st.Send != want {
		t.Errorf("sends = %d, want %d", st.Send, want)
	}
}

func TestDedicatedTerminalsCoverWorkers(t *testing.T) {
	const w, s = 3, 2
	_, term := dedicatedGraph(t, w, s, 1000, 2, "dgc")
	for v := 0; v < w; v++ {
		if term[v] < 0 {
			t.Fatalf("worker %d has no terminal", v)
		}
	}
}

// TestDedicatedCrossNodeEdges: live-plane invariant holds here too.
func TestDedicatedCrossNodeEdges(t *testing.T) {
	g, _ := dedicatedGraph(t, 3, 2, 4096, 2, "terngrad")
	for i, task := range g.Tasks {
		for _, o := range g.Outs(i) {
			dep := g.Tasks[o]
			if task.Node != dep.Node && !(task.Kind == KSend && dep.Kind == KRecv) {
				t.Fatalf("cross-node edge %v@%d -> %v@%d", task.Kind, task.Node, dep.Kind, dep.Node)
			}
		}
	}
}

// TestDedicatedVsCoLocatedTiming: with the same worker count, the dedicated
// deployment pays full network pushes from every worker (no co-location
// shortcut), so an uncompressed sync is slower than the co-located PS — the
// reason the evaluation co-locates (§6.1).
func TestDedicatedVsCoLocatedTiming(t *testing.T) {
	const workers = 4
	cfg := SimConfig{CompDev: gpu.NewDevice(gpu.V100), Fabric: netsim.EC2100G(), Pipeline: true}

	gCo := NewGraph()
	if _, err := BuildPS(gCo, PSBipartite(workers), GradSync{Name: "g", Elems: 4 << 20, Parts: workers}); err != nil {
		t.Fatal(err)
	}
	xCo, _ := NewSimExecutor(workers, cfg)
	co := xCo.Run(gCo)

	gDe := NewGraph()
	if _, err := BuildPS(gDe, PSDedicated(workers, workers), GradSync{Name: "g", Elems: 4 << 20, Parts: workers}); err != nil {
		t.Fatal(err)
	}
	xDe, _ := NewSimExecutor(2*workers, cfg)
	de := xDe.Run(gDe)

	if de.Makespan <= co.Makespan {
		t.Errorf("dedicated PS (%.5fs) should be slower than co-located (%.5fs) at equal worker count",
			de.Makespan, co.Makespan)
	}
}

// TestDedicatedSimExecution: the DAG runs to completion on the timing plane
// with compression enabled and finishes in finite, positive time.
func TestDedicatedSimExecution(t *testing.T) {
	g, _ := dedicatedGraph(t, 4, 2, 1<<20, 4, "onebit")
	x, err := NewSimExecutor(6, SimConfig{
		CompDev: gpu.NewDevice(gpu.V100), Fabric: netsim.EC2100G(),
		Pipeline: true, BulkComm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := x.Run(g)
	if res.Makespan <= 0 {
		t.Fatalf("makespan = %v", res.Makespan)
	}
	for i, f := range res.Finish {
		if f < 0 {
			t.Fatalf("task %d never finished", i)
		}
	}
}
