package core

import (
	"fmt"
	"testing"
	"testing/quick"
)

func ringGraph(t *testing.T, n, elems, parts int, algo string) (*Graph, []int) {
	t.Helper()
	g := NewGraph()
	term, err := BuildRing(g, Ring(n), GradSync{Name: "g", Elems: elems, Parts: parts, Algo: algo})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid ring graph: %v", err)
	}
	return g, term
}

func psGraph(t *testing.T, n, elems, parts int, algo string) (*Graph, []int) {
	t.Helper()
	g := NewGraph()
	term, err := BuildPS(g, PSBipartite(n), GradSync{Name: "g", Elems: elems, Parts: parts, Algo: algo})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid PS graph: %v", err)
	}
	return g, term
}

// TestRingOperatorCounts checks the §3.3 analysis: a compressed ring with K
// partitions uses, per partition, N encodes (N−1 aggregation + 1
// dissemination) and 2(N−1) decodes, 2(N−1) sends, N−1+N−1 recvs, and N−1
// merges.
func TestRingOperatorCounts(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		for _, parts := range []int{1, 2, 4} {
			g, _ := ringGraph(t, n, 1<<16, parts, "onebit")
			s := g.Stat()
			if want := parts * n; s.Encode != want {
				t.Errorf("n=%d K=%d: encodes = %d, want %d", n, parts, s.Encode, want)
			}
			if want := parts * 2 * (n - 1); s.Decode != want {
				t.Errorf("n=%d K=%d: decodes = %d, want %d", n, parts, s.Decode, want)
			}
			if want := parts * 2 * (n - 1); s.Send != want {
				t.Errorf("n=%d K=%d: sends = %d, want %d", n, parts, s.Send, want)
			}
		}
	}
}

// TestRingUncompressedHasNoCodecs: the paper's Eq. 1 path.
func TestRingUncompressedHasNoCodecs(t *testing.T) {
	g, _ := ringGraph(t, 4, 1024, 2, "")
	s := g.Stat()
	if s.Encode != 0 || s.Decode != 0 {
		t.Fatalf("uncompressed ring has codecs: %+v", s)
	}
	if s.Send != 2*2*3 {
		t.Fatalf("uncompressed ring sends = %d, want 12", s.Send)
	}
}

// TestPSOperatorCounts: compressed co-located PS with K partitions: each
// partition has N−1 worker encodes + 1 aggregator re-encode, N−1 aggregator
// decodes + N−1 worker decodes, 2(N−1) sends.
func TestPSOperatorCounts(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		for _, parts := range []int{1, 3} {
			g, _ := psGraph(t, n, 1<<16, parts, "onebit")
			s := g.Stat()
			if want := parts * n; s.Encode != want {
				t.Errorf("n=%d K=%d: encodes = %d, want %d", n, parts, s.Encode, want)
			}
			if want := parts * 2 * (n - 1); s.Decode != want {
				t.Errorf("n=%d K=%d: decodes = %d, want %d", n, parts, s.Decode, want)
			}
			if want := parts * 2 * (n - 1); s.Send != want {
				t.Errorf("n=%d K=%d: sends = %d, want %d", n, parts, s.Send, want)
			}
		}
	}
}

func TestTerminalsCoverAllNodes(t *testing.T) {
	for _, build := range []func(*testing.T, int, int, int, string) (*Graph, []int){ringGraph, psGraph} {
		_, term := build(t, 5, 1000, 3, "dgc")
		if len(term) != 5 {
			t.Fatalf("terminals = %v", term)
		}
		for v, id := range term {
			if id < 0 {
				t.Fatalf("node %d has no terminal task", v)
			}
		}
	}
}

func TestRecvTasksHaveSingleDep(t *testing.T) {
	g, _ := ringGraph(t, 6, 1<<12, 4, "terngrad")
	for i, task := range g.Tasks {
		if task.Kind == KRecv && g.Deps(i) != 1 {
			t.Fatalf("recv task %d has %d deps", i, g.Deps(i))
		}
	}
}

func TestCrossNodeEdgesAreOnlySendRecv(t *testing.T) {
	for _, build := range []func(*testing.T, int, int, int, string) (*Graph, []int){ringGraph, psGraph} {
		g, _ := build(t, 4, 4096, 2, "onebit")
		for i, task := range g.Tasks {
			for _, o := range g.Outs(i) {
				dep := g.Tasks[o]
				if task.Node != dep.Node {
					if !(task.Kind == KSend && dep.Kind == KRecv) {
						t.Fatalf("cross-node edge %v(%d)@%d -> %v(%d)@%d is not send->recv",
							task.Kind, i, task.Node, dep.Kind, o, dep.Node)
					}
				}
			}
		}
	}
}

func TestPartitionRanges(t *testing.T) {
	elems := 10
	covered := make([]bool, elems)
	for p := 0; p < 3; p++ {
		lo, hi := PartRange(elems, 3, p)
		for i := lo; i < hi; i++ {
			if covered[i] {
				t.Fatalf("element %d covered twice", i)
			}
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("element %d not covered", i)
		}
	}
}

func TestQuickPartitionCoverage(t *testing.T) {
	f := func(eRaw, pRaw uint16) bool {
		elems := int(eRaw%5000) + 1
		parts := int(pRaw%64) + 1
		if parts > elems {
			parts = elems
		}
		total := 0
		for p := 0; p < parts; p++ {
			lo, hi := PartRange(elems, parts, p)
			if lo < 0 || hi > elems || lo > hi {
				return false
			}
			total += hi - lo
		}
		return total == elems
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRejectsWrongTopology(t *testing.T) {
	g := NewGraph()
	if _, err := BuildRing(g, PSBipartite(3), GradSync{Name: "g", Elems: 10}); err == nil {
		t.Fatalf("BuildRing accepted PS topology")
	}
	if _, err := BuildPS(g, Ring(3), GradSync{Name: "g", Elems: 10}); err == nil {
		t.Fatalf("BuildPS accepted ring topology")
	}
}

// TestBuildersRejectWrongTopology: each builder accepts only the topology
// kinds it is written for; halving-doubling runs over a ring's nodes and
// must not silently take a PS topology's aggregators into its exchanges.
func TestBuildersRejectWrongTopology(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(*Graph, *Topology, GradSync) ([]int, error)
		topo  *Topology
	}{
		{"BuildRing", BuildRing, PSBipartite(4)},
		{"BuildRing", BuildRing, PSDedicated(2, 2)},
		{"BuildPS", BuildPS, Ring(4)},
		{"BuildHalvingDoubling", BuildHalvingDoubling, PSBipartite(4)},
		{"BuildHalvingDoubling", BuildHalvingDoubling, PSDedicated(2, 2)},
	} {
		if _, err := c.build(NewGraph(), c.topo, GradSync{Name: "g", Elems: 10}); err == nil {
			t.Errorf("%s accepted a %q topology", c.name, c.topo.Kind)
		}
	}
}

func TestBuildRejectsEmptyGradient(t *testing.T) {
	g := NewGraph()
	if _, err := BuildRing(g, Ring(2), GradSync{Name: "g", Elems: 0}); err == nil {
		t.Fatalf("zero-element gradient accepted")
	}
}

func TestPartsClampedToElems(t *testing.T) {
	g := NewGraph()
	if _, err := BuildRing(g, Ring(2), GradSync{Name: "g", Elems: 3, Parts: 100}); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, task := range g.Tasks {
		if task.Part >= 3 {
			t.Fatalf("task for partition %d of a 3-element gradient", task.Part)
		}
	}
}

func TestWireBytesUsedForCompressedSends(t *testing.T) {
	g := NewGraph()
	_, err := BuildPS(g, PSBipartite(3), GradSync{
		Name: "g", Elems: 3000, Parts: 1, Algo: "onebit",
		WireBytes: func(elems int) int64 { return 42 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range g.Tasks {
		if task.Kind == KSend && task.Bytes != 42 {
			t.Fatalf("compressed send bytes = %d, want 42", task.Bytes)
		}
	}
}

func TestRootDepsGateTheDAG(t *testing.T) {
	g := NewGraph()
	compute := make([]int, 3)
	for v := range compute {
		compute[v] = g.Add(&Task{Kind: KCompute, Node: v, Dur: 1})
	}
	_, err := BuildRing(g, Ring(3), GradSync{Name: "g", Elems: 300, Algo: "onebit", RootDeps: compute})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	roots := g.Roots()
	if len(roots) != 3 {
		t.Fatalf("roots = %v, want only the 3 compute tasks", roots)
	}
	for _, r := range roots {
		if g.Tasks[r].Kind != KCompute {
			t.Fatalf("root %d is %v", r, g.Tasks[r].Kind)
		}
	}
}

// TestSendsFollowMerges pins the invariant the live plane's zero-copy raw send
// rests on (live.go, mergeTarget/stageSend): in every DAG BuildRing and
// BuildPS emit, every merge on a (node, gradient, partition) — the PS
// aggregation barrier included — is an ancestor of every non-forward send and
// every encode on the same triple. A send's payload may then reference the
// accumulator where it lies, and an encode's be taken from it: nothing can
// merge into it once any send or encode of it is ready.
func TestSendsFollowMerges(t *testing.T) {
	builders := map[string]func(*Graph, int, GradSync) error{
		"ring": func(g *Graph, n int, s GradSync) error { _, err := BuildRing(g, Ring(n), s); return err },
		"ps":   func(g *Graph, n int, s GradSync) error { _, err := BuildPS(g, PSBipartite(n), s); return err },
	}
	type triple struct{ node, part int }
	for name, build := range builders {
		for _, n := range []int{2, 3, 4, 5} {
			for _, parts := range []int{1, 2, 3} {
				for _, algo := range []string{"", "onebit"} {
					for shard := 0; shard < 2; shard++ {
						g := NewGraph()
						if err := build(g, n, GradSync{Name: "g", Elems: 1000, Parts: parts, Algo: algo, Shard: shard}); err != nil {
							t.Fatal(err)
						}
						ins := make([][]int, len(g.Tasks))
						merges := map[triple][]int{}
						for i, task := range g.Tasks {
							for _, o := range g.Outs(i) {
								ins[o] = append(ins[o], i)
							}
							if task.Kind == KMerge {
								k := triple{task.Node, task.Part}
								merges[k] = append(merges[k], i)
							}
						}
						checked := 0
						for i, task := range g.Tasks {
							if (task.Kind != KSend || task.Forward) && task.Kind != KEncode {
								continue
							}
							anc := map[int]bool{}
							for stack := []int{i}; len(stack) > 0; {
								id := stack[len(stack)-1]
								stack = stack[:len(stack)-1]
								for _, d := range ins[id] {
									if !anc[d] {
										anc[d] = true
										stack = append(stack, d)
									}
								}
							}
							for _, m := range merges[triple{task.Node, task.Part}] {
								checked++
								if !anc[m] {
									t.Fatalf("%s n=%d parts=%d algo=%q shard=%d: merge %d on node %d part %d is not an ancestor of %v %d (step %d)",
										name, n, parts, algo, shard, m, task.Node, task.Part, task.Kind, i, task.Step)
								}
							}
						}
						if checked == 0 {
							t.Fatalf("%s n=%d parts=%d algo=%q: no (merge, send) pair checked", name, n, parts, algo)
						}
					}
				}
			}
		}
	}
}

// TestLayoutSlots pins the addressing the live plane's state tables rest on:
// over ring and PS, N ∈ {2…5}, Parts ∈ {1,2,3} and both shard rotations, a
// round of several gradients — one shorter than the plan's K, so its partition
// count clamps — numbers (gradient, partition) pairs onto slots one to one and
// without gaps, and every task the builders emit
// carries its gradient's index and, unless it is a per-node join barrier, a
// partition whose slot is in range.
func TestLayoutSlots(t *testing.T) {
	builders := map[string]func(*Graph, int, GradSync) error{
		"ring": func(g *Graph, n int, s GradSync) error { _, err := BuildRing(g, Ring(n), s); return err },
		"ps":   func(g *Graph, n int, s GradSync) error { _, err := BuildPS(g, PSBipartite(n), s); return err },
	}
	shapes := []struct {
		name  string
		elems int
		algo  string
	}{{"a", 1000, "onebit"}, {"b", 2, ""}, {"c", 7, "onebit"}}
	for name, build := range builders {
		for _, n := range []int{2, 3, 4, 5} {
			for _, parts := range []int{1, 2, 3} {
				for shard := 0; shard < 2; shard++ {
					g := NewGraph()
					lay := newRoundLayout(len(shapes))
					for _, sh := range shapes {
						spec := lay.add(sh.name, sh.elems, parts, sh.algo)
						spec.Shard = shard
						if err := build(g, n, spec); err != nil {
							t.Fatal(err)
						}
					}
					where := fmt.Sprintf("%s n=%d parts=%d shard=%d", name, n, parts, shard)
					type gp struct{ grad, part int }
					owner := make(map[int]gp, lay.slots)
					for gi, gl := range lay.grads {
						if want := min(parts, gl.elems); gl.parts != want {
							t.Fatalf("%s: %q laid out with %d partitions, want %d", where, gl.name, gl.parts, want)
						}
						for p := 0; p < gl.parts; p++ {
							slot := gl.slot0 + p
							if prev, taken := owner[slot]; taken {
								t.Fatalf("%s: slot %d owned by %+v and by %+v", where, slot, prev, gp{gi, p})
							}
							owner[slot] = gp{gi, p}
						}
					}
					for slot := 0; slot < lay.slots; slot++ {
						if _, ok := owner[slot]; !ok {
							t.Fatalf("%s: slot %d of %d owned by no partition", where, slot, lay.slots)
						}
					}
					for i, task := range g.Tasks {
						if task.GradIdx < 0 || task.GradIdx >= len(lay.grads) || lay.grads[task.GradIdx].name != task.Grad {
							t.Fatalf("%s: task %d (%v %s) carries gradient index %d", where, i, task.Kind, task.Grad, task.GradIdx)
						}
						if task.Part < 0 {
							if task.Kind != KMerge || task.Bytes != 0 {
								t.Fatalf("%s: task %d (%v) has no partition and is not a join barrier", where, i, task.Kind)
							}
							continue
						}
						if got := owner[lay.slot(task)]; lay.slot(task) >= lay.slots || got != (gp{task.GradIdx, task.Part}) {
							t.Fatalf("%s: task %d (%v %s/p%d) maps to slot %d, owned by %+v", where, i, task.Kind, task.Grad, task.Part, lay.slot(task), got)
						}
					}
				}
			}
		}
	}
}
