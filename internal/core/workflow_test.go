package core

import (
	"testing"

	"hipress/internal/compress"
)

// TestWorkflowValidAcrossAllStrategies: every builder satisfies the §3.1
// order constraints, compressed and raw, across partition counts.
func TestWorkflowValidAcrossAllStrategies(t *testing.T) {
	c, err := compress.New("onebit", nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := func(e int) int64 { return int64(c.CompressedSize(e)) }
	type build func(g *Graph, spec GradSync) error
	builders := map[string]build{
		"ring": func(g *Graph, spec GradSync) error {
			_, err := BuildRing(g, Ring(4), spec)
			return err
		},
		"ps": func(g *Graph, spec GradSync) error {
			_, err := BuildPS(g, PSBipartite(4), spec)
			return err
		},
		"dedicated": func(g *Graph, spec GradSync) error {
			_, err := BuildPS(g, PSDedicated(3, 1), spec)
			return err
		},
		"hd": func(g *Graph, spec GradSync) error {
			_, err := BuildHalvingDoubling(g, Ring(4), spec)
			return err
		},
	}
	for name, b := range builders {
		for _, algo := range []string{"", "onebit"} {
			for _, parts := range []int{1, 3} {
				g := NewGraph()
				spec := GradSync{Name: "w", Elems: 4096, Parts: parts, Algo: algo}
				if algo != "" {
					spec.WireBytes = wire
				}
				if err := b(g, spec); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := ValidateWorkflow(g); err != nil {
					t.Errorf("%s (algo=%q, K=%d): %v", name, algo, parts, err)
				}
			}
		}
	}
}

// TestWorkflowCatchesViolations: hand-built broken graphs are rejected.
func TestWorkflowCatchesViolations(t *testing.T) {
	// Compressed send with no encode.
	g := NewGraph()
	g.Add(&Task{Kind: KEncode, Node: 1, Grad: "w", Part: 0, Bytes: 100, Algo: "onebit"})
	g.Add(&Task{Kind: KSend, Node: 0, Peer: 1, Grad: "w", Part: 0, Bytes: 10})
	if err := ValidateWorkflow(g); err == nil {
		t.Error("send without local encode accepted")
	}

	// Decode with no recv.
	g2 := NewGraph()
	g2.Add(&Task{Kind: KDecode, Node: 0, Grad: "w", Part: 0, Bytes: 100, Algo: "onebit"})
	if err := ValidateWorkflow(g2); err == nil {
		t.Error("decode without recv accepted")
	}

	// Recv with no matching send.
	g3 := NewGraph()
	s := g3.Add(&Task{Kind: KSend, Node: 2, Peer: 1, Grad: "w", Part: 0, Bytes: 10})
	r := g3.Add(&Task{Kind: KRecv, Node: 1, Peer: 0, Grad: "w", Part: 0, Bytes: 10})
	g3.Dep(s, r) // wrong sender (peer says 0, send comes from 2)
	if err := ValidateWorkflow(g3); err == nil {
		t.Error("recv with mismatched send accepted")
	}

	// Merge fed by nothing.
	g4 := NewGraph()
	g4.Add(&Task{Kind: KMerge, Node: 0, Peer: 1, Grad: "w", Part: 0, Bytes: 100, Phase: 1})
	if err := ValidateWorkflow(g4); err == nil {
		t.Error("merge without upstream decode/recv accepted")
	}

	// Forwarding send with no recv.
	g5 := NewGraph()
	g5.Add(&Task{Kind: KSend, Node: 0, Peer: 1, Grad: "w", Part: 0, Bytes: 10, Forward: true})
	if err := ValidateWorkflow(g5); err == nil {
		t.Error("forwarding send without recv accepted")
	}
}
