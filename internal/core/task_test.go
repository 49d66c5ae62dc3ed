package core

import (
	"fmt"
	"testing"
)

func TestKindStringsAndQueues(t *testing.T) {
	cases := map[Kind]string{
		KCompute: "compute", KEncode: "encode", KDecode: "decode",
		KMerge: "merge", KSend: "send", KRecv: "recv",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind %d String = %q, want %q", k, k.String(), want)
		}
	}
	if !KSend.IsComm() || !KRecv.IsComm() {
		t.Errorf("send/recv must be comm tasks")
	}
	if KEncode.IsComm() || KMerge.IsComm() || KCompute.IsComm() {
		t.Errorf("compute-side kinds misrouted to comm queue")
	}
}

func TestGraphDepsAndComplete(t *testing.T) {
	g := NewGraph()
	a := g.Add(&Task{Kind: KEncode})
	b := g.Add(&Task{Kind: KSend})
	c := g.Add(&Task{Kind: KRecv})
	g.Dep(a, b)
	g.Dep(b, c)
	roots := g.Roots()
	if len(roots) != 1 || roots[0] != a {
		t.Fatalf("roots = %v, want [a]", roots)
	}
	if g.Deps(c) != 1 {
		t.Fatalf("Deps(c) = %d", g.Deps(c))
	}
	ready := g.Complete(a, nil)
	if len(ready) != 1 || ready[0] != b {
		t.Fatalf("Complete(a) = %v", ready)
	}
	if got := g.Complete(b, nil); len(got) != 1 || got[0] != c {
		t.Fatalf("Complete(b) = %v", got)
	}
	if got := g.Complete(c, nil); len(got) != 0 {
		t.Fatalf("Complete(c) = %v", got)
	}
}

func TestGraphDiamond(t *testing.T) {
	g := NewGraph()
	a := g.Add(&Task{})
	b := g.Add(&Task{})
	c := g.Add(&Task{})
	d := g.Add(&Task{})
	g.Dep(a, b)
	g.Dep(a, c)
	g.Dep(b, d)
	g.Dep(c, d)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if r := g.Complete(a, nil); len(r) != 2 {
		t.Fatalf("diamond fanout = %v", r)
	}
	if r := g.Complete(b, nil); len(r) != 0 {
		t.Fatalf("d became ready with pending dep: %v", r)
	}
	if r := g.Complete(c, nil); len(r) != 1 || r[0] != d {
		t.Fatalf("d not ready after both deps: %v", r)
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	g := NewGraph()
	a := g.Add(&Task{})
	b := g.Add(&Task{})
	g.Dep(a, b)
	g.Dep(b, a)
	if err := g.Validate(); err == nil {
		t.Fatalf("cycle not detected")
	}
}

func TestValidateDetectsBadEdge(t *testing.T) {
	g := NewGraph()
	a := g.Add(&Task{})
	g.Tasks[a].outs = append(g.Tasks[a].outs, 99)
	if err := g.Validate(); err == nil {
		t.Fatalf("out-of-range edge not detected")
	}
}

func TestDoubleCompletePanics(t *testing.T) {
	g := NewGraph()
	a := g.Add(&Task{})
	b := g.Add(&Task{})
	g.Dep(a, b)
	g.Complete(a, nil)
	defer func() {
		if recover() == nil {
			t.Fatalf("double complete did not panic")
		}
	}()
	g.Complete(a, nil)
}

func TestStat(t *testing.T) {
	g := NewGraph()
	g.Add(&Task{Kind: KEncode})
	g.Add(&Task{Kind: KEncode})
	g.Add(&Task{Kind: KDecode})
	g.Add(&Task{Kind: KSend})
	g.Add(&Task{Kind: KRecv})
	g.Add(&Task{Kind: KMerge})
	g.Add(&Task{Kind: KCompute})
	s := g.Stat()
	if s.Total != 7 || s.Encode != 2 || s.Decode != 1 || s.Send != 1 || s.Recv != 1 || s.Merge != 1 || s.Comp != 1 {
		t.Fatalf("Stat = %+v", s)
	}
}

func TestOuts(t *testing.T) {
	g := NewGraph()
	a := g.Add(&Task{})
	b := g.Add(&Task{})
	g.Dep(a, b)
	if o := g.Outs(a); len(o) != 1 || o[0] != b {
		t.Fatalf("Outs = %v", o)
	}
}

// Tasks live in fixed chunks: a *Task taken before a chunk boundary is still
// g.Tasks[i], fields intact, after many more Adds.
func TestTaskPointersSurviveChunks(t *testing.T) {
	g := NewGraph()
	var early []*Task
	for i := 0; i < taskChunk+1; i++ {
		g.Add(&Task{Kind: KSend, Node: i, Grad: fmt.Sprint("g", i), Bytes: int64(i)})
		early = append(early, g.Tasks[i])
	}
	for i := 0; i < 1000; i++ {
		g.Dep(i%len(early), g.Add(&Task{Kind: KRecv}))
	}
	for i, p := range early {
		if p != g.Tasks[i] {
			t.Fatalf("task %d moved: %p, g.Tasks holds %p", i, p, g.Tasks[i])
		}
		if p.ID != i || p.Node != i || p.Kind != KSend || p.Grad != fmt.Sprint("g", i) || p.Bytes != int64(i) {
			t.Fatalf("task %d fields changed: %+v", i, *p)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Out-edges past the two carved slots keep insertion order, and growing one
// task's edges does not touch its neighbour's in the slab.
func TestOutsKeepOrderPastCarvedSlots(t *testing.T) {
	g := NewGraph()
	a, b := g.Add(&Task{}), g.Add(&Task{})
	var want []int
	for i := 0; i < 7; i++ {
		want = append(want, g.Add(&Task{}))
	}
	g.Dep(a, want[0]) // a's slots, then b's, are carved next to each other
	g.Dep(b, want[0])
	for _, o := range want[1:] {
		g.Dep(a, o)
	}
	g.Dep(b, want[1])
	got := g.Outs(a)
	if len(got) != len(want) {
		t.Fatalf("Outs(a) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Outs(a) = %v, want %v", got, want)
		}
	}
	if o := g.Outs(b); len(o) != 2 || o[0] != want[0] || o[1] != want[1] {
		t.Fatalf("Outs(b) = %v, want %v", o, want[:2])
	}
}

// Add copies its argument: changing it afterwards does not change the graph.
func TestAddCopiesTask(t *testing.T) {
	g := NewGraph()
	arg := &Task{Kind: KEncode, Node: 3, Grad: "w", Bytes: 64}
	id := g.Add(arg)
	if arg.ID != id {
		t.Fatalf("argument ID = %d, want %d", arg.ID, id)
	}
	arg.Node, arg.Grad, arg.Bytes = 9, "other", 1
	if got := g.Tasks[id]; got == arg || got.Node != 3 || got.Grad != "w" || got.Bytes != 64 {
		t.Fatalf("graph task followed its argument: %+v", *got)
	}
}
