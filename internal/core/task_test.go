package core

import "testing"

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
