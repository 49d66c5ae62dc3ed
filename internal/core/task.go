package core

import "fmt"

// Kind is the primitive a task executes — the paper's five general
// synchronization primitives (§3.1) plus the DNN-compute placeholder that
// roots a gradient's DAG at its backward-pass completion.
type Kind uint8

// Task kinds.
const (
	KCompute Kind = iota // local DNN backward producing the gradient
	KEncode              // compress
	KDecode              // decompress
	KMerge               // aggregate
	KSend                // transmit to peer
	KRecv                // receive from peer
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KCompute:
		return "compute"
	case KEncode:
		return "encode"
	case KDecode:
		return "decode"
	case KMerge:
		return "merge"
	case KSend:
		return "send"
	case KRecv:
		return "recv"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsComm reports whether the kind belongs in the communication queue
// (Q_commu; on the live plane, a send-engine lane) rather than Q_comp.
func (k Kind) IsComm() bool { return k == KSend || k == KRecv }

// Task is one node-local unit of work in a gradient synchronization DAG.
// The metadata fields fully determine the task's simulated cost, and the
// live plane derives the real work (compression, sends) from the same fields.
type Task struct {
	ID   int
	Kind Kind
	// Node executes the task. For KSend, Node is the sender and Peer the
	// receiver; for KRecv, Node is the receiver and Peer the sender.
	Node int
	Peer int
	// Grad names the gradient being synchronized; Part is the partition
	// index within it; Step disambiguates repeated primitives along the
	// path (e.g. ring hop number).
	Grad string
	Part int
	Step int
	// GradIdx is the gradient's position in the round being built
	// (GradSync.Index): with Part, the two integers an executor needs to find
	// the task's state in tables laid out by gradient and by partition.
	GradIdx int
	// Bytes is the data volume the task touches: wire bytes for send/recv,
	// input bytes for encode/merge, output bytes for decode. It drives the
	// timing model.
	Bytes int64
	// Algo is the compression algorithm for encode/decode tasks ("" for
	// uncompressed paths); it selects the kernel cost curve.
	Algo string
	// Phase distinguishes the aggregation phase (1) from the dissemination
	// phase (2) of a synchronization strategy.
	Phase uint8
	// Forward marks a send that relays a received payload unchanged
	// (ring dissemination) rather than transmitting a locally encoded one.
	Forward bool
	// Dur, for KCompute tasks, is the explicit duration in seconds (DNN
	// backward time is an input to the simulation, not derived from Bytes).
	Dur float64

	// deps counts unfinished prerequisite tasks; outs lists dependents by
	// graph index. deps is the only field an executor writes, which is what
	// lets the live plane reuse a graph by resetting deps alone.
	deps int
	outs []int
}

// Graph is a synchronization DAG over one or more gradients. One executor at a
// time writes its dependency counters, and nothing else; a reused graph is
// first reset to its initial counts (roundPlan keeps a copy). Tasks live in
// chunks that are never regrown, so every *Task in Tasks stays valid.
type Graph struct {
	Tasks []*Task
	chunk []Task // the chunk Add fills
	slab  []int  // free out-edge slots, carved two per task by Dep
}

// taskChunk keeps a chunk (Task ≈ 144 B) under Go's 32 KiB large-object size.
const taskChunk = 128

// NewGraph returns an empty DAG.
func NewGraph() *Graph { return &Graph{} }

// Add copies *t into the graph, sets t.ID and returns it: later changes to *t
// do not reach the graph, whose copy is g.Tasks[t.ID].
func (g *Graph) Add(t *Task) int {
	if len(g.chunk) == cap(g.chunk) {
		g.chunk = make([]Task, 0, taskChunk)
	}
	t.ID = len(g.Tasks)
	g.chunk = append(g.chunk, *t)
	g.Tasks = append(g.Tasks, &g.chunk[len(g.chunk)-1])
	return t.ID
}

// Dep records that task `after` cannot start before task `before` finishes.
// A task's first two out-edges fill slab slots, capped so a third append
// moves them to an array of their own.
func (g *Graph) Dep(before, after int) {
	b := g.Tasks[before]
	if b.outs == nil {
		if len(g.slab) < 2 {
			g.slab = make([]int, 2*taskChunk)
		}
		b.outs, g.slab = g.slab[:0:2], g.slab[2:]
	}
	b.outs = append(b.outs, after)
	g.Tasks[after].deps++
}

// Roots returns the indices of tasks with no prerequisites.
func (g *Graph) Roots() []int {
	var roots []int
	for i, t := range g.Tasks {
		if t.deps == 0 {
			roots = append(roots, i)
		}
	}
	return roots
}

// Deps returns the number of unfinished prerequisites of task i (primarily
// for tests and executors).
func (g *Graph) Deps(i int) int { return g.Tasks[i].deps }

// Outs returns the dependents of task i.
func (g *Graph) Outs(i int) []int { return g.Tasks[i].outs }

// Complete marks task i finished and appends the dependents that became ready
// to ready (a stack buffer's [:0] saves an allocation). Executors call this as
// their single source of scheduling truth — it is the dependency-graph
// clearing of §3.1 step ③.
func (g *Graph) Complete(i int, ready []int) []int {
	for _, o := range g.Tasks[i].outs {
		g.Tasks[o].deps--
		if g.Tasks[o].deps < 0 {
			panic(fmt.Sprintf("core: task %d completed more than once upstream of %d", i, o))
		}
		if g.Tasks[o].deps == 0 {
			ready = append(ready, o)
		}
	}
	return ready
}

// Validate checks structural sanity: send/recv pairing, acyclicity, and
// that every task is reachable from a root. Strategy builders run it in
// tests; executors trust validated graphs.
func (g *Graph) Validate() error {
	// Acyclicity + reachability via Kahn's algorithm on a scratch copy.
	indeg := make([]int, len(g.Tasks))
	for i, t := range g.Tasks {
		if t.ID != i {
			return fmt.Errorf("core: task %d has mismatched ID %d", i, t.ID)
		}
		for _, o := range t.outs {
			if o < 0 || o >= len(g.Tasks) {
				return fmt.Errorf("core: task %d has out-of-range dependent %d", i, o)
			}
			indeg[o]++
		}
	}
	for i, t := range g.Tasks {
		if indeg[i] != t.deps {
			return fmt.Errorf("core: task %d dependency count %d does not match edges %d", i, t.deps, indeg[i])
		}
	}
	queue := make([]int, 0, len(g.Tasks))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	visited := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		visited++
		for _, o := range g.Tasks[i].outs {
			indeg[o]--
			if indeg[o] == 0 {
				queue = append(queue, o)
			}
		}
	}
	if visited != len(g.Tasks) {
		return fmt.Errorf("core: graph has a cycle or unreachable tasks (%d of %d visited)", visited, len(g.Tasks))
	}
	return nil
}

// Stats summarizes a graph for logs and tests.
type Stats struct {
	Total                                   int
	Encode, Decode, Merge, Send, Recv, Comp int
}

// Stat counts tasks by kind.
func (g *Graph) Stat() Stats {
	var s Stats
	s.Total = len(g.Tasks)
	for _, t := range g.Tasks {
		switch t.Kind {
		case KEncode:
			s.Encode++
		case KDecode:
			s.Decode++
		case KMerge:
			s.Merge++
		case KSend:
			s.Send++
		case KRecv:
			s.Recv++
		case KCompute:
			s.Comp++
		}
	}
	return s
}
