package core

import "fmt"

// GradSync specifies how one gradient is synchronized: its size, its
// partitioning, and whether/how it is compressed. Strategy builders expand a
// GradSync into the task DAG of the chosen synchronization strategy.
type GradSync struct {
	// Name identifies the gradient; partition p's tasks carry the same name
	// with Part = p.
	Name string
	// Index numbers the gradient among those expanded into the same graph;
	// every task built from this spec carries it as Task.GradIdx.
	Index int
	// Elems is the gradient length in float32 elements.
	Elems int
	// Parts is K, the number of partitions synchronized in parallel
	// (clamped to [1, Elems]).
	Parts int
	// Algo is the compression algorithm registry name, or "" to synchronize
	// uncompressed.
	Algo string
	// WireBytes returns the on-the-wire payload size for a partition of the
	// given element count. nil (or Algo == "") means raw float32: 4×elems.
	WireBytes func(elems int) int64
	// RootDeps holds, per node id, the graph index of the task that
	// produces this gradient locally (typically the backward-compute task),
	// or -1 when the gradient is ready at time zero.
	RootDeps []int
	// WireScale multiplies send/recv byte counts only (not kernel work).
	// The engine uses it to model flat multi-GPU rings where one node's NIC
	// carries the traffic of all its GPUs (0 and 1 both mean no scaling).
	WireScale int
	// Shard rotates partition placement (ring start node, PS partition
	// owner) so different gradients load-balance across nodes, the way real
	// systems hash tensor keys across servers.
	Shard int
}

// wscale returns the effective wire multiplier.
func (s *GradSync) wscale() int64 {
	if s.WireScale > 1 {
		return int64(s.WireScale)
	}
	return 1
}

func (s *GradSync) wire(elems int) int64 {
	if s.Algo == "" || s.WireBytes == nil {
		return int64(4 * elems)
	}
	return s.WireBytes(elems)
}

func (s *GradSync) compressed() bool { return s.Algo != "" }

// PartRange returns the [lo, hi) element range of partition p, for live
// executors that slice real gradient storage.
func PartRange(elems, parts, p int) (lo, hi int) {
	chunk := (elems + parts - 1) / parts
	lo = p * chunk
	hi = lo + chunk
	if hi > elems {
		hi = elems
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// gradLayout is one gradient's row of a roundLayout: its geometry under the
// round's plan and the first of its parts consecutive slots.
type gradLayout struct {
	name  string
	elems int
	parts int    // the plan's K clamped to [1, elems], as normalize clamps it
	algo  string // "" = raw
	slot0 int
}

// span is PartRange over the gradient's own geometry.
func (gl *gradLayout) span(p int) (lo, hi int) { return PartRange(gl.elems, gl.parts, p) }

// roundLayout numbers a round's gradients and partitions the way its DAG
// does: gradient i is the one built from the GradSync with Index i, and its
// partition p owns slot grads[i].slot0+p. An executor keeps per-partition
// state in arrays indexed by slot and per-gradient state in arrays indexed
// by gradient, so a task reaches its state through the two integers it
// carries (GradIdx, Part); a frame off the wire finds its task by name in the
// plan's recv index. Like the DAG it is a pure function of the plan epoch and
// the gradient shapes.
type roundLayout struct {
	grads []gradLayout
	slots int
}

func newRoundLayout(gradients int) *roundLayout {
	return &roundLayout{grads: make([]gradLayout, 0, gradients)}
}

// add gives the next gradient its row and slots and returns the spec that
// expands it into the DAG, so the two cannot disagree on index or geometry.
func (l *roundLayout) add(name string, elems, parts int, algo string) GradSync {
	parts = max(1, min(parts, elems))
	gi := len(l.grads)
	l.grads = append(l.grads, gradLayout{name: name, elems: elems, parts: parts, algo: algo, slot0: l.slots})
	l.slots += parts
	return GradSync{Name: name, Index: gi, Elems: elems, Parts: parts, Algo: algo}
}

// slot is the slot of the partition t works on (t.Part >= 0: the per-node join
// barriers belong to no partition).
func (l *roundLayout) slot(t *Task) int { return l.grads[t.GradIdx].slot0 + t.Part }

func (s *GradSync) normalize(n int) error {
	if s.Elems <= 0 {
		return fmt.Errorf("core: gradient %q has %d elements", s.Name, s.Elems)
	}
	if s.Parts < 1 {
		s.Parts = 1
	}
	if s.Parts > s.Elems {
		s.Parts = s.Elems
	}
	if s.RootDeps == nil {
		s.RootDeps = make([]int, n)
		for i := range s.RootDeps {
			s.RootDeps[i] = -1
		}
	}
	if len(s.RootDeps) != n {
		return fmt.Errorf("core: gradient %q has %d root deps for %d nodes", s.Name, len(s.RootDeps), n)
	}
	return nil
}

// add creates a task for this gradient and returns its index.
func (s *GradSync) add(g *Graph, t *Task) int {
	t.Grad, t.GradIdx = s.Name, s.Index
	return g.Add(t)
}

// depRoot wires the node's gradient-ready dependency into task id, if any.
func (s *GradSync) depRoot(g *Graph, node, id int) {
	if d := s.RootDeps[node]; d >= 0 {
		g.Dep(d, id)
	}
}

// hop carries one partition (in halving-doubling, one exchange's slice of
// it) through the five primitives (§3.1). Each method adds one task after
// the task it depends on (-1: none) and returns the task its successor
// depends on. On a raw gradient encode and decode add nothing and return
// their input, so a builder states one composition for both paths.
type hop struct {
	g     *Graph
	s     *GradSync
	part  int
	phase uint8
	raw   int64 // bytes an encode reads, a decode writes and a merge adds
	wire  int64 // bytes a send or recv carries, wire-scaled
}

func (s *GradSync) hop(g *Graph, part, elems int, phase uint8) hop {
	return hop{g: g, s: s, part: part, phase: phase, raw: int64(4 * elems), wire: s.wire(elems) * s.wscale()}
}

func (h *hop) add(after int, t *Task) int {
	t.Part = h.part
	id := h.s.add(h.g, t)
	if after >= 0 {
		h.g.Dep(after, id)
	}
	return id
}

func (h *hop) encode(after, node, step int) int {
	if !h.s.compressed() {
		return after
	}
	return h.add(after, &Task{Kind: KEncode, Node: node, Step: step, Bytes: h.raw, Algo: h.s.Algo, Phase: h.phase})
}

func (h *hop) send(after, node, peer, step int) int {
	return h.add(after, &Task{Kind: KSend, Node: node, Peer: peer, Step: step, Bytes: h.wire, Phase: h.phase})
}

// recv receives send snd: its ends swapped, its step and phase copied, so
// a live transport pairs a frame with its task by (grad, part, step, peer).
func (h *hop) recv(snd int) int {
	st := h.g.Tasks[snd]
	return h.add(snd, &Task{Kind: KRecv, Node: st.Peer, Peer: st.Node, Step: st.Step, Bytes: h.wire, Phase: st.Phase})
}

// decode runs on recv rcv's node, naming its sender as peer.
func (h *hop) decode(rcv, step int) int {
	if !h.s.compressed() {
		return rcv
	}
	rt := h.g.Tasks[rcv]
	return h.add(rcv, &Task{Kind: KDecode, Node: rt.Node, Peer: rt.Peer, Step: step, Bytes: h.raw, Algo: h.s.Algo, Phase: h.phase})
}

func (h *hop) merge(after, node, peer, step int) int {
	return h.add(after, &Task{Kind: KMerge, Node: node, Peer: peer, Step: step, Bytes: h.raw, Phase: h.phase})
}

// BuildRing expands s into a CaSync-Ring synchronization DAG on topo (which
// must be a ring) and returns, per node, the graph index of the task after
// which that node holds the fully aggregated gradient partition set.
//
// Each partition p travels the ring starting at node p mod N: N-1
// aggregation hops (recv → decode → merge → encode → send, the data
// dependency chain that makes β = γ = N in Table 3), then one final encode
// and N-1 dissemination hops in which forwarding overlaps decoding.
func BuildRing(g *Graph, topo *Topology, s GradSync) ([]int, error) {
	n := topo.N()
	if topo.Kind != "ring" {
		return nil, fmt.Errorf("core: BuildRing on %q topology", topo.Kind)
	}
	if err := s.normalize(n); err != nil {
		return nil, err
	}
	// done[v] collects every task that must finish before node v holds the
	// full gradient; we join them per node at the end.
	done := make([][]int, n)

	for p := 0; p < s.Parts; p++ {
		lo, hi := PartRange(s.Elems, s.Parts, p)
		if lo == hi {
			continue
		}
		h := s.hop(g, p, hi-lo, 1)
		start := (p + s.Shard) % n
		node := func(i int) int { return (start + i) % n }

		// --- phase 1: aggregation, N-1 hops ---
		prev := h.send(h.encode(s.RootDeps[node(0)], node(0), 0), node(0), node(1), 0)
		var lastMerge int
		for i := 1; i < n; i++ {
			v := node(i)
			lastMerge = h.merge(h.decode(h.recv(prev), i), v, node(i-1), i)
			s.depRoot(g, v, lastMerge)
			if i < n-1 {
				prev = h.send(h.encode(lastMerge, v, i), v, node(i+1), i)
			}
		}
		// Node node(n-1) now holds the aggregate of partition p.
		done[node(n-1)] = append(done[node(n-1)], lastMerge)

		// --- phase 2: dissemination, N-1 hops; forwarding overlaps decode ---
		h.phase = 2
		carry := h.encode(lastMerge, node(n-1), n) // the payload to forward
		for j := 0; j < n-1; j++ {
			snd := h.send(carry, node(n-1+j), node(n+j), n+j)
			g.Tasks[snd].Forward = j > 0
			carry = h.recv(snd)
			done[node(n+j)] = append(done[node(n+j)], h.decode(carry, n+j))
		}
	}
	return joinPerNode(g, &s, done), nil
}

// BuildPS expands s into a CaSync-PS synchronization DAG on topo, which is
// PSBipartite (co-located workers and aggregators, the §6.1 deployment) or
// PSDedicated (the general Table 3 case, α = 2N, β = K+1, γ = N+1).
// Partition p is owned by aggregator (p + Shard) mod the aggregator count;
// every other worker encodes and pushes its partition, the aggregator
// decode-merges all contributions, re-encodes the aggregate, and pushes it
// back; workers decode. A co-located aggregator merges its own contribution
// locally without encode/decode/network, which is why the evaluation
// assigns α = 2(N-1) instead of Table 3's general 2N; a dedicated one has
// none.
func BuildPS(g *Graph, topo *Topology, s GradSync) ([]int, error) {
	n := topo.N()
	if topo.Kind != "ps-bipartite" && topo.Kind != "ps-dedicated" {
		return nil, fmt.Errorf("core: BuildPS on %q topology", topo.Kind)
	}
	aggs, workers := 0, 0
	for _, r := range topo.Roles {
		if r&RoleAggregator != 0 {
			aggs++
		}
		if r&RoleWorker != 0 {
			workers++
		}
	}
	if aggs == 0 || workers == 0 {
		return nil, fmt.Errorf("core: BuildPS needs workers and aggregators")
	}
	if err := s.normalize(n); err != nil {
		return nil, err
	}
	done := make([][]int, n)
	var merges []int

	for p := 0; p < s.Parts; p++ {
		lo, hi := PartRange(s.Elems, s.Parts, p)
		if lo == hi {
			continue
		}
		h := s.hop(g, p, hi-lo, 1)
		server := topo.aggregator((p + s.Shard) % aggs)
		pushes := func(w int) bool { return w != server && topo.Roles[w]&RoleWorker != 0 }

		// Push: every worker sends its partition to the server.
		merges = merges[:0]
		if topo.Roles[server]&RoleWorker != 0 {
			merges = append(merges, h.merge(s.RootDeps[server], server, server, 0))
		}
		for w := 0; w < n; w++ {
			if pushes(w) {
				rcv := h.recv(h.send(h.encode(s.RootDeps[w], w, 0), w, server, 0))
				merges = append(merges, h.merge(h.decode(rcv, 0), server, w, 0))
			}
		}

		// The server holds the aggregate once every contribution is merged.
		aggDone := merges[0]
		if len(merges) > 1 {
			// Join through the final merge: merges execute serially on the
			// server's stream anyway, but the DAG needs a single defined
			// completion point; a zero-byte merge barrier provides it.
			bar := s.add(g, &Task{Kind: KMerge, Node: server, Part: p, Step: 1, Bytes: 0, Phase: 1})
			for _, m := range merges {
				g.Dep(m, bar)
			}
			aggDone = bar
		}
		done[server] = append(done[server], aggDone)

		// Pull: re-encode once, send to every other worker, workers decode.
		h.phase = 2
		carry := h.encode(aggDone, server, 2)
		for w := 0; w < n; w++ {
			if pushes(w) {
				done[w] = append(done[w], h.decode(h.recv(h.send(carry, server, w, 2)), 2))
			}
		}
	}
	return joinPerNode(g, &s, done), nil
}

// joinPerNode collapses each node's completion set into a single terminal
// task index (adding a zero-cost barrier when a node has several), so
// callers get one "gradient synchronized here" event per node.
func joinPerNode(g *Graph, s *GradSync, done [][]int) []int {
	out := make([]int, len(done))
	for v := range done {
		switch len(done[v]) {
		case 0:
			out[v] = -1
		case 1:
			out[v] = done[v][0]
		default:
			bar := s.add(g, &Task{Kind: KMerge, Node: v, Part: -1, Step: -1, Bytes: 0})
			for _, d := range done[v] {
				g.Dep(d, bar)
			}
			out[v] = bar
		}
	}
	return out
}
