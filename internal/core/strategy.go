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

// partElems returns the element count of partition p under K-way chunking.
func partElems(elems, parts, p int) int {
	chunk := (elems + parts - 1) / parts
	lo := p * chunk
	hi := lo + chunk
	if hi > elems {
		hi = elems
	}
	if lo > hi {
		return 0
	}
	return hi - lo
}

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
		pe := partElems(s.Elems, s.Parts, p)
		if pe == 0 {
			continue
		}
		rawB := int64(4 * pe)
		wireB := s.wire(pe)
		sendB := wireIf(s.compressed(), rawB, wireB) * s.wscale()
		start := (p + s.Shard) % n
		node := func(i int) int { return (start + i) % n }

		// --- phase 1: aggregation, N-1 hops ---
		var prevSend int
		if s.compressed() {
			enc := s.add(g, &Task{Kind: KEncode, Node: node(0), Part: p, Step: 0, Bytes: rawB, Algo: s.Algo, Phase: 1})
			s.depRoot(g, node(0), enc)
			snd := s.add(g, &Task{Kind: KSend, Node: node(0), Peer: node(1), Part: p, Step: 0, Bytes: sendB, Phase: 1})
			g.Dep(enc, snd)
			prevSend = snd
		} else {
			snd := s.add(g, &Task{Kind: KSend, Node: node(0), Peer: node(1), Part: p, Step: 0, Bytes: sendB, Phase: 1})
			s.depRoot(g, node(0), snd)
			prevSend = snd
		}
		var lastMerge int
		for i := 1; i < n; i++ {
			v := node(i)
			// The recv's Step matches its send's so live transports can pair
			// messages to tasks by (grad, part, step, peer).
			rcv := s.add(g, &Task{Kind: KRecv, Node: v, Peer: node(i - 1), Part: p, Step: i - 1, Bytes: sendB, Phase: 1})
			g.Dep(prevSend, rcv)
			mergeDep := rcv
			if s.compressed() {
				dec := s.add(g, &Task{Kind: KDecode, Node: v, Peer: node(i - 1), Part: p, Step: i, Bytes: rawB, Algo: s.Algo, Phase: 1})
				g.Dep(rcv, dec)
				mergeDep = dec
			}
			mrg := s.add(g, &Task{Kind: KMerge, Node: v, Peer: node(i - 1), Part: p, Step: i, Bytes: rawB, Phase: 1})
			g.Dep(mergeDep, mrg)
			s.depRoot(g, v, mrg)
			lastMerge = mrg
			if i == n-1 {
				break
			}
			if s.compressed() {
				enc := s.add(g, &Task{Kind: KEncode, Node: v, Part: p, Step: i, Bytes: rawB, Algo: s.Algo, Phase: 1})
				g.Dep(mrg, enc)
				snd := s.add(g, &Task{Kind: KSend, Node: v, Peer: node(i + 1), Part: p, Step: i, Bytes: sendB, Phase: 1})
				g.Dep(enc, snd)
				prevSend = snd
			} else {
				snd := s.add(g, &Task{Kind: KSend, Node: v, Peer: node(i + 1), Part: p, Step: i, Bytes: sendB, Phase: 1})
				g.Dep(mrg, snd)
				prevSend = snd
			}
		}
		// Node node(n-1) now holds the aggregate of partition p.
		done[node(n-1)] = append(done[node(n-1)], lastMerge)

		// --- phase 2: dissemination, N-1 hops; forwarding overlaps decode ---
		var carry int // task holding the payload to forward
		if s.compressed() {
			enc := s.add(g, &Task{Kind: KEncode, Node: node(n - 1), Part: p, Step: n, Bytes: rawB, Algo: s.Algo, Phase: 2})
			g.Dep(lastMerge, enc)
			carry = enc
		} else {
			carry = lastMerge
		}
		for j := 0; j < n-1; j++ {
			src := node(n - 1 + j)
			dst := node(n + j)
			snd := s.add(g, &Task{Kind: KSend, Node: src, Peer: dst, Part: p, Step: n + j, Bytes: sendB, Phase: 2, Forward: j > 0})
			g.Dep(carry, snd)
			rcv := s.add(g, &Task{Kind: KRecv, Node: dst, Peer: src, Part: p, Step: n + j, Bytes: sendB, Phase: 2})
			g.Dep(snd, rcv)
			if s.compressed() {
				dec := s.add(g, &Task{Kind: KDecode, Node: dst, Peer: src, Part: p, Step: n + j, Bytes: rawB, Algo: s.Algo, Phase: 2})
				g.Dep(rcv, dec)
				done[dst] = append(done[dst], dec)
			} else {
				done[dst] = append(done[dst], rcv)
			}
			carry = rcv // forward the received payload; decode overlaps
		}
	}
	return joinPerNode(g, &s, done), nil
}

// wireIf returns the wire size for the configured compression state.
func wireIf(compressed bool, rawB, wireB int64) int64 {
	if compressed {
		return wireB
	}
	return rawB
}

// BuildPS expands s into a CaSync-PS synchronization DAG with co-located
// workers and aggregators (the §6.1 deployment): partition p is owned by
// aggregator p mod N; every worker encodes and pushes its partition, the
// aggregator decode-merges all contributions, re-encodes the aggregate, and
// pushes it back; workers decode. The aggregator's own contribution is
// merged locally without encode/decode/network, which is why the evaluation
// assigns α = 2(N-1) instead of Table 3's general 2N.
func BuildPS(g *Graph, topo *Topology, s GradSync) ([]int, error) {
	n := topo.N()
	if topo.Kind != "ps-bipartite" {
		return nil, fmt.Errorf("core: BuildPS on %q topology", topo.Kind)
	}
	if err := s.normalize(n); err != nil {
		return nil, err
	}
	done := make([][]int, n)

	for p := 0; p < s.Parts; p++ {
		pe := partElems(s.Elems, s.Parts, p)
		if pe == 0 {
			continue
		}
		rawB := int64(4 * pe)
		wireB := s.wire(pe)
		sendB := wireIf(s.compressed(), rawB, wireB) * s.wscale()
		server := (p + s.Shard) % n

		// Push: every worker sends its partition to the server.
		var merges []int
		selfMerge := s.add(g, &Task{Kind: KMerge, Node: server, Peer: server, Part: p, Step: 0, Bytes: rawB, Phase: 1})
		s.depRoot(g, server, selfMerge)
		merges = append(merges, selfMerge)
		for w := 0; w < n; w++ {
			if w == server {
				continue
			}
			var snd int
			if s.compressed() {
				enc := s.add(g, &Task{Kind: KEncode, Node: w, Part: p, Step: 0, Bytes: rawB, Algo: s.Algo, Phase: 1})
				s.depRoot(g, w, enc)
				snd = s.add(g, &Task{Kind: KSend, Node: w, Peer: server, Part: p, Step: 0, Bytes: sendB, Phase: 1})
				g.Dep(enc, snd)
			} else {
				snd = s.add(g, &Task{Kind: KSend, Node: w, Peer: server, Part: p, Step: 0, Bytes: sendB, Phase: 1})
				s.depRoot(g, w, snd)
			}
			rcv := s.add(g, &Task{Kind: KRecv, Node: server, Peer: w, Part: p, Step: 0, Bytes: sendB, Phase: 1})
			g.Dep(snd, rcv)
			mergeDep := rcv
			if s.compressed() {
				dec := s.add(g, &Task{Kind: KDecode, Node: server, Peer: w, Part: p, Step: 0, Bytes: rawB, Algo: s.Algo, Phase: 1})
				g.Dep(rcv, dec)
				mergeDep = dec
			}
			mrg := s.add(g, &Task{Kind: KMerge, Node: server, Peer: w, Part: p, Step: 0, Bytes: rawB, Phase: 1})
			g.Dep(mergeDep, mrg)
			merges = append(merges, mrg)
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
		carry := aggDone
		if s.compressed() {
			enc := s.add(g, &Task{Kind: KEncode, Node: server, Part: p, Step: 2, Bytes: rawB, Algo: s.Algo, Phase: 2})
			g.Dep(aggDone, enc)
			carry = enc
		}
		for w := 0; w < n; w++ {
			if w == server {
				continue
			}
			snd := s.add(g, &Task{Kind: KSend, Node: server, Peer: w, Part: p, Step: 2, Bytes: sendB, Phase: 2})
			g.Dep(carry, snd)
			rcv := s.add(g, &Task{Kind: KRecv, Node: w, Peer: server, Part: p, Step: 2, Bytes: sendB, Phase: 2})
			g.Dep(snd, rcv)
			if s.compressed() {
				dec := s.add(g, &Task{Kind: KDecode, Node: w, Peer: server, Part: p, Step: 2, Bytes: rawB, Algo: s.Algo, Phase: 2})
				g.Dep(rcv, dec)
				done[w] = append(done[w], dec)
			} else {
				done[w] = append(done[w], rcv)
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
