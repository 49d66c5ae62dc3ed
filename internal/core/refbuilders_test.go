package core

import (
	"fmt"
	"reflect"
	"testing"

	"hipress/internal/compress"
)

// The strategy builders as they were before they composed their tasks
// through hop, copied unchanged apart from a ref prefix on every name they
// define. TestBuildersMatchReference holds today's builders to these: the
// same tasks in the same order, with the same fields and the same edges in
// the same order, so the simulator, the live plan cache, the pinned digests
// and the trace goldens cannot tell the two apart.

func refPartElems(elems, parts, p int) int {
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

func refBuildRing(g *Graph, topo *Topology, s GradSync) ([]int, error) {
	n := topo.N()
	if topo.Kind != "ring" {
		return nil, fmt.Errorf("core: refBuildRing on %q topology", topo.Kind)
	}
	if err := s.normalize(n); err != nil {
		return nil, err
	}
	// done[v] collects every task that must finish before node v holds the
	// full gradient; we join them per node at the end.
	done := make([][]int, n)

	for p := 0; p < s.Parts; p++ {
		pe := refPartElems(s.Elems, s.Parts, p)
		if pe == 0 {
			continue
		}
		rawB := int64(4 * pe)
		wireB := s.wire(pe)
		sendB := refWireIf(s.compressed(), rawB, wireB) * s.wscale()
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
	return refJoinPerNode(g, &s, done), nil
}

func refWireIf(compressed bool, rawB, wireB int64) int64 {
	if compressed {
		return wireB
	}
	return rawB
}

func refBuildPS(g *Graph, topo *Topology, s GradSync) ([]int, error) {
	n := topo.N()
	if topo.Kind != "ps-bipartite" {
		return nil, fmt.Errorf("core: refBuildPS on %q topology", topo.Kind)
	}
	if err := s.normalize(n); err != nil {
		return nil, err
	}
	done := make([][]int, n)

	for p := 0; p < s.Parts; p++ {
		pe := refPartElems(s.Elems, s.Parts, p)
		if pe == 0 {
			continue
		}
		rawB := int64(4 * pe)
		wireB := s.wire(pe)
		sendB := refWireIf(s.compressed(), rawB, wireB) * s.wscale()
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
	return refJoinPerNode(g, &s, done), nil
}

func refJoinPerNode(g *Graph, s *GradSync, done [][]int) []int {
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

func refBuildHalvingDoubling(g *Graph, topo *Topology, s GradSync) ([]int, error) {
	n := topo.N()
	d := log2Exact(n)
	if d < 0 {
		return nil, fmt.Errorf("core: halving-doubling needs a power-of-two node count, got %d", n)
	}
	if err := s.normalize(n); err != nil {
		return nil, err
	}
	done := make([][]int, n)

	for p := 0; p < s.Parts; p++ {
		pe := refPartElems(s.Elems, s.Parts, p)
		if pe == 0 {
			continue
		}
		// ready[v] is the task after which node v's current partial result
		// for this partition is available.
		ready := make([]int, n)
		for v := 0; v < n; v++ {
			ready[v] = s.RootDeps[v]
		}
		// Exchange volume halves every reduce-scatter round.
		half := pe / 2
		step := 0
		emitExchange := func(volumeElems int, phase uint8) {
			if volumeElems < 1 {
				volumeElems = 1
			}
			rawB := int64(4 * volumeElems)
			wireB := s.wire(volumeElems)
			sendB := refWireIf(s.compressed(), rawB, wireB) * s.wscale()
			next := make([]int, n)
			for i := range next {
				next[i] = -1
			}
			for v := 0; v < n; v++ {
				partner := v ^ (1 << uint(step%d))
				// v sends its half to partner.
				var snd int
				if s.compressed() {
					enc := s.add(g, &Task{Kind: KEncode, Node: v, Part: p, Step: step, Bytes: rawB, Algo: s.Algo, Phase: phase})
					if ready[v] >= 0 {
						g.Dep(ready[v], enc)
					}
					snd = s.add(g, &Task{Kind: KSend, Node: v, Peer: partner, Part: p, Step: step, Bytes: sendB, Phase: phase})
					g.Dep(enc, snd)
				} else {
					snd = s.add(g, &Task{Kind: KSend, Node: v, Peer: partner, Part: p, Step: step, Bytes: sendB, Phase: phase})
					if ready[v] >= 0 {
						g.Dep(ready[v], snd)
					}
				}
				rcv := s.add(g, &Task{Kind: KRecv, Node: partner, Peer: v, Part: p, Step: step, Bytes: sendB, Phase: phase})
				g.Dep(snd, rcv)
				tail := rcv
				if s.compressed() {
					dec := s.add(g, &Task{Kind: KDecode, Node: partner, Peer: v, Part: p, Step: step, Bytes: rawB, Algo: s.Algo, Phase: phase})
					g.Dep(rcv, dec)
					tail = dec
				}
				if phase == 1 {
					mrg := s.add(g, &Task{Kind: KMerge, Node: partner, Peer: v, Part: p, Step: step, Bytes: rawB, Phase: 1})
					g.Dep(tail, mrg)
					tail = mrg
				}
				// partner's next-round readiness depends on absorbing v's
				// half (the -1 sentinel marks "no incoming chain yet").
				if next[partner] == -1 {
					next[partner] = tail
				} else {
					bar := s.add(g, &Task{Kind: KMerge, Node: partner, Part: p, Step: step, Bytes: 0, Phase: phase})
					g.Dep(next[partner], bar)
					g.Dep(tail, bar)
					next[partner] = bar
				}
			}
			for v := 0; v < n; v++ {
				// Every node receives exactly once per round, so next[v] is
				// set; keep the prior readiness only in the degenerate
				// single-node case.
				if next[v] == -1 {
					next[v] = ready[v]
				}
				ready[v] = next[v]
			}
			step++
		}

		// Phase 1: reduce-scatter, d rounds of halving volume.
		vol := half
		for r := 0; r < d; r++ {
			emitExchange(vol, 1)
			if vol > 1 {
				vol /= 2
			}
		}
		// Phase 2: allgather, d rounds of doubling volume.
		for r := 0; r < d; r++ {
			emitExchange(vol, 2)
			if vol < pe/2 {
				vol *= 2
			}
		}
		for v := 0; v < n; v++ {
			if ready[v] >= 0 {
				done[v] = append(done[v], ready[v])
			}
		}
	}
	out := refJoinPerNode(g, &s, done)
	return out, nil
}

func refBuildPSDedicated(g *Graph, topo *Topology, s GradSync) ([]int, error) {
	if topo.Kind != "ps-dedicated" {
		return nil, fmt.Errorf("core: refBuildPSDedicated on %q topology", topo.Kind)
	}
	n := topo.N()
	var workers, servers []int
	for v := 0; v < n; v++ {
		switch topo.Roles[v] {
		case RoleWorker:
			workers = append(workers, v)
		case RoleAggregator:
			servers = append(servers, v)
		default:
			return nil, fmt.Errorf("core: dedicated PS node %d has role %v", v, topo.Roles[v])
		}
	}
	if len(workers) == 0 || len(servers) == 0 {
		return nil, fmt.Errorf("core: dedicated PS needs workers and servers")
	}
	if err := s.normalize(n); err != nil {
		return nil, err
	}
	done := make([][]int, n)

	for p := 0; p < s.Parts; p++ {
		pe := refPartElems(s.Elems, s.Parts, p)
		if pe == 0 {
			continue
		}
		rawB := int64(4 * pe)
		wireB := s.wire(pe)
		sendB := refWireIf(s.compressed(), rawB, wireB) * s.wscale()
		server := servers[(p+s.Shard)%len(servers)]

		var merges []int
		for _, w := range workers {
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

		aggDone := merges[0]
		if len(merges) > 1 {
			bar := s.add(g, &Task{Kind: KMerge, Node: server, Part: p, Step: 1, Bytes: 0, Phase: 1})
			for _, m := range merges {
				g.Dep(m, bar)
			}
			aggDone = bar
		}
		done[server] = append(done[server], aggDone)

		carry := aggDone
		if s.compressed() {
			enc := s.add(g, &Task{Kind: KEncode, Node: server, Part: p, Step: 2, Bytes: rawB, Algo: s.Algo, Phase: 2})
			g.Dep(aggDone, enc)
			carry = enc
		}
		for _, w := range workers {
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
	return refJoinPerNode(g, &s, done), nil
}

// TestBuildersMatchReference: every builder emits, task for task and edge
// for edge, the graph its reference emits, over a matrix of node counts,
// gradient sizes, partition counts, compression, shards, root
// dependencies and wire scaling, two gradients per graph. BuildPS is held to
// both references: the co-located one over PSBipartite, the dedicated one
// over PSDedicated.
func TestBuildersMatchReference(t *testing.T) {
	c, err := compress.New("onebit", nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := func(e int) int64 { return int64(c.CompressedSize(e)) }
	type builder func(*Graph, *Topology, GradSync) ([]int, error)
	type arm struct {
		name      string
		topo      *Topology
		got, want builder
	}
	var arms []arm
	for _, n := range []int{2, 3, 4, 5, 8} {
		arms = append(arms,
			arm{fmt.Sprintf("ring/%d", n), Ring(n), BuildRing, refBuildRing},
			arm{fmt.Sprintf("ps/%d", n), PSBipartite(n), BuildPS, refBuildPS},
			arm{fmt.Sprintf("ps-dedicated/%d+1", n), PSDedicated(n, 1), BuildPS, refBuildPSDedicated},
			arm{fmt.Sprintf("ps-dedicated/%d+2", n), PSDedicated(n, 2), BuildPS, refBuildPSDedicated})
		if log2Exact(n) >= 0 {
			arms = append(arms, arm{fmt.Sprintf("hd/%d", n), Ring(n), BuildHalvingDoubling, refBuildHalvingDoubling})
		}
	}
	// build expands two gradients into one graph, each rooted (when roots
	// is set) in a per-node compute task, node 1's left out.
	build := func(b builder, topo *Topology, spec GradSync, roots bool) (*Graph, [][]int) {
		g := NewGraph()
		var terms [][]int
		for i, name := range []string{"a", "b"} {
			s := spec
			s.Name, s.Index, s.Elems = name, i, spec.Elems+i
			if roots {
				s.RootDeps = make([]int, topo.N())
				for v := range s.RootDeps {
					s.RootDeps[v] = g.Add(&Task{Kind: KCompute, Node: v, Dur: 1e-3})
				}
				s.RootDeps[1] = -1
			}
			term, err := b(g, topo, s)
			if err != nil {
				t.Fatalf("%+v: %v", s, err)
			}
			terms = append(terms, term)
		}
		return g, terms
	}
	cases := 0
	for _, a := range arms {
		for _, elems := range []int{1, 5, 1000, 4099} {
			for _, parts := range []int{0, 1, 2, 3, 7} {
				for _, algo := range []string{"", "onebit"} {
					for _, shard := range []int{0, 3} {
						for _, ws := range []int{0, 3} {
							for _, roots := range []bool{false, true} {
								spec := GradSync{Elems: elems, Parts: parts, Algo: algo, WireBytes: wire, Shard: shard, WireScale: ws}
								g, term := build(a.got, a.topo, spec, roots)
								ref, refTerm := build(a.want, a.topo, spec, roots)
								if !reflect.DeepEqual(term, refTerm) {
									t.Fatalf("%s %+v roots=%v: terminals %v, reference %v", a.name, spec, roots, term, refTerm)
								}
								if len(g.Tasks) != len(ref.Tasks) {
									t.Fatalf("%s %+v roots=%v: %d tasks, reference %d", a.name, spec, roots, len(g.Tasks), len(ref.Tasks))
								}
								for i := range g.Tasks {
									if !reflect.DeepEqual(g.Tasks[i], ref.Tasks[i]) {
										t.Fatalf("%s %+v roots=%v: task %d\n got %+v\nwant %+v", a.name, spec, roots, i, *g.Tasks[i], *ref.Tasks[i])
									}
								}
								cases++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d builder cases match their reference", cases)
}
