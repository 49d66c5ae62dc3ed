package core

import "fmt"

// This file adds a third synchronization strategy beyond the paper's two:
// recursive halving-doubling allreduce (Thakur et al.; the classic
// low-latency collective). The paper positions CaSync as "general and not
// tie[d] to specific gradient compression algorithms and synchronization
// strategies ... applicable to existing and potentially future
// synchronization strategies" — this strategy is the existence proof: it
// composes from the same five primitives, runs on the same executors, and
// plugs into the same cost model.
//
// Shape: with N = 2^d nodes, the reduce-scatter phase runs d rounds of
// pairwise exchange (round r: partner = node XOR 2^r, each side sends the
// half of its active range the partner owns), then the allgather phase
// mirrors it. Total serial steps: 2·log2(N) — far fewer than Ring's
// 2(N−1), which is why it wins for latency-bound (small or heavily
// compressed) gradients; Ring stays bandwidth-optimal for huge ones.

// HDCoeffs returns the cost-model coefficients (α, β, γ) for
// CaSync-HalvingDoubling with n = 2^d nodes: 2·log2(n) serial communication
// steps; one encode and one decode per step on the critical path.
func HDCoeffs(n int) (alpha, beta, gamma float64) {
	d := log2Exact(n)
	return float64(2 * d), float64(2 * d), float64(2 * d)
}

// log2Exact returns d with n == 2^d, or -1 if n is not a power of two.
func log2Exact(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		return -1
	}
	d := 0
	for m := n; m > 1; m >>= 1 {
		d++
	}
	return d
}

// BuildHalvingDoubling expands s into a recursive halving-doubling
// synchronization DAG over the nodes of topo, which must be a ring of a
// power-of-two node count. HD uses the ring for its node set only: its
// exchanges need all-to-all reachability, which the timing and live planes
// both provide.
//
// Partitioning note: HD inherently splits the gradient by node count during
// reduce-scatter; the Parts field additionally pipelines independent HD
// reductions (like Ring's K partitions), each shifted so different rounds
// stress different links.
func BuildHalvingDoubling(g *Graph, topo *Topology, s GradSync) ([]int, error) {
	n := topo.N()
	if topo.Kind != "ring" {
		return nil, fmt.Errorf("core: BuildHalvingDoubling on %q topology", topo.Kind)
	}
	d := log2Exact(n)
	if d < 0 {
		return nil, fmt.Errorf("core: halving-doubling needs a power-of-two node count, got %d", n)
	}
	if err := s.normalize(n); err != nil {
		return nil, err
	}
	done := make([][]int, n)

	for p := 0; p < s.Parts; p++ {
		lo, hi := PartRange(s.Elems, s.Parts, p)
		pe := hi - lo
		if pe == 0 {
			continue
		}
		// ready[v] is the task after which node v's current partial result
		// for this partition is available.
		ready := make([]int, n)
		copy(ready, s.RootDeps)
		// Exchange volume halves every reduce-scatter round.
		half := pe / 2
		step := 0
		emitExchange := func(volumeElems int, phase uint8) {
			h := s.hop(g, p, max(volumeElems, 1), phase)
			next := make([]int, n)
			for i := range next {
				next[i] = -1
			}
			for v := 0; v < n; v++ {
				partner := v ^ (1 << uint(step%d))
				// v sends its half to partner.
				rcv := h.recv(h.send(h.encode(ready[v], v, step), v, partner, step))
				tail := h.decode(rcv, step)
				if phase == 1 {
					tail = h.merge(tail, partner, v, step)
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
	out := joinPerNode(g, &s, done)
	return out, nil
}
