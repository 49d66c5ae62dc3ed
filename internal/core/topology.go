// Package core implements CaSync, the paper's primary contribution: a
// compression-aware gradient synchronization architecture built from five
// decoupled primitives (encode, decode, merge, send, recv) composed into
// per-gradient task DAGs, executed by a dependency-driven task manager, and
// optimized by compression-aware bulk synchronization (§3.2) and selective
// compression & partitioning (§3.3).
//
// The package is deliberately independent of any particular execution
// substrate: the same task graphs run on the discrete-event timing plane
// (SimExecutor) for cluster-scale experiments and on the live goroutine
// plane (LiveCluster) for real compressed training.
package core

import "fmt"

// Role describes what a node does during gradient synchronization (§3.1:
// "there are fundamentally two node roles, namely, worker and aggregator").
type Role uint8

// Node roles. A node may hold both (RoleBoth), as in Ring-allreduce or
// co-located PS deployments.
const (
	RoleWorker Role = 1 << iota
	RoleAggregator
	RoleBoth = RoleWorker | RoleAggregator
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleWorker:
		return "worker"
	case RoleAggregator:
		return "aggregator"
	case RoleBoth:
		return "worker+aggregator"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Topology is the node set a synchronization strategy runs over, decoupled
// from the strategy (§3.1): it names the shape and each node's role. Who
// sends to whom is the strategy's to decide — halving-doubling runs over a
// ring's nodes but exchanges with v⊕2^k — so a topology keeps no edges.
type Topology struct {
	// Kind names the shape ("ring", "ps-bipartite", "ps-dedicated"); each
	// builder accepts only the kinds it is written for.
	Kind string
	// Roles holds each node's role, indexed by node id.
	Roles []Role
}

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.Roles) }

// aggregator returns the k-th aggregator in node order, or -1.
func (t *Topology) aggregator(k int) int {
	for v, r := range t.Roles {
		if r&RoleAggregator != 0 {
			if k == 0 {
				return v
			}
			k--
		}
	}
	return -1
}

// roles returns n copies of r.
func roles(n int, r Role) []Role {
	rs := make([]Role, n)
	for i := range rs {
		rs[i] = r
	}
	return rs
}

// Ring builds the clockwise ring of n nodes, each both worker and
// aggregator, node i sending to (i+1) mod n (Fig. 1b).
func Ring(n int) *Topology {
	if n < 2 {
		panic("core: ring needs at least 2 nodes")
	}
	return &Topology{Kind: "ring", Roles: roles(n, RoleBoth)}
}

// PSBipartite builds a parameter-server topology with co-located workers and
// aggregators: every node runs a worker and an aggregator (the deployment
// §6.1 uses, "co-locating aggregators and workers for BytePS and
// CaSync-PS"), and any worker may exchange with any aggregator.
func PSBipartite(n int) *Topology {
	if n < 1 {
		panic("core: PS needs at least 1 node")
	}
	return &Topology{Kind: "ps-bipartite", Roles: roles(n, RoleBoth)}
}

// PSDedicated builds a classic parameter-server topology with w workers and
// s dedicated aggregator (server) nodes: workers are nodes [0,w), servers
// [w, w+s), and workers exchange with servers only.
func PSDedicated(w, s int) *Topology {
	if w < 1 || s < 1 {
		panic("core: dedicated PS needs at least 1 worker and 1 server")
	}
	return &Topology{Kind: "ps-dedicated", Roles: append(roles(w, RoleWorker), roles(s, RoleAggregator)...)}
}
