package core

import (
	"fmt"

	"hipress/internal/netsim"
)

// This file is elastic membership: cross-round peer lifecycle on top of the
// per-round failure detector. Without it, every SyncRound starts from a blank
// slate — a blacked-out peer is re-detected (and its retry timeouts re-paid)
// every round, and a peer that comes back is silently trusted with full
// weight immediately. With LiveConfig.Elastic, convictions persist: an
// excluded peer stays routed around (carried into each round Dead, zero
// detection cost) until it explicitly announces itself via RequestRejoin,
// receives a state resync (residuals + round counter) from a healthy donor,
// and survives a probation of probationRounds clean rounds before regaining
// full membership.
//
// The state behind all of it is the health plane's peer table (health.go,
// which also draws the lifecycle); nothing here keeps a copy.

// PeerState is one peer's position in the elastic membership lifecycle: a
// projection of its HealthState that folds away what membership does not
// care about (a Slow peer is a full member).
type PeerState int

const (
	// PeerHealthy is full membership: the peer participates normally.
	PeerHealthy PeerState = iota
	// PeerSuspected means the detector gathered inconclusive evidence
	// against the peer; it still participates, and a clean round clears the
	// suspicion.
	PeerSuspected
	// PeerConvicted means the failure detector convicted the peer; it is
	// excluded from every subsequent round until it requests rejoin.
	PeerConvicted
	// PeerProbation means the peer rejoined after a conviction and is
	// participating under observation; probationRounds clean rounds promote
	// it back to PeerHealthy, a new conviction sends it back to
	// PeerConvicted.
	PeerProbation
)

// peerState is the projection.
func (s HealthState) peerState() PeerState {
	switch s {
	case HealthSuspect:
		return PeerSuspected
	case HealthDead:
		return PeerConvicted
	case HealthProbation:
		return PeerProbation
	default: // Healthy, Slow
		return PeerHealthy
	}
}

// String implements fmt.Stringer.
func (s PeerState) String() string {
	switch s {
	case PeerHealthy:
		return "healthy"
	case PeerSuspected:
		return "suspected"
	case PeerConvicted:
		return "convicted"
	case PeerProbation:
		return "probation"
	default:
		return fmt.Sprintf("PeerState(%d)", int(s))
	}
}

// Elastic membership metric families.
const (
	MetricRejoinRequests     = "hipress_rejoin_requests_total"
	MetricRejoins            = "hipress_rejoins_total"
	MetricMembershipExcluded = "hipress_membership_excluded_rounds_total"
)

// Elastic reports whether cross-round membership is active.
func (lc *LiveCluster) Elastic() bool { return lc.cfg.Elastic }

// PeerStates returns a snapshot of every peer's membership state (all
// PeerHealthy when elastic membership is disabled).
func (lc *LiveCluster) PeerStates() []PeerState {
	out := make([]PeerState, lc.n)
	if !lc.cfg.Elastic {
		return out
	}
	for v := range out {
		out[v] = lc.health.stateOf(v).peerState()
	}
	return out
}

// PeerRound returns the last completed round peer v fully participated in
// (the "round counter" a rejoining peer resyncs from its donor), and the
// cluster's completed-round count, Rounds.
func (lc *LiveCluster) PeerRound(v int) (peer, cluster int) {
	if !lc.cfg.Elastic || v < 0 || v >= lc.n {
		return 0, 0
	}
	cluster = int(lc.Rounds())
	lc.health.mu.Lock()
	defer lc.health.mu.Unlock()
	return cluster - int(lc.health.peers[v].behind), cluster
}

// RequestRejoin is the announce + state-resync step of elastic rejoin: a
// previously convicted peer re-enters the cluster on probation. The peer
// adopts a healthy donor's error-feedback residuals (rejoining with stale —
// or zeroed — deferred gradient mass would inject a phantom gradient) and
// the donor's round counter, then must complete probationRounds clean
// rounds before full membership. Returns an error when v is not currently
// convicted or no healthy donor exists.
func (lc *LiveCluster) RequestRejoin(v int) error {
	if !lc.cfg.Elastic {
		return fmt.Errorf("core: RequestRejoin requires LiveConfig.Elastic")
	}
	if v < 0 || v >= lc.n {
		return fmt.Errorf("core: RequestRejoin node %d out of range [0,%d)", v, lc.n)
	}
	donor, err := lc.health.rejoin(v)
	if err != nil {
		return err
	}
	// State resync: adopt the donor's residual store so the rejoining
	// peer's error-feedback state is consistent with the survivors'.
	if err := lc.ImportNodeState(v, lc.NodeResiduals(donor)); err != nil {
		return err
	}
	if tr := lc.cfg.Telemetry.T(); tr.Enabled() {
		tr.Event(fmt.Sprintf("rejoin-request node%d (donor node%d)", v, donor), "rejoin", v, "net", tr.Now())
	}
	if m := lc.cfg.Telemetry.M(); m != nil {
		m.Counter(MetricRejoinRequests, "peers that announced rejoin and entered probation").Inc()
	}
	return nil
}

// SetChaos replaces the fault injector configuration applied to subsequent
// rounds (nil removes it) — how a test or driver lifts a scripted blackout
// before a peer rejoins. The configuration with c in place must still pass
// LiveConfig.Validate.
func (lc *LiveCluster) SetChaos(c *netsim.ChaosConfig) error {
	lc.chaosMu.Lock()
	defer lc.chaosMu.Unlock()
	cfg := lc.cfg
	cfg.Chaos = c
	if err := cfg.Validate(); err != nil {
		return err
	}
	lc.cfg.Chaos = c
	return nil
}

// chaosCfg reads the current fault injector configuration.
func (lc *LiveCluster) chaosCfg() *netsim.ChaosConfig {
	lc.chaosMu.Lock()
	defer lc.chaosMu.Unlock()
	return lc.cfg.Chaos
}
