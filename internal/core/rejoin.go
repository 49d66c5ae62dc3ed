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
// which also draws the lifecycle); nothing here keeps a copy. Its one reader
// is LiveCluster.HealthStates: a Healthy or Slow peer is a full member, a
// Dead one is excluded.

// Elastic membership metric families.
const (
	MetricRejoinRequests     = "hipress_rejoin_requests_total"
	MetricRejoins            = "hipress_rejoins_total"
	MetricMembershipExcluded = "hipress_membership_excluded_rounds_total"
)

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
	if lc.ef != nil && lc.ef[v] != nil {
		lc.ef[v].SetResiduals(lc.ef[donor].Residuals())
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
