package core

import (
	"fmt"
	"sort"
	"sync"

	"hipress/internal/netsim"
)

// This file is the elastic membership plane: cross-round peer lifecycle on
// top of the per-round scoreboard failure detector (faults.go). Without it,
// every SyncRound starts from a blank slate — a blacked-out peer is
// re-detected (and its retry timeouts re-paid) every round, and a peer that
// comes back is silently trusted with full weight immediately. With
// LiveConfig.Elastic, convictions persist: an excluded peer stays routed
// around (pre-seeded dead, zero detection cost) until it explicitly
// announces itself via RequestRejoin, receives a state resync (residuals +
// round counter) from a healthy donor, and survives a probation of N clean
// rounds before regaining full membership.
//
// Peer lifecycle:
//
//	Healthy ──tied evidence──▶ Suspected ──clean round──▶ Healthy
//	Healthy/Suspected/Probation ──conviction──▶ Convicted
//	Convicted ──RequestRejoin (resync from donor)──▶ Probation
//	Probation ──ProbationRounds clean rounds──▶ Healthy

// PeerState is one peer's position in the elastic membership lifecycle.
type PeerState int

const (
	// PeerHealthy is full membership: the peer participates normally.
	PeerHealthy PeerState = iota
	// PeerSuspected means the detector gathered tied (inconclusive)
	// evidence against the peer; it still participates, and a clean round
	// clears the suspicion.
	PeerSuspected
	// PeerConvicted means the failure detector convicted the peer; it is
	// excluded from every subsequent round until it requests rejoin.
	PeerConvicted
	// PeerProbation means the peer rejoined after a conviction and is
	// participating under observation; ProbationRounds clean rounds promote
	// it back to PeerHealthy, a new conviction sends it back to
	// PeerConvicted.
	PeerProbation
)

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

// membership is the cross-round peer state machine (nil unless
// LiveConfig.Elastic).
type membership struct {
	mu    sync.Mutex
	need  int         // clean probation rounds required for promotion
	round int         // completed-round counter
	state []PeerState // per-peer lifecycle position
	clean []int       // consecutive clean probation rounds per peer
	last  []int       // last round each peer fully participated in
}

func newMembership(n, need int) *membership {
	return &membership{
		need:  need,
		state: make([]PeerState, n),
		clean: make([]int, n),
		last:  make([]int, n),
	}
}

// Elastic reports whether cross-round membership is active.
func (lc *LiveCluster) Elastic() bool { return lc.mem != nil }

// PeerStates returns a snapshot of every peer's membership state (all
// PeerHealthy when elastic membership is disabled).
func (lc *LiveCluster) PeerStates() []PeerState {
	out := make([]PeerState, lc.n)
	if lc.mem == nil {
		return out
	}
	lc.mem.mu.Lock()
	copy(out, lc.mem.state)
	lc.mem.mu.Unlock()
	return out
}

// PeerRound returns the last completed round peer v fully participated in
// (the "round counter" a rejoining peer resyncs from its donor), and the
// cluster's current round count.
func (lc *LiveCluster) PeerRound(v int) (peer, cluster int) {
	if lc.mem == nil || v < 0 || v >= lc.n {
		return 0, 0
	}
	lc.mem.mu.Lock()
	defer lc.mem.mu.Unlock()
	return lc.mem.last[v], lc.mem.round
}

// RequestRejoin is the announce + state-resync step of elastic rejoin: a
// previously convicted peer re-enters the cluster on probation. The peer
// adopts a healthy donor's error-feedback residuals (rejoining with stale —
// or zeroed — deferred gradient mass would inject a phantom gradient) and
// the donor's round counter, then must complete ProbationRounds clean
// rounds before full membership. Returns an error when v is not currently
// convicted or no healthy donor exists.
func (lc *LiveCluster) RequestRejoin(v int) error {
	if lc.mem == nil {
		return fmt.Errorf("core: RequestRejoin requires LiveConfig.Elastic")
	}
	if v < 0 || v >= lc.n {
		return fmt.Errorf("core: RequestRejoin node %d out of range [0,%d)", v, lc.n)
	}
	lc.mem.mu.Lock()
	if lc.mem.state[v] != PeerConvicted {
		st := lc.mem.state[v]
		lc.mem.mu.Unlock()
		return fmt.Errorf("core: node %d is %v, only convicted peers can rejoin", v, st)
	}
	donor := -1
	for u := 0; u < lc.n; u++ {
		if u != v && lc.mem.state[u] == PeerHealthy {
			donor = u
			break
		}
	}
	if donor < 0 {
		lc.mem.mu.Unlock()
		return fmt.Errorf("core: node %d cannot rejoin: no healthy donor peer", v)
	}
	lc.mem.state[v] = PeerProbation
	lc.mem.clean[v] = 0
	lc.mem.last[v] = lc.mem.last[donor] // round-counter resync
	lc.mem.mu.Unlock()

	// State resync: adopt the donor's residual store so the rejoining
	// peer's error-feedback state is consistent with the survivors'.
	if err := lc.ImportNodeState(v, lc.NodeResiduals(donor)); err != nil {
		return err
	}
	lc.health.revive(v) // health plane mirrors the lifecycle: Dead → Probation
	if tr := lc.cfg.Telemetry.T(); tr.Enabled() {
		tr.Event(fmt.Sprintf("rejoin-request node%d (donor node%d)", v, donor), "rejoin", v, "net", tr.Now())
	}
	if m := lc.cfg.Telemetry.M(); m != nil {
		m.Counter(MetricRejoinRequests, "peers that announced rejoin and entered probation").Inc()
	}
	return nil
}

// preseedExcluded carries cross-round convictions into a starting round:
// every convicted peer is marked dead up front so the DAG routes around it
// without paying retry timeouts. Returns the carried list (ascending) for
// RoundHealth.
func (lc *LiveCluster) preseedExcluded(rs *roundState) []int {
	if lc.mem == nil {
		return nil
	}
	lc.mem.mu.Lock()
	var carried []int
	for v, st := range lc.mem.state {
		if st == PeerConvicted {
			carried = append(carried, v)
		}
	}
	lc.mem.mu.Unlock()
	for _, v := range carried {
		rs.markDead(v)
	}
	return carried
}

// updateMembership advances the lifecycle after a round: new convictions
// are recorded, suspicion is raised or cleared, probation progresses (and
// promotes after `need` clean rounds), and the RoundHealth gains the
// membership fields. clean is false when the round failed — probation makes
// no progress through a failed round.
func (lc *LiveCluster) updateMembership(h *RoundHealth, rs *roundState, carried []int, clean bool) {
	if lc.mem == nil {
		return
	}
	newly := rs.newlyDeadList()
	suspectSet := map[int]bool{}
	for _, v := range rs.suspectedList() {
		suspectSet[v] = true
	}

	m := lc.mem
	m.mu.Lock()
	m.round++
	var rejoined, probation []int
	for _, v := range newly {
		m.state[v] = PeerConvicted
		m.clean[v] = 0
	}
	for v := 0; v < lc.n; v++ {
		switch m.state[v] {
		case PeerConvicted:
			// Stays excluded until RequestRejoin.
		case PeerProbation:
			if suspectSet[v] || !clean {
				m.clean[v] = 0 // suspicion or a failed round resets progress
				probation = append(probation, v)
				continue
			}
			m.clean[v]++
			m.last[v] = m.round
			if m.clean[v] >= m.need {
				m.state[v] = PeerHealthy
				rejoined = append(rejoined, v)
			} else {
				probation = append(probation, v)
			}
		case PeerSuspected:
			m.last[v] = m.round
			if !suspectSet[v] && clean {
				m.state[v] = PeerHealthy
			}
		default: // PeerHealthy
			m.last[v] = m.round
			if suspectSet[v] {
				m.state[v] = PeerSuspected
			}
		}
	}
	m.mu.Unlock()

	sort.Ints(rejoined)
	h.MembershipExcluded = carried
	h.ProbationPeers = probation
	h.RejoinedPeers = rejoined
	for _, v := range rejoined {
		lc.health.promote(v) // probation completed: Probation → Healthy
	}

	tr := lc.cfg.Telemetry.T()
	met := lc.cfg.Telemetry.M()
	for _, v := range rejoined {
		if tr.Enabled() {
			tr.Event(fmt.Sprintf("rejoin-complete node%d", v), "rejoin", v, "net", tr.Now())
		}
		if met != nil {
			met.Counter(MetricRejoins, "peers promoted back to full membership after probation").Inc()
		}
	}
	if met != nil && len(carried) > 0 {
		met.Counter(MetricMembershipExcluded,
			"peer-rounds excluded by carried membership convictions").Add(float64(len(carried)))
	}
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
