package core

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"hipress/internal/netsim"
	"hipress/internal/telemetry"
)

// elasticCluster builds the standard rejoin-test cluster: 4 nodes, PS,
// exclude-on-failure, error-feedback onebit compression, elastic membership
// with a 2-round probation, and a scripted blackout of node 3.
func elasticCluster(t *testing.T, tel *telemetry.Set) *LiveCluster {
	t.Helper()
	lc, err := NewLiveCluster(4, LiveConfig{
		Strategy: StrategyPS, Parts: 1,
		Algo: "onebit", ErrorFeedback: true,
		Retry:        fastRetry,
		RoundTimeout: 30 * time.Second,
		OnPeerFail:   DegradeExclude, Renormalize: true,
		Elastic:   true,
		Telemetry: tel,
		Chaos:     &netsim.ChaosConfig{Seed: 5, NodeDown: map[int]bool{3: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return lc
}

// TestElasticRejoinLifecycle is the rejoin acceptance test: a blacked-out
// peer is convicted once, stays membership-excluded (without re-paying
// detection) while the blackout lasts, re-enters via RequestRejoin with a
// residual resync from a healthy donor, rides out the probation, and the
// cluster returns to full participation — Healthy everywhere, clean
// RoundHealth.
func TestElasticRejoinLifecycle(t *testing.T) {
	tel := telemetry.New()
	lc := elasticCluster(t, tel)
	sizes := map[string]int{"w": 193}

	round := func(seed uint64) *RoundHealth {
		t.Helper()
		grads, _ := makeGrads(seed, 4, sizes)
		_, health, err := lc.SyncRoundContext(t.Context(), grads)
		if err != nil {
			t.Fatalf("round (seed %d): %v (health %v)", seed, err, health)
		}
		return health
	}

	// Round 1: blackout → detector convicts node 3 mid-round.
	h := round(101)
	if got := lc.PeerStates(); got[3] != PeerConvicted {
		t.Fatalf("after blackout round, peer states = %v, want node3 convicted", got)
	}
	if len(h.MembershipExcluded) != 0 {
		t.Fatalf("round 1 carried exclusions %v, want none (conviction was fresh)", h.MembershipExcluded)
	}
	if !reflect.DeepEqual(h.ExcludedPeers, []int{3}) {
		t.Fatalf("round 1 excluded %v, want [3]", h.ExcludedPeers)
	}
	detectionRetries := h.Retries
	if detectionRetries == 0 {
		t.Fatal("round 1 paid no retries — conviction cannot have come from the scoreboard")
	}

	// Round 2: conviction carried over; node 3 pre-excluded, no detection
	// cost (the round routes around it from the first task).
	h = round(102)
	if !reflect.DeepEqual(h.MembershipExcluded, []int{3}) {
		t.Fatalf("round 2 membership exclusions %v, want [3]", h.MembershipExcluded)
	}
	if !reflect.DeepEqual(h.ExcludedPeers, []int{3}) {
		t.Fatalf("round 2 excluded %v, want [3]", h.ExcludedPeers)
	}
	// Node 3 is still down: a single frame addressed to it would be
	// blackholed. (Retries would be a wall-clock stand-in for this — an ack
	// that outlives a 2 ms backoff under host load is not a detection cost.)
	if h.Chaos.Blackholed != 0 {
		t.Fatalf("round 2 sent %d frames into the blackout; carried exclusion should cost zero detection", h.Chaos.Blackholed)
	}

	// Lift the blackout. The peer does NOT auto-rejoin: membership still
	// excludes it until it announces.
	if err := lc.SetChaos(nil); err != nil {
		t.Fatal(err)
	}
	h = round(103)
	if !reflect.DeepEqual(h.MembershipExcluded, []int{3}) {
		t.Fatalf("post-blackout round still excludes via membership; got %v", h.MembershipExcluded)
	}

	// Announce + state resync: node 3 adopts donor residuals and enters
	// probation.
	if err := lc.RequestRejoin(3); err != nil {
		t.Fatal(err)
	}
	if got := lc.PeerStates(); got[3] != PeerProbation {
		t.Fatalf("after RequestRejoin, peer states = %v, want node3 probation", got)
	}
	// Residual resync: node 3's store must now equal the donor's (node 0),
	// bitwise.
	donorRes, peerRes := lc.NodeResiduals(0), lc.NodeResiduals(3)
	if len(donorRes) == 0 {
		t.Fatal("donor has no residual state — EF rounds should have accumulated some")
	}
	if len(peerRes) != len(donorRes) {
		t.Fatalf("resync copied %d residual keys, donor has %d", len(peerRes), len(donorRes))
	}
	for k, dv := range donorRes {
		pv := peerRes[k]
		if len(pv) != len(dv) {
			t.Fatalf("residual %q: %d elems vs donor %d", k, len(pv), len(dv))
		}
		for i := range dv {
			if math.Float32bits(pv[i]) != math.Float32bits(dv[i]) {
				t.Fatalf("residual %q[%d] not resynced: %x vs donor %x",
					k, i, math.Float32bits(pv[i]), math.Float32bits(dv[i]))
			}
		}
	}
	// Double-rejoin is rejected (peer is on probation, not convicted).
	if err := lc.RequestRejoin(3); err == nil {
		t.Fatal("second RequestRejoin succeeded while on probation")
	}

	// Probation round 1/2: full participation, no exclusions, but not yet
	// promoted.
	h = round(104)
	if h.Degraded() {
		t.Fatalf("probation round degraded: %v", h)
	}
	if !reflect.DeepEqual(h.ProbationPeers, []int{3}) || len(h.RejoinedPeers) != 0 {
		t.Fatalf("probation 1/2: probation=%v rejoined=%v, want [3] / []", h.ProbationPeers, h.RejoinedPeers)
	}

	// Probation round 2/2: promotion back to full membership.
	h = round(105)
	if !reflect.DeepEqual(h.RejoinedPeers, []int{3}) || len(h.ProbationPeers) != 0 {
		t.Fatalf("probation 2/2: probation=%v rejoined=%v, want [] / [3]", h.ProbationPeers, h.RejoinedPeers)
	}
	for v, st := range lc.PeerStates() {
		if st != PeerHealthy {
			t.Fatalf("after promotion, node %d is %v, want healthy", v, st)
		}
	}

	// Steady state: full participation, clean health.
	h = round(106)
	if h.Degraded() || len(h.ExcludedPeers) != 0 || len(h.MembershipExcluded) != 0 ||
		len(h.ProbationPeers) != 0 {
		t.Fatalf("steady-state round not fully recovered: %v", h)
	}
	peerLast, cluster := lc.PeerRound(3)
	if peerLast != cluster {
		t.Fatalf("rejoined peer's round counter %d lags cluster %d", peerLast, cluster)
	}

	// Telemetry: the rejoin lifecycle left its counters behind.
	m := tel.M()
	if got := m.Counter(MetricRejoinRequests, "").Value(); got != 1 {
		t.Fatalf("rejoin request counter = %v, want 1", got)
	}
	if got := m.Counter(MetricRejoins, "").Value(); got != 1 {
		t.Fatalf("rejoin counter = %v, want 1", got)
	}
	if got := m.Counter(MetricMembershipExcluded, "").Value(); got < 2 {
		t.Fatalf("membership exclusion counter = %v, want ≥ 2", got)
	}
}

// TestPeerRoundCountsCompletedRounds: PeerRound's cluster value is Rounds —
// a failed round is not a completed one, and nobody participated fully in it.
func TestPeerRoundCountsCompletedRounds(t *testing.T) {
	lc, err := NewLiveCluster(3, LiveConfig{
		Strategy: StrategyPS, Retry: fastRetry,
		OnPeerFail: DegradeExclude, Elastic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	grads, _ := makeGrads(7, 3, map[string]int{"w": 64})
	cancelled, cancel := context.WithCancel(t.Context())
	cancel()
	if _, _, err := lc.SyncRoundContext(cancelled, grads); err == nil {
		t.Fatal("a round under a cancelled context completed")
	}
	check := func(want int) {
		t.Helper()
		for v := 0; v < 3; v++ {
			peer, cluster := lc.PeerRound(v)
			if cluster != int(lc.Rounds()) || cluster != want || peer != cluster {
				t.Fatalf("PeerRound(%d) = (%d, %d) with Rounds() = %d, want (%d, %d)",
					v, peer, cluster, lc.Rounds(), want, want)
			}
		}
	}
	check(0)
	if _, _, err := lc.SyncRoundContext(t.Context(), grads); err != nil {
		t.Fatal(err)
	}
	check(1)
}

// TestElasticProbationResetOnReconviction: a peer that fails again during
// probation goes straight back to Convicted and must re-announce.
func TestElasticProbationResetOnReconviction(t *testing.T) {
	lc := elasticCluster(t, nil)
	sizes := map[string]int{"w": 97}
	round := func(seed uint64) *RoundHealth {
		t.Helper()
		grads, _ := makeGrads(seed, 4, sizes)
		_, health, err := lc.SyncRoundContext(t.Context(), grads)
		if err != nil {
			t.Fatalf("round: %v", err)
		}
		return health
	}
	round(1) // conviction
	if err := lc.SetChaos(nil); err != nil {
		t.Fatal(err)
	}
	if err := lc.RequestRejoin(3); err != nil {
		t.Fatal(err)
	}
	round(2) // probation 1/2
	// Blackout returns mid-probation.
	if err := lc.SetChaos(&netsim.ChaosConfig{Seed: 9, NodeDown: map[int]bool{3: true}}); err != nil {
		t.Fatal(err)
	}
	h := round(3)
	if !reflect.DeepEqual(h.ExcludedPeers, []int{3}) {
		t.Fatalf("re-blackout round excluded %v, want [3]", h.ExcludedPeers)
	}
	if got := lc.PeerStates(); got[3] != PeerConvicted {
		t.Fatalf("probation peer not re-convicted: %v", got)
	}
	// Recovery still works after the second conviction.
	if err := lc.SetChaos(nil); err != nil {
		t.Fatal(err)
	}
	if err := lc.RequestRejoin(3); err != nil {
		t.Fatal(err)
	}
	round(4)
	h = round(5)
	if !reflect.DeepEqual(h.RejoinedPeers, []int{3}) {
		t.Fatalf("second recovery did not complete: %v", h)
	}
}

// TestElasticValidationAndErrors: configuration guards and rejoin
// preconditions.
func TestElasticValidationAndErrors(t *testing.T) {
	if _, err := NewLiveCluster(3, LiveConfig{
		Strategy: StrategyRing, Elastic: true,
	}); err == nil {
		t.Fatal("Elastic on a ring accepted")
	}
	lc, err := NewLiveCluster(3, LiveConfig{
		Strategy: StrategyPS, Elastic: true,
		OnPeerFail: DegradeExclude,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.RequestRejoin(1); err == nil {
		t.Fatal("rejoin of a healthy peer accepted")
	}
	if err := lc.RequestRejoin(7); err == nil {
		t.Fatal("rejoin of an out-of-range peer accepted")
	}
	// Non-elastic cluster rejects rejoin outright.
	plain, err := NewLiveCluster(3, LiveConfig{Strategy: StrategyPS})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.RequestRejoin(1); err == nil {
		t.Fatal("rejoin on a non-elastic cluster accepted")
	}
}
