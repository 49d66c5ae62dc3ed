package core

import (
	"fmt"
	"slices"
	"testing"

	"hipress/internal/tensor"
)

// membershipModel is the reference the peer table is held to: the three
// stores it replaced, kept as they were — the per-round verdict slices of
// roundState (dead / suspected / preseeded, with the scoreboard's suspect
// rule), and the cross-round membership machine with its update rule — minus
// the health plane's own copy, which the hooks only kept in step. Nil-mem
// behaviour (a non-elastic cluster) is the elastic flag.
type membershipModel struct {
	elastic     bool
	need, round int
	state       []memberState
	clean, last []int

	dead, suspected, preseeded []bool
}

// memberState is a peer's position in the membership model: its HealthState
// with what membership does not care about folded away (a Slow peer is a full
// member).
type memberState int

const (
	memberHealthy memberState = iota
	memberSuspected
	memberConvicted
	memberProbation
)

// memberStates projects the cluster's health states onto the model's, all
// healthy when elastic membership is off.
func memberStates(lc *LiveCluster) []memberState {
	out := make([]memberState, lc.n)
	if !lc.cfg.Elastic {
		return out
	}
	for v, st := range lc.HealthStates() {
		switch st {
		case HealthSuspect:
			out[v] = memberSuspected
		case HealthDead:
			out[v] = memberConvicted
		case HealthProbation:
			out[v] = memberProbation
		}
	}
	return out
}

func newMembershipModel(n int, elastic bool) *membershipModel {
	return &membershipModel{elastic: elastic, need: 2,
		state: make([]memberState, n), clean: make([]int, n), last: make([]int, n)}
}

// roundStart is newRoundState followed by preseedExcluded.
func (m *membershipModel) roundStart() (carried []int) {
	n := len(m.state)
	m.dead, m.suspected, m.preseeded = make([]bool, n), make([]bool, n), make([]bool, n)
	if !m.elastic {
		return nil
	}
	for v, st := range m.state {
		if st == memberConvicted {
			carried = append(carried, v)
			m.dead[v], m.preseeded[v] = true, true
		}
	}
	return carried
}

// convict is roundState.convict: the onDead hook fired exactly when it
// returns true.
func (m *membershipModel) convict(v int) (newly bool) {
	if v < 0 {
		return false
	}
	newly = !m.dead[v]
	m.dead[v] = true
	return newly
}

// suspect is roundState.suspect over the round's success scoreboard.
func (m *membershipModel) suspect(from, to int, succ []int) int {
	victim := -1
	switch {
	case m.dead[from]:
		victim = from
	case m.dead[to]:
		victim = to
	case succ[from] < succ[to]:
		victim = from
	case succ[to] < succ[from]:
		victim = to
	default:
		m.suspected[from], m.suspected[to] = true, true
	}
	m.convict(victim)
	return victim
}

// roundEnd is roundState.health's two peer lists followed by updateMembership.
func (m *membershipModel) roundEnd(clean bool) (h RoundHealth) {
	for v := range m.dead {
		if m.dead[v] {
			h.ExcludedPeers = append(h.ExcludedPeers, v)
		} else if m.suspected[v] {
			h.SuspectedPeers = append(h.SuspectedPeers, v)
		}
	}
	if !m.elastic {
		return h
	}
	m.round++
	for v := range m.state {
		if m.preseeded[v] {
			h.MembershipExcluded = append(h.MembershipExcluded, v)
		}
		if m.dead[v] && !m.preseeded[v] {
			m.state[v] = memberConvicted
			m.clean[v] = 0
		}
		switch m.state[v] {
		case memberConvicted:
			// Stays excluded until RequestRejoin.
		case memberProbation:
			if m.suspected[v] || !clean {
				m.clean[v] = 0 // suspicion or a failed round resets progress
				h.ProbationPeers = append(h.ProbationPeers, v)
				continue
			}
			m.clean[v]++
			m.last[v] = m.round
			if m.clean[v] >= m.need {
				m.state[v] = memberHealthy
				h.RejoinedPeers = append(h.RejoinedPeers, v)
			} else {
				h.ProbationPeers = append(h.ProbationPeers, v)
			}
		case memberSuspected:
			m.last[v] = m.round
			if !m.suspected[v] && clean {
				m.state[v] = memberHealthy
			}
		default: // memberHealthy
			m.last[v] = m.round
			if m.suspected[v] {
				m.state[v] = memberSuspected
			}
		}
	}
	return h
}

// rejoin is the state half of RequestRejoin.
func (m *membershipModel) rejoin(v int) error {
	if !m.elastic {
		return fmt.Errorf("not elastic")
	}
	if m.state[v] != memberConvicted {
		return fmt.Errorf("node %d is %v", v, m.state[v])
	}
	for u := range m.state {
		if u != v && m.state[u] == memberHealthy {
			m.state[v], m.clean[v], m.last[v] = memberProbation, 0, m.last[u]
			return nil
		}
	}
	return fmt.Errorf("no donor")
}

// TestPeerLifecycleMatchesMembershipModel drives the peer table and the model
// with the same seeded event sequences — convictions, scoreboard verdicts over
// tied and untied scores, clean and failed round ends, rejoin requests —
// elastic and not, and holds them equal at every round boundary: what
// memberStates projects and every peer list of RoundHealth. The one pinned
// difference is the round counter: the model's advances (and stamps its
// healthy peers) through failed rounds, PeerRound counts completed ones.
func TestPeerLifecycleMatchesMembershipModel(t *testing.T) {
	const n, sequences, rounds = 4, 1024, 12
	for seq := 0; seq < sequences; seq++ {
		elastic := seq%2 == 0
		lc, err := NewLiveCluster(n, LiveConfig{
			Strategy: StrategyPS, OnPeerFail: DegradeExclude, Elastic: elastic,
		})
		if err != nil {
			t.Fatal(err)
		}
		hp, m := lc.health, newMembershipModel(n, elastic)
		rng := tensor.NewRNG(uint64(seq))
		failed := 0
		fail := func(round int, format string, args ...any) {
			t.Helper()
			t.Fatalf("sequence %d (elastic %v) round %d: %s", seq, elastic, round, fmt.Sprintf(format, args...))
		}
		for round := 0; round < rounds; round++ {
			if got, want := hp.roundStart(), m.roundStart(); !slices.Equal(got, want) {
				fail(round, "carried into the round %v, model %v", got, want)
			}
			rs := newRoundState(n)
			for v := range rs.succ {
				rs.succ[v] = rng.Intn(2) // ties are common, strict orders too
			}
			for events := rng.Intn(4); events > 0; events-- {
				a := rng.Intn(n)
				b := (a + 1 + rng.Intn(n-1)) % n
				if rng.Intn(3) == 0 {
					if got, want := hp.convict(a), m.convict(a); got != want {
						fail(round, "convict(%d) newly = %v, model %v", a, got, want)
					}
					continue
				}
				victim := hp.scoreboard(a, b, rs)
				newly := hp.convict(victim)
				wasDead := victim >= 0 && m.dead[victim]
				if want := m.suspect(a, b, rs.succ); victim != want || newly != (want >= 0 && !wasDead) {
					fail(round, "scoreboard(%d,%d) = %d (newly %v), model %d (already dead %v)", a, b, victim, newly, want, wasDead)
				}
			}

			clean := rng.Intn(4) != 0
			var h RoundHealth
			hp.roundEnd(&h, clean)
			if clean {
				lc.rounds++ // SyncRoundContext's half of a completed round
			} else {
				failed++
			}
			want := m.roundEnd(clean)
			for _, l := range []struct {
				name      string
				got, want []int
			}{
				{"ExcludedPeers", h.ExcludedPeers, want.ExcludedPeers},
				{"SuspectedPeers", h.SuspectedPeers, want.SuspectedPeers},
				{"MembershipExcluded", h.MembershipExcluded, want.MembershipExcluded},
				{"ProbationPeers", h.ProbationPeers, want.ProbationPeers},
				{"RejoinedPeers", h.RejoinedPeers, want.RejoinedPeers},
			} {
				if !slices.Equal(l.got, l.want) {
					fail(round, "%s = %v, model %v", l.name, l.got, l.want)
				}
			}

			if rng.Intn(3) == 0 {
				v := rng.Intn(n)
				if got, want := lc.RequestRejoin(v), m.rejoin(v); (got == nil) != (want == nil) {
					fail(round, "RequestRejoin(%d) = %v, model %v", v, got, want)
				}
			}
			for v, st := range memberStates(lc) {
				if st != m.state[v] {
					fail(round, "memberStates(lc) = %v, model %v", memberStates(lc), m.state)
				}
				peer, cluster := lc.PeerRound(v)
				if !elastic {
					if peer != 0 || cluster != 0 {
						fail(round, "non-elastic PeerRound(%d) = (%d, %d), want zeros", v, peer, cluster)
					}
					continue
				}
				if cluster != m.round-failed || peer > cluster {
					fail(round, "PeerRound(%d) = (%d, %d), model round %d less %d failed", v, peer, cluster, m.round, failed)
				}
				if failed == 0 && peer != m.last[v] {
					fail(round, "PeerRound(%d) peer = %d, model %d", v, peer, m.last[v])
				}
			}
		}
	}
}
