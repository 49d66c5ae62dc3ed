package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hipress/internal/telemetry"
)

// This file is the adaptive health plane: a per-peer φ-accrual failure
// detector fed by per-link RTT samples harvested from the ack path (plus
// lightweight idle heartbeats) and Jacobson/Karels RTT-adaptive retry
// deadlines. It also owns the policy of the live plane's one delivery loop:
// the fixed deadlines and scoreboard verdicts of the static RetryPolicy, or
// a continuous suspicion level and typed Healthy/Slow/Suspect/Probation/Dead
// transitions that drive the Degrade/Convict/Rejoin machinery.
//
// It is also the only store of what the live plane knows about a peer — the
// peer table below. The failure detector's verdicts, the lifecycle and
// elastic membership (rejoin.go) are this one state machine; RoundHealth's
// peer lists and LiveCluster.PeerStates are read off it.
//
// Peer lifecycle:
//
//	Healthy ◀──────────────┐
//	   │  φ ≥ phiSuspect,  │ φ < phiSuspect on arrival, or a
//	   ▼  or a tied score  │ clean round with no new suspicion
//	Suspect ───────────────┘
//	   │  φ ≥ phiConvict, or strictly fewer acked transfers (from any live state)
//	   ▼
//	 Dead ──RequestRejoin, or the next round──▶ Probation ──clean rounds──▶ Healthy
//	   ▲                                            │
//	   └───────────────re-conviction────────────────┘
//	Healthy ◀──srtt back under the bar── Slow ◀──srtt > slowFactor·median──
//
// LiveConfig.Elastic changes two values and nothing else: who revives a Dead
// peer (LiveCluster.RequestRejoin, or — non-elastic — the next roundStart,
// so every round re-detects from scratch) and how many clean rounds
// Probation takes (probationRounds, or one).
//
// Invariant (enforced by setStateLocked, exercised by FuzzPhiDetector): a
// Dead peer can only leave through Probation — there is no Dead→Healthy
// shortcut.

// HealthState is one peer's position in the health plane's lifecycle.
type HealthState int

const (
	// HealthHealthy is full trust: φ below the suspicion threshold.
	HealthHealthy HealthState = iota
	// HealthSlow marks a live but straggling peer (srtt above
	// slowFactor × cluster median at round end). Slow peers participate
	// normally — the adaptive deadlines simply stretch for them.
	HealthSlow
	// HealthSuspect means φ crossed phiSuspect without reaching
	// phiConvict: suspicion is accruing but evidence is inconclusive.
	HealthSuspect
	// HealthProbation is the trial state between Dead and Healthy: the
	// peer participates again, and enough consecutive clean rounds
	// (probationRounds when elastic, one otherwise) restore it.
	HealthProbation
	// HealthDead is a conviction: the peer is excluded per policy.
	HealthDead
)

// String implements fmt.Stringer.
func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthSlow:
		return "slow"
	case HealthSuspect:
		return "suspect"
	case HealthProbation:
		return "probation"
	case HealthDead:
		return "dead"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// HealthConfig selects the health plane's delivery policy. The zero value
// gives the static RetryPolicy, with the plane harvesting RTT evidence for
// error reports; set Adaptive for φ-accrual convictions and RTT-adaptive
// deadlines, whose bounds are constants (maxRTO, bootstrapRTO, maxAttempts).
type HealthConfig struct {
	// Adaptive selects the delivery loop's adaptive policy: per-link RTO
	// deadlines, φ-accrual convictions and (when HeartbeatEvery is set)
	// idle heartbeats. Off, the loop follows the static RetryPolicy and the
	// plane still harvests RTT samples from the ack path so
	// PeerFailureError carries link evidence.
	Adaptive bool
	// HeartbeatEvery sends idle liveness probes on every live link at
	// this period so the detector keeps accruing arrivals between data
	// transfers. Zero disables heartbeats.
	HeartbeatEvery time.Duration
	// Now, when non-nil, supplies the plane's timestamps (a virtual
	// clock). Live rounds still wait on wall timers; Now only stamps
	// detector observations and RTT samples, which is what tests and the
	// fuzz harness drive deterministically.
	Now func() time.Duration
}

// The health plane's fixed parameters.
const (
	// phiSuspect is the suspicion threshold: φ at or above it moves a peer
	// to HealthSuspect.
	phiSuspect = 4.0
	// phiConvict is the conviction threshold: when a send's adaptive
	// deadline expires and an endpoint's φ has reached it, that endpoint is
	// convicted. φ ≈ 10 corresponds to a silence ~23× the mean arrival
	// interval (exponential accrual).
	phiConvict = 10.0
	// minRTO and maxRTO bound the per-link retransmission timeout.
	minRTO = time.Millisecond
	maxRTO = 2 * time.Second
	// bootstrapRTO seeds deadlines and detector intervals before a link
	// has real samples.
	bootstrapRTO = 25 * time.Millisecond
	// maxAttempts is the adaptive attempt budget. With doubling RTOs this is
	// a far larger wall-clock budget than the static policy's, because the φ
	// detector — not attempt exhaustion — is the intended conviction path.
	maxAttempts = 10
	// slowFactor classifies a peer Slow when its srtt exceeds slowFactor ×
	// the cluster median srtt at round end.
	slowFactor = 3.0
	// phiWindow is the φ detector's inter-arrival sample window.
	phiWindow = 64
	// probationRounds is how many consecutive clean rounds a peer revived by
	// RequestRejoin must complete before regaining full membership.
	probationRounds = 2
)

// rttEstimator is the Jacobson/Karels smoothed RTT state for one directed
// link. Units are seconds; methods are not goroutine-safe (the health
// plane's mutex guards them).
type rttEstimator struct {
	srtt    float64 // smoothed RTT
	rttvar  float64 // mean deviation
	last    float64 // most recent raw sample
	samples int
}

// observe folds one RTT sample in (RFC 6298 coefficients: α=1/8, β=1/4).
func (e *rttEstimator) observe(rtt float64) {
	if rtt < 0 || math.IsNaN(rtt) || math.IsInf(rtt, 0) {
		return
	}
	e.last = rtt
	if e.samples == 0 {
		e.srtt = rtt
		e.rttvar = rtt / 2
	} else {
		e.rttvar += (math.Abs(e.srtt-rtt) - e.rttvar) / 4
		e.srtt += (rtt - e.srtt) / 8
	}
	e.samples++
}

// rto returns srtt + 4·rttvar clamped to [min, max], or 0 when the link
// has no samples yet (callers fall back to the bootstrap RTO).
func (e *rttEstimator) rto(min, max float64) float64 {
	if e.samples == 0 {
		return 0
	}
	r := e.srtt + 4*e.rttvar
	if r < min {
		r = min
	}
	if r > max {
		r = max
	}
	return r
}

// phiDetector is one peer's φ-accrual failure detector (exponential form,
// as deployed in Cassandra/Akka): arrivals feed a sliding window of
// inter-arrival intervals, and the suspicion level is
//
//	φ(t) = log10(e) · (t − t_last) / mean_interval
//
// which grows without bound during silence and snaps back on arrival.
// φ is clamped to be finite and non-negative for any input.
//
// minMean floors the window mean: messages delayed in flight bunch up on
// delivery, filling the window with near-zero intervals, and an unfloored
// mean then turns any ordinary delivery gap into a conviction-grade φ
// (the classic accrual-detector burst pathology). The floor is the
// expected arrival cadence — heartbeat period when heartbeats run, the
// bootstrap RTO otherwise.
type phiDetector struct {
	window  []float64 // ring of inter-arrival intervals (seconds)
	sum     float64
	next    int
	count   int
	last    float64 // timestamp of the most recent arrival (seconds)
	minMean float64
	primed  bool
}

func newPhiDetector(window int, minMean float64) *phiDetector {
	if minMean < 0 || math.IsNaN(minMean) || math.IsInf(minMean, 0) {
		minMean = 0
	}
	return &phiDetector{window: make([]float64, window), minMean: minMean}
}

// prime seeds the detector with one synthetic interval so φ is meaningful
// before the first real arrival (a blacked-out-from-birth peer must still
// accrue suspicion).
func (d *phiDetector) prime(now, meanInterval float64) {
	if meanInterval <= 0 || math.IsNaN(meanInterval) || math.IsInf(meanInterval, 0) {
		meanInterval = 1e-3
	}
	d.push(meanInterval)
	d.last = now
	d.primed = true
}

// observe records an arrival at time now.
func (d *phiDetector) observe(now float64) {
	if !d.primed {
		return
	}
	iv := now - d.last
	if iv < 0 {
		iv = 0
	}
	d.push(iv)
	d.last = now
}

func (d *phiDetector) push(iv float64) {
	if d.count == len(d.window) {
		d.sum -= d.window[d.next]
	} else {
		d.count++
	}
	d.window[d.next] = iv
	d.sum += iv
	d.next = (d.next + 1) % len(d.window)
	if d.sum < 0 {
		d.sum = 0 // floating-point drift guard
	}
}

// phi returns the suspicion level at time now: 0 for an unprimed detector,
// never NaN, never negative.
func (d *phiDetector) phi(now float64) float64 {
	if !d.primed || d.count == 0 {
		return 0
	}
	mean := d.sum / float64(d.count)
	if mean < d.minMean {
		mean = d.minMean
	}
	if mean < 1e-9 {
		mean = 1e-9
	}
	t := now - d.last
	if t < 0 || math.IsNaN(t) {
		t = 0
	}
	p := math.Log10(math.E) * t / mean
	if math.IsNaN(p) || p < 0 {
		return 0
	}
	return p
}

// linkEvidence is the RTT/φ evidence snapshot surfaced in
// PeerFailureError so operators can distinguish "dead" from "mistuned
// timeout".
type linkEvidence struct {
	LastRTT time.Duration
	Samples int
	Phi     float64
	// Reconnects counts connection-lifecycle failures (socket-plane redial
	// budgets exhausted) observed against the peer this round — evidence a
	// conviction can cite alongside the φ score.
	Reconnects int64
}

// peer is one row of the peer table: everything the live plane knows about
// one peer, across rounds and within the current one. Everything but state
// and reconn is guarded by healthPlane.mu.
type peer struct {
	// state is the lifecycle position (a HealthState). It is written only by
	// setStateLocked, under healthPlane.mu, and read with an atomic load: the
	// round's "is this peer dead?" checks (thousands per round on a healthy
	// cluster, every one answering no) take no lock.
	state atomic.Int32
	det   *phiDetector
	// reconn counts socket-plane reconnect failures against the peer this
	// round.
	reconn atomic.Int64
	// clean counts the consecutive clean rounds of the current probation.
	clean int
	// behind counts the completed rounds the peer did not fully participate
	// in since it last did: LiveCluster.PeerRound is the cluster's round
	// count less this.
	behind int64
	// suspected marks inconclusive evidence gathered against the peer this
	// round (a tied scoreboard, or φ in [phiSuspect, phiConvict) at an
	// expired deadline).
	suspected bool
	// carried marks a peer that entered this round Dead: excluded from the
	// first task on, at no detection cost.
	carried bool
}

// healthPlane is the per-cluster health state every live cluster keeps: an
// rttEstimator per directed link and the peer table. It persists across
// rounds (that is the point — steady-state rounds inherit learned deadlines
// and standing convictions).
type healthPlane struct {
	cfg HealthConfig
	// maxRTO, bootstrapRTO and maxAttempts are the adaptive policy's
	// constants, held here so in-package tests can shrink them.
	maxRTO, bootstrapRTO time.Duration
	maxAttempts          int
	// retry is the static policy the delivery loop falls back on when the
	// plane is passive (cfg.Adaptive unset).
	retry RetryPolicy
	n     int
	// autoRevive and probation are all that LiveConfig.Elastic changes: who
	// revives a Dead peer (the next roundStart, or RequestRejoin) and how
	// many clean rounds its Probation then takes.
	autoRevive bool
	probation  int
	birth      time.Time
	tel        *telemetry.Set

	mu    sync.Mutex
	links []rttEstimator // n×n, flat [from*n+to]
	peers []peer
	// srtt and pos are roundEnd's scratch: per-peer latency figures and the
	// positive ones among them.
	srtt, pos []float64
	// dead counts the peers in HealthDead (maintained by setStateLocked) so
	// "is anybody dead?" is one atomic load.
	dead atomic.Int32
}

func newHealthPlane(n int, cfg *HealthConfig, retry RetryPolicy, elastic bool, tel *telemetry.Set) *healthPlane {
	var c HealthConfig
	if cfg != nil {
		c = *cfg
	}
	hp := &healthPlane{
		cfg:          c,
		maxRTO:       maxRTO,
		bootstrapRTO: bootstrapRTO,
		maxAttempts:  maxAttempts,
		retry:        retry,
		n:            n,
		autoRevive:   !elastic,
		probation:    1,
		birth:        time.Now(), //hipress:wallclock phi-detector epoch base; virtual clock injectable via cfg.Now
		tel:          tel,
		links:        make([]rttEstimator, n*n),
		peers:        make([]peer, n),
		srtt:         make([]float64, n),
	}
	if elastic {
		hp.probation = probationRounds
	}
	minMean := bootstrapRTO.Seconds()
	if c.HeartbeatEvery > 0 {
		minMean = c.HeartbeatEvery.Seconds()
	}
	for v := range hp.peers {
		hp.peers[v].det = newPhiDetector(phiWindow, minMean)
	}
	return hp
}

// clock returns the plane's current timestamp (virtual when cfg.Now is
// injected, wall-clock since birth otherwise).
func (hp *healthPlane) clock() time.Duration {
	if hp.cfg.Now != nil {
		return hp.cfg.Now()
	}
	return time.Since(hp.birth) //hipress:wallclock RTT/failure-detection clock, not on the result-bytes path
}

func (hp *healthPlane) seconds() float64 { return hp.clock().Seconds() }

// stateOf returns peer v's lifecycle state (lock-free).
func (hp *healthPlane) stateOf(v int) HealthState {
	if v < 0 || v >= hp.n {
		return HealthHealthy
	}
	return HealthState(hp.peers[v].state.Load())
}

// isDead reports whether peer v stands convicted (lock-free).
func (hp *healthPlane) isDead(v int) bool { return hp.stateOf(v) == HealthDead }

// anyDead reports whether any peer stands convicted (lock-free).
func (hp *healthPlane) anyDead() bool { return hp.dead.Load() > 0 }

// setStateLocked performs one lifecycle transition, enforcing the
// Dead-only-exits-via-Probation invariant and emitting the transition to
// telemetry. Called with hp.mu held.
func (hp *healthPlane) setStateLocked(v int, to HealthState) {
	from := hp.stateOf(v)
	if from == to {
		return
	}
	if from == HealthDead && to != HealthProbation {
		panic(fmt.Sprintf("core: health plane: illegal transition node %d %v→%v (Dead exits only via Probation)", v, from, to))
	}
	if to == HealthDead {
		hp.dead.Add(1)
	} else if from == HealthDead {
		hp.dead.Add(-1)
		hp.peers[v].clean = 0 // a fresh probation
	}
	hp.peers[v].state.Store(int32(to))
	hp.emitTransition(v, from, to)
}

// convict is the single conviction entry: it declares v Dead (v < 0: nobody)
// and reports whether this call did it, so the caller degrades or aborts the
// round exactly once per conviction.
func (hp *healthPlane) convict(v int) (newly bool) {
	if v < 0 || v >= hp.n {
		return false
	}
	hp.mu.Lock()
	defer hp.mu.Unlock()
	newly = hp.stateOf(v) != HealthDead
	hp.setStateLocked(v, HealthDead)
	return newly
}

// roundStart re-arms the plane for a new round: this round's suspicion marks
// and reconnect evidence are cleared, detectors are primed (or their idle
// inter-round gap forgiven — the driver's compute time between rounds is not
// evidence of peer failure), and a Dead peer is either revived for its
// probation trial (non-elastic: every round re-detects) or carried into the
// round still Dead. It returns the carried peers, ascending.
func (hp *healthPlane) roundStart() (carried []int) {
	now := hp.seconds()
	hp.mu.Lock()
	defer hp.mu.Unlock()
	for v := range hp.peers {
		p := &hp.peers[v]
		p.reconn.Store(0)
		p.suspected = false
		if hp.autoRevive && hp.isDead(v) {
			hp.setStateLocked(v, HealthProbation)
		}
		if p.carried = hp.isDead(v); p.carried {
			carried = append(carried, v)
		}
		if p.det.primed {
			p.det.last = now
		} else {
			p.det.prime(now, hp.bootstrapRTO.Seconds())
		}
	}
	return carried
}

// arrival records any sign of life from peer (an ack, a data message, a
// heartbeat echo): the detector accrues the inter-arrival interval, and a
// Suspect peer whose φ dropped back under the threshold recovers.
func (hp *healthPlane) arrival(peer int) {
	if peer < 0 || peer >= hp.n {
		return
	}
	now := hp.seconds()
	hp.mu.Lock()
	d := hp.peers[peer].det
	if !d.primed {
		d.prime(now, hp.bootstrapRTO.Seconds())
	}
	d.observe(now)
	if hp.stateOf(peer) == HealthSuspect && d.phi(now) < phiSuspect {
		hp.setStateLocked(peer, HealthHealthy)
	}
	hp.mu.Unlock()
}

// observeRTT folds one round-trip sample into the from→to link estimator.
func (hp *healthPlane) observeRTT(from, to int, rtt time.Duration) {
	if from < 0 || to < 0 || from >= hp.n || to >= hp.n || rtt < 0 {
		return
	}
	hp.mu.Lock()
	hp.links[from*hp.n+to].observe(rtt.Seconds())
	hp.mu.Unlock()
}

// rto returns the adaptive retransmission deadline of 0-based attempt on
// the from→to link: the Jacobson/Karels RTO doubled per retry (Karn's
// backoff), clamped to [minRTO, maxRTO]. Virgin links use bootstrapRTO.
func (hp *healthPlane) rto(from, to, attempt int) time.Duration {
	base := 0.0
	hp.mu.Lock()
	base = hp.links[from*hp.n+to].rto(minRTO.Seconds(), hp.maxRTO.Seconds())
	hp.mu.Unlock()
	if base == 0 {
		base = hp.bootstrapRTO.Seconds()
	}
	d := time.Duration(base * float64(time.Second))
	for k := 0; k < attempt; k++ {
		d *= 2
		if d >= hp.maxRTO {
			return hp.maxRTO
		}
	}
	if d < minRTO {
		d = minRTO
	}
	return d
}

// The live plane has one acknowledged-or-retried delivery loop
// (liveRound.deliver). The static RetryPolicy and the adaptive plane differ
// only in how they answer the loop's three questions below, each a single
// branch on cfg.Adaptive:
//
//	question           static                             adaptive
//	attempt budget     2·Retry.MaxAttempts (with grace)   maxAttempts
//	attempt deadline   Retry.backoff(attempt)             rto(from, to, attempt)
//	verdict on expiry  scoreboard, from MaxAttempts-1 on  φ judge, every expiry

// attemptBudget is how many transmissions one transfer may make before the
// loop gives up with a *PeerFailureError. The static budget is the retry
// phase plus an equally long grace phase in which the scoreboard may still
// break a tie.
func (hp *healthPlane) attemptBudget() int {
	if hp.cfg.Adaptive {
		return hp.maxAttempts
	}
	return 2 * hp.retry.MaxAttempts
}

// attemptDeadline is how long 0-based attempt waits for its ack before the
// verdict is asked: a fixed capped-exponential schedule, or the link's own
// learned RTO.
func (hp *healthPlane) attemptDeadline(from, to, attempt int) time.Duration {
	if hp.cfg.Adaptive {
		return hp.rto(from, to, attempt)
	}
	return hp.retry.backoff(attempt)
}

// verdict is asked when attempt's deadline expired unacknowledged. It returns
// the endpoint it holds at fault, now convicted — newly when this verdict did
// it — or -1 to keep retrying. The static policy trusts the attempt counter
// first and consults the scoreboard from the last regular attempt through the
// whole grace phase — a conviction that becomes decidable mid-grace must not
// wait out the remaining attempts. The adaptive policy asks the φ detector on
// every expiry, so a slow-but-alive peer accrues stretched deadlines rather
// than a conviction.
func (hp *healthPlane) verdict(from, to, attempt int, rs *roundState) (victim int, newly bool) {
	switch {
	case hp.cfg.Adaptive:
		victim = hp.judge(from, to, rs)
	case attempt < hp.retry.MaxAttempts-1:
		return -1, false
	default:
		victim = hp.scoreboard(from, to, rs)
	}
	return victim, hp.convict(victim)
}

// scoreboard is the static verdict on an unacknowledged from→to transfer,
// the "judge by the scoreboard" rule: the endpoint with strictly fewer
// acknowledged transfers this round is at fault. A blacked-out node has zero
// successes while healthy nodes accumulate them, so the rule names the
// isolated endpoint even when the suspector is the isolated node itself
// (self-diagnosis). A tie is inconclusive (-1): both endpoints are marked
// suspected, the sender keeps retrying through its grace phase and
// eventually surfaces a typed error.
func (hp *healthPlane) scoreboard(from, to int, rs *roundState) int {
	switch {
	case hp.isDead(from):
		return from
	case hp.isDead(to):
		return to
	}
	victim := rs.fewerAcked(from, to)
	if victim < 0 {
		hp.mu.Lock()
		hp.peers[from].suspected, hp.peers[to].suspected = true, true
		hp.mu.Unlock()
	}
	return victim
}

// phi returns peer v's current suspicion level.
func (hp *healthPlane) phi(v int) float64 {
	if v < 0 || v >= hp.n {
		return 0
	}
	now := hp.seconds()
	hp.mu.Lock()
	defer hp.mu.Unlock()
	return hp.peers[v].det.phi(now)
}

// judge is the adaptive verdict for an expired deadline on from→to: it names
// the endpoint whose φ has crossed phiConvict (the higher one when both
// have), falls back to the success-scoreboard tie-break when the φ evidence
// alone cannot separate the endpoints, and otherwise records suspicion and
// returns -1 (keep retrying).
func (hp *healthPlane) judge(from, to int, rs *roundState) int {
	now := hp.seconds()
	hp.mu.Lock()
	pf := hp.peers[from].det.phi(now)
	pt := hp.peers[to].det.phi(now)
	fc, tc := pf >= phiConvict, pt >= phiConvict
	mark := func(v int, p float64) {
		if p < phiSuspect {
			return
		}
		if st := hp.stateOf(v); st == HealthHealthy || st == HealthSlow {
			hp.setStateLocked(v, HealthSuspect)
		}
		if !fc && !tc {
			hp.peers[v].suspected = true // evidence, and nobody to convict
		}
	}
	mark(from, pf)
	mark(to, pt)
	hp.mu.Unlock()

	switch {
	case !fc && !tc:
		return -1
	case tc && (!fc || pt > pf):
		return to
	case fc && (!tc || pf > pt):
		return from
	}
	// Both convictable with equal φ: let the per-round scoreboard break
	// the tie (strictly fewer acked transfers loses), as the static
	// detector does.
	return rs.fewerAcked(from, to)
}

// rejoin is RequestRejoin's transition: Dead peer v enters Probation and
// adopts the round position of a healthy donor, which it returns.
func (hp *healthPlane) rejoin(v int) (donor int, err error) {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	if st := hp.stateOf(v); st != HealthDead {
		return -1, fmt.Errorf("core: node %d is %v, only convicted peers can rejoin", v, st.peerState())
	}
	donor = -1
	for u := range hp.peers {
		if u != v && hp.stateOf(u).peerState() == PeerHealthy {
			donor = u
			break
		}
	}
	if donor < 0 {
		return -1, fmt.Errorf("core: node %d cannot rejoin: no healthy donor peer", v)
	}
	hp.setStateLocked(v, HealthProbation)
	hp.peers[v].behind = hp.peers[donor].behind // round-counter resync
	return donor, nil
}

// roundEnd closes one round and reports it: in one pass over the peer table,
// slow peers are (re)classified against the cluster-median srtt, this round's
// suspicion becomes (or, after a clean round without any, stops being)
// Suspect, probation advances — a clean round the peer drew no suspicion in
// counts, anything else starts the count over — and h gains its peer lists
// and per-peer φ. clean is false when the round failed: nobody participated
// fully in a round that did not complete.
func (hp *healthPlane) roundEnd(h *RoundHealth, clean bool) {
	now := hp.seconds()
	var excluded, suspected, carried, probation, rejoined, slow []int
	phis := make([]float64, hp.n)
	hp.mu.Lock()
	srtts := hp.peerSRTTsLocked()
	med := hp.medianPositiveLocked(srtts)
	for v := range hp.peers {
		p := &hp.peers[v]
		phis[v] = p.det.phi(now)
		st := hp.stateOf(v)
		if med > 0 && (st == HealthHealthy || st == HealthSlow) {
			st = HealthHealthy
			if srtts[v] > slowFactor*med {
				st = HealthSlow
			}
		}
		if st == HealthSlow {
			slow = append(slow, v)
		}
		if p.carried {
			carried = append(carried, v)
		}
		if p.suspected && st != HealthDead {
			suspected = append(suspected, v)
		}
		participated := false
		switch st {
		case HealthDead:
			excluded = append(excluded, v)
		case HealthProbation:
			if p.suspected || !clean {
				p.clean = 0 // suspicion or a failed round resets progress
			} else {
				p.clean++
				participated = true
			}
			if p.clean >= hp.probation {
				st = HealthHealthy
				rejoined = append(rejoined, v)
			} else {
				probation = append(probation, v)
			}
		default: // Healthy, Slow, Suspect
			participated = clean
			if p.suspected {
				st = HealthSuspect
			} else if clean && st == HealthSuspect {
				st = HealthHealthy
			}
		}
		if participated {
			p.behind = 0
		} else if clean {
			p.behind++
		}
		hp.setStateLocked(v, st)
	}
	hp.mu.Unlock()
	if hp.autoRevive {
		// A trial nobody asked for is not a rejoin: a non-elastic cluster
		// reports convictions only.
		probation, rejoined = nil, nil
	}
	if h != nil {
		h.ExcludedPeers, h.SuspectedPeers, h.MembershipExcluded = excluded, suspected, carried
		h.ProbationPeers, h.RejoinedPeers = probation, rejoined
		h.SlowPeers, h.Phi = slow, phis
	}

	tr, met := hp.tel.T(), hp.tel.M()
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

// peerSRTTsLocked derives a per-peer latency figure: the best (smallest)
// smoothed RTT over every sampled link touching the peer, in either
// direction. The best link is what identifies the peer itself as slow — a
// straggling peer is slow on every path, while a single congested link
// must not tar an otherwise fast peer (and would tar everyone, since each
// fast peer also owns a link to the straggler). Called with hp.mu held; the
// figures live in hp.srtt until the next call.
func (hp *healthPlane) peerSRTTsLocked() []float64 {
	out := hp.srtt
	for v := 0; v < hp.n; v++ {
		s := 0.0
		for u := 0; u < hp.n; u++ {
			if u == v {
				continue
			}
			if e := &hp.links[u*hp.n+v]; e.samples > 0 && (s == 0 || e.srtt < s) {
				s = e.srtt
			}
			if e := &hp.links[v*hp.n+u]; e.samples > 0 && (s == 0 || e.srtt < s) {
				s = e.srtt
			}
		}
		out[v] = s
	}
	return out
}

// medianPositiveLocked returns the median of the positive entries (0 when
// fewer than two peers have samples — no meaningful baseline to compare
// against), sorting them in hp.pos. Called with hp.mu held.
func (hp *healthPlane) medianPositiveLocked(xs []float64) float64 {
	pos := hp.pos[:0]
	for _, x := range xs {
		if x > 0 {
			pos = append(pos, x)
		}
	}
	hp.pos = pos
	if len(pos) < 2 {
		return 0
	}
	sort.Float64s(pos)
	return pos[len(pos)/2]
}

// evidence snapshots the from→to link's RTT history and the peer's φ for
// failure-error reporting.
func (hp *healthPlane) evidence(from, to int) linkEvidence {
	if from < 0 || to < 0 || from >= hp.n || to >= hp.n {
		return linkEvidence{}
	}
	now := hp.seconds()
	hp.mu.Lock()
	defer hp.mu.Unlock()
	e := &hp.links[from*hp.n+to]
	return linkEvidence{
		LastRTT:    time.Duration(e.last * float64(time.Second)),
		Samples:    e.samples,
		Phi:        hp.peers[to].det.phi(now),
		Reconnects: hp.peers[to].reconn.Load(),
	}
}

// observeReconnect records a socket-plane connection-lifecycle failure
// against peer (a Send that exhausted its redial budget): detector-grade
// evidence that the endpoint — not just one transfer — is unhealthy.
func (hp *healthPlane) observeReconnect(peer int) {
	if peer < 0 || peer >= hp.n {
		return
	}
	hp.peers[peer].reconn.Add(1)
}

// HealthStates snapshots every peer's health-plane lifecycle state.
func (lc *LiveCluster) HealthStates() []HealthState {
	out := make([]HealthState, lc.n)
	for v := range out {
		out[v] = lc.health.stateOf(v)
	}
	return out
}
