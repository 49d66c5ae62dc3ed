package core

import (
	"math"
	"testing"
	"time"
)

// virtualPlane builds an n-peer health plane on a test-driven clock. The
// returned advance function moves the clock forward.
func virtualPlane(n int, cfg HealthConfig) (*healthPlane, func(time.Duration)) {
	now := time.Duration(0)
	hp := newHealthPlane(n, &cfg, RetryPolicy{}, false, nil)
	hp.now = func() time.Duration { return now }
	return hp, func(d time.Duration) { now += d }
}

// setAdaptiveBounds sets hp's adaptive policy bounds — bootstrap RTO, RTO
// ceiling and attempt budget, each left at its constant when zero — and
// floors its detectors' window mean at the bootstrap RTO, as newHealthPlane
// floors a plane without heartbeats.
func setAdaptiveBounds(hp *healthPlane, bootstrap, ceiling time.Duration, attempts int) {
	if bootstrap > 0 {
		hp.bootstrapRTO = bootstrap
		for v := range hp.peers {
			hp.peers[v].det.minMean = bootstrap.Seconds()
		}
	}
	if ceiling > 0 {
		hp.maxRTO = ceiling
	}
	if attempts > 0 {
		hp.maxAttempts = attempts
	}
}

// planeStates snapshots every peer's lifecycle state.
func planeStates(hp *healthPlane) []HealthState {
	out := make([]HealthState, hp.n)
	for v := range out {
		out[v] = hp.stateOf(v)
	}
	return out
}

// TestRTTEstimator pins the Jacobson/Karels recurrences to hand-computed
// values (RFC 6298: first sample sets srtt=R, rttvar=R/2; then β=1/4,
// α=1/8) and the RTO clamp behavior.
func TestRTTEstimator(t *testing.T) {
	var e rttEstimator
	if got := e.rto(1e-3, 2); got != 0 {
		t.Fatalf("virgin estimator rto = %v, want 0 (bootstrap sentinel)", got)
	}

	e.observe(0.100)
	if e.srtt != 0.100 || e.rttvar != 0.050 {
		t.Fatalf("after first sample: srtt=%v rttvar=%v, want 0.1/0.05", e.srtt, e.rttvar)
	}
	// RTO = 0.1 + 4·0.05 = 0.3.
	if got := e.rto(1e-3, 2); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("rto after first sample = %v, want 0.3", got)
	}

	// Second sample 0.2: rttvar = 0.05 + (|0.1−0.2| − 0.05)/4 = 0.0625,
	// srtt = 0.1 + (0.2−0.1)/8 = 0.1125.
	e.observe(0.200)
	if math.Abs(e.rttvar-0.0625) > 1e-12 || math.Abs(e.srtt-0.1125) > 1e-12 {
		t.Fatalf("after second sample: srtt=%v rttvar=%v, want 0.1125/0.0625", e.srtt, e.rttvar)
	}

	// Clamps: a tiny steady link hits the floor, a huge sample the ceiling.
	var fast rttEstimator
	fast.observe(1e-6)
	if got := fast.rto(1e-3, 2); got != 1e-3 {
		t.Fatalf("fast-link rto = %v, want minRTO floor 1e-3", got)
	}
	var slow rttEstimator
	slow.observe(10)
	if got := slow.rto(1e-3, 2); got != 2 {
		t.Fatalf("slow-link rto = %v, want the RTO ceiling 2", got)
	}

	// Garbage in, nothing out: invalid samples are ignored.
	before := e
	e.observe(-1)
	e.observe(math.NaN())
	e.observe(math.Inf(1))
	if e != before {
		t.Fatalf("invalid samples mutated the estimator: %+v vs %+v", e, before)
	}
}

// TestPhiDetector pins the φ-accrual math: zero before priming, snap-down
// on arrival, strictly monotone growth through silence, and the
// never-NaN/never-negative clamp.
func TestPhiDetector(t *testing.T) {
	d := newPhiDetector(8, 0)
	if got := d.phi(123); got != 0 {
		t.Fatalf("unprimed φ = %v, want 0", got)
	}

	// Primed with a 10ms mean interval at t=0: φ(t) = log10(e)·t/0.010.
	d.prime(0, 0.010)
	want := math.Log10(math.E) * 0.050 / 0.010
	if got := d.phi(0.050); math.Abs(got-want) > 1e-9 {
		t.Fatalf("φ(50ms) = %v, want %v", got, want)
	}

	// Regular arrivals every 10ms keep φ low and the window mean at 10ms.
	for i := 1; i <= 20; i++ {
		d.observe(float64(i) * 0.010)
	}
	if got := d.phi(0.200); got > 0.1 {
		t.Fatalf("φ just after an arrival = %v, want ~0", got)
	}

	// Silence: φ grows strictly monotonically and crosses the default
	// conviction threshold (10) at ~23 mean intervals.
	prev := -1.0
	for _, dt := range []float64{0.01, 0.05, 0.1, 0.2, 0.23, 0.3, 1, 10} {
		p := d.phi(0.200 + dt)
		if math.IsNaN(p) || p < 0 {
			t.Fatalf("φ(+%v) = %v: NaN or negative", dt, p)
		}
		if p <= prev {
			t.Fatalf("φ not monotone under silence: φ(+%v)=%v after %v", dt, p, prev)
		}
		prev = p
	}
	if p := d.phi(0.200 + 0.23); p < 9.5 || p > 10.5 {
		t.Fatalf("φ after 23 mean intervals = %v, want ≈10", p)
	}

	// Time running backwards (clock skew) clamps to 0, never negative.
	if got := d.phi(0.100); got != 0 {
		t.Fatalf("φ with t before last arrival = %v, want 0", got)
	}

	// Burst pathology: messages delayed in flight arrive together, filling
	// the window with near-zero intervals. The minMean floor keeps an
	// ordinary delivery gap (5 cadences here) below conviction grade.
	db := newPhiDetector(8, 0.005)
	db.prime(0, 0.005)
	for i := 0; i < 20; i++ {
		db.observe(1.0) // 20 arrivals at the same instant
	}
	if p := db.phi(1.0 + 0.025); p >= 10 {
		t.Fatalf("φ after a 5-cadence gap following a burst = %v: the minMean floor failed", p)
	}
	// An unfloored detector demonstrates the pathology the floor prevents.
	du := newPhiDetector(8, 0)
	du.prime(0, 0.005)
	for i := 0; i < 20; i++ {
		du.observe(1.0)
	}
	if p := du.phi(1.0 + 0.025); p < 10 {
		t.Fatalf("unfloored burst φ = %v: expected conviction-grade (the scenario lost its teeth)", p)
	}
}

// TestHealthPlaneLifecycle walks the state machine on a virtual clock:
// silence raises Suspect then convicts, arrivals recover a Suspect,
// rejoin and a clean round run Dead→Probation→Healthy, and roundStart gives
// a non-elastic Dead peer its probation trial.
func TestHealthPlaneLifecycle(t *testing.T) {
	hp, advance := virtualPlane(3, HealthConfig{Adaptive: true})
	setAdaptiveBounds(hp, 10*time.Millisecond, 0, 0)
	hp.roundStart()

	// Peers 0 and 1 exchange arrivals; peer 2 is silent from birth.
	for i := 0; i < 30; i++ {
		advance(10 * time.Millisecond)
		hp.arrival(0)
		hp.arrival(1)
	}
	rs := newRoundState(3)
	rs.succ[0], rs.succ[1] = 30, 30

	if phi := hp.phi(2); phi < phiConvict {
		t.Fatalf("silent peer φ = %v, want ≥ conviction threshold %v", phi, phiConvict)
	}
	if phi := hp.phi(0); phi > phiSuspect {
		t.Fatalf("chatty peer φ = %v, want below suspicion threshold", phi)
	}

	// judge on the 0→2 link convicts the silent endpoint.
	if v := hp.judge(0, 2, rs); v != 2 {
		t.Fatalf("judge(0,2) = %d, want 2 (the silent peer)", v)
	}
	if !hp.convict(2) || hp.convict(2) {
		t.Fatal("convict must report a conviction new exactly once")
	}
	if st := hp.stateOf(2); st != HealthDead {
		t.Fatalf("after conviction peer 2 is %v, want dead", st)
	}

	// Dead exits only via Probation: a clean round promotes nobody out of Dead …
	hp.roundEnd(nil, true)
	if st := hp.stateOf(2); st != HealthDead {
		t.Fatalf("a clean round end moved a Dead peer to %v", st)
	}
	// … rejoin is the legal path …
	if donor, err := hp.rejoin(2); err != nil || donor != 0 {
		t.Fatalf("rejoin(2) = donor %d, %v; want donor 0", donor, err)
	}
	if st := hp.stateOf(2); st != HealthProbation {
		t.Fatalf("after rejoin peer 2 is %v, want probation", st)
	}
	hp.roundEnd(nil, true)
	if st := hp.stateOf(2); st != HealthHealthy {
		t.Fatalf("after its clean probation round peer 2 is %v, want healthy", st)
	}

	// Suspect → Healthy on arrival: convict-threshold silence is not needed.
	advance(10 * 10 * time.Millisecond) // ~10 mean intervals: φ in (4, 10)
	if v := hp.judge(0, 1, rs); v != -1 {
		t.Fatalf("judge with tied sub-conviction φ = %d, want -1 (inconclusive)", v)
	}
	if st := hp.stateOf(1); st != HealthSuspect {
		t.Fatalf("peer 1 after suspicion = %v, want suspect", st)
	}
	hp.arrival(1)
	if st := hp.stateOf(1); st != HealthHealthy {
		t.Fatalf("peer 1 after fresh arrival = %v, want healthy", st)
	}

	// Non-elastic roundStart turns Dead into Probation, and a clean
	// roundEnd completes the trial.
	hp.convict(0)
	hp.roundStart()
	if st := hp.stateOf(0); st != HealthProbation {
		t.Fatalf("non-elastic roundStart left a Dead peer %v, want probation", st)
	}
	var h RoundHealth
	hp.roundEnd(&h, true)
	if st := hp.stateOf(0); st != HealthHealthy {
		t.Fatalf("clean roundEnd left a probation peer %v, want healthy", st)
	}
	if len(h.Phi) != 3 {
		t.Fatalf("roundEnd snapshotted %d φ values, want 3", len(h.Phi))
	}
}

// TestHealthPlaneIllegalTransitionPanics pins the enforcement mechanism
// itself: a Dead→Healthy write through setStateLocked must panic.
func TestHealthPlaneIllegalTransitionPanics(t *testing.T) {
	hp, _ := virtualPlane(2, HealthConfig{Adaptive: true})
	hp.convict(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Dead→Healthy transition did not panic")
		}
	}()
	hp.mu.Lock()
	defer hp.mu.Unlock()
	hp.setStateLocked(1, HealthHealthy)
}

// TestAdaptiveRTO covers the per-link deadline path: bootstrap RTO on
// virgin links, learned RTO after samples, and Karn-style doubling with the
// RTO ceiling.
func TestAdaptiveRTO(t *testing.T) {
	hp, _ := virtualPlane(2, HealthConfig{Adaptive: true})
	setAdaptiveBounds(hp, 25*time.Millisecond, 800*time.Millisecond, 0)

	if got := hp.rto(0, 1, 0); got != 25*time.Millisecond {
		t.Fatalf("virgin-link rto = %v, want bootstrap 25ms", got)
	}
	if got := hp.rto(0, 1, 2); got != 100*time.Millisecond {
		t.Fatalf("virgin-link rto attempt 2 = %v, want 100ms (25ms doubled twice)", got)
	}
	if got := hp.rto(0, 1, 50); got != 800*time.Millisecond {
		t.Fatalf("deep-retry rto = %v, want the RTO ceiling", got)
	}

	for i := 0; i < 4; i++ {
		hp.observeRTT(0, 1, 10*time.Millisecond)
	}
	// A learned RTO reflects the samples, not the bootstrap.
	got := hp.rto(0, 1, 0)
	if got <= 10*time.Millisecond || got > 30*time.Millisecond {
		t.Fatalf("learned rto = %v, want srtt+4·rttvar of a steady 10ms link", got)
	}

	// A failure error carries the link history.
	ev := hp.failure(0, 1, "test")
	if ev.SamplesSeen != 4 || ev.LastRTT != 10*time.Millisecond {
		t.Fatalf("evidence = %+v, want 4 samples of 10ms", ev)
	}
}

// TestDeliveryPolicyAnswers pins the three answers the one delivery loop asks
// of the health plane, clock-free. The static policy must reproduce the
// RetryPolicy schedule the dedicated static loop ran — backoff(attempt)
// deadlines, 2·MaxAttempts budget, no verdict before attempt MaxAttempts-1
// and the scoreboard's from then on. The adaptive policy must reproduce the
// link's doubling RTO and a φ verdict on every expiry.
func TestDeliveryPolicyAnswers(t *testing.T) {
	retry := RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 9 * time.Millisecond}.withDefaults()

	t.Run("static", func(t *testing.T) {
		hp := newHealthPlane(3, &HealthConfig{}, retry, false, nil)
		hp.now = func() time.Duration { return 0 }
		hp.roundStart()
		for i := 0; i < 8; i++ {
			hp.observeRTT(0, 1, time.Millisecond) // learned RTTs must not move the static deadlines
		}
		if got := hp.attemptBudget(); got != 6 {
			t.Fatalf("static budget = %d, want 2·MaxAttempts = 6", got)
		}
		for attempt, want := range []time.Duration{2, 4, 8, 9, 9, 9} {
			want *= time.Millisecond
			if want != retry.backoff(attempt) {
				t.Fatalf("test schedule out of step with Retry.backoff(%d) = %v", attempt, retry.backoff(attempt))
			}
			got := hp.attemptDeadline(0, 1, attempt)
			if got != want {
				t.Fatalf("static deadline(attempt %d) = %v, want %v", attempt, got, want)
			}
		}
		// Scoreboard: node 1 has acked nothing, nodes 0 and 2 have.
		rs := newRoundState(3)
		x := &transfer{}
		rs.arm(x, make(chan struct{}, 1))
		rs.settle(x, 0, 2)
		if v, _ := hp.verdict(0, 1, 0, rs); v != -1 || hp.anyDead() {
			t.Fatalf("static verdict at attempt 0 = %d (states %v), want -1: suspicion starts at MaxAttempts-1", v, planeStates(hp))
		}
		if v, _ := hp.verdict(0, 1, 1, rs); v != -1 || hp.anyDead() {
			t.Fatalf("static verdict at attempt 1 = %d, want -1", v)
		}
		if v, newly := hp.verdict(0, 1, 2, rs); v != 1 || !newly || !hp.isDead(1) {
			t.Fatalf("static verdict at attempt MaxAttempts-1 = %d (newly %v), want the scoreboard's conviction of node 1", v, newly)
		}
		if v, newly := hp.verdict(0, 1, 3, rs); v != 1 || newly {
			t.Fatalf("static verdict against a standing conviction = %d (newly %v), want 1 and not new", v, newly)
		}
		// A tied scoreboard stays inconclusive through the grace phase.
		tied := newRoundState(3)
		v, _ := hp.verdict(0, 2, 4, tied)
		var h RoundHealth
		hp.roundEnd(&h, false)
		if v != -1 || len(h.SuspectedPeers) != 2 {
			t.Fatalf("static verdict on a tie = %d (suspected %v), want -1 with both endpoints suspected", v, h.SuspectedPeers)
		}
	})

	t.Run("adaptive", func(t *testing.T) {
		hp, advance := virtualPlane(3, HealthConfig{Adaptive: true})
		setAdaptiveBounds(hp, 25*time.Millisecond, 800*time.Millisecond, 7)
		hp.retry = retry // must be ignored
		hp.roundStart()
		if got := hp.attemptBudget(); got != 7 {
			t.Fatalf("adaptive budget = %d, want maxAttempts = 7", got)
		}
		for attempt, want := range []time.Duration{25, 50, 100, 200, 400, 800, 800} {
			want *= time.Millisecond
			if got := hp.attemptDeadline(0, 1, attempt); got != want || got != hp.rto(0, 1, attempt) {
				t.Fatalf("adaptive deadline(attempt %d) = %v, want rto doubling %v", attempt, got, want)
			}
		}
		// φ verdict, already on the first expiry: peer 1 falls silent while
		// 0 and 2 keep arriving.
		rs := newRoundState(3)
		for i := 0; i < 40; i++ {
			advance(25 * time.Millisecond)
			hp.arrival(0)
			hp.arrival(2)
		}
		if v, _ := hp.verdict(0, 1, 0, rs); v != 1 || !hp.isDead(1) {
			t.Fatalf("adaptive verdict = %d (φ₁=%.1f), want the φ conviction of silent node 1 on attempt 0", v, hp.phi(1))
		}
		if v, _ := hp.verdict(0, 2, 0, rs); v != -1 || hp.isDead(0) || hp.isDead(2) {
			t.Fatalf("adaptive verdict between two live peers = %d, want -1", v)
		}
	})
}

// FuzzPhiDetector drives the health plane with arbitrary interleavings of
// clock advances, arrivals, convictions, rejoins, and round boundaries, as an
// elastic cluster's plane and as a non-elastic one. Invariants under any
// input:
//
//  1. φ is never NaN and never negative, for every peer after every op;
//  2. a Dead peer never appears Healthy without passing through Probation
//     (the lifecycle invariant the panic in setStateLocked enforces), and
//     leaves Probation for Healthy only after the plane's count of round
//     ends (probationRounds elastic, one otherwise);
//  3. the RTT estimator never emits a NaN or out-of-clamp RTO;
//  4. a round starts with every standing conviction carried in (elastic) or
//     revived (non-elastic), and the dead count agrees with the states.
func FuzzPhiDetector(f *testing.F) {
	f.Add([]byte{0x00, 0x21, 0x13, 0x2c, 0x05, 0x3e, 0x07, 0x18}, false)
	f.Add([]byte{0x25, 0x25, 0x25, 0x04, 0x0d, 0x06, 0x3f, 0x1f, 0x2e}, false)
	f.Add([]byte{0x05, 0x07, 0x06, 0x07, 0x07, 0x0d, 0x0f, 0x0e, 0x07, 0x0d, 0x07}, true)
	f.Add([]byte{}, true)

	f.Fuzz(func(t *testing.T, ops []byte, elastic bool) {
		now := time.Duration(0)
		hp := newHealthPlane(3, &HealthConfig{Adaptive: true}, RetryPolicy{}, elastic, nil)
		hp.now = func() time.Duration { return now }
		hp.roundStart()
		rs := newRoundState(3)

		var est rttEstimator
		prev := make([]HealthState, 3)
		trial := make([]int, 3) // round ends seen by the current probation

		for _, b := range ops {
			peer := int(b>>3) % 3
			switch b & 7 {
			case 0, 1:
				now += time.Duration(b) * time.Millisecond
			case 2, 3:
				hp.arrival(peer)
			case 4:
				// The real conviction path: judge the link to the next
				// peer, convict whichever endpoint it names.
				hp.convict(hp.judge(peer, (peer+1)%3, rs))
			case 5:
				hp.convict(peer)
			case 6:
				_, _ = hp.rejoin(peer) // refused unless peer is Dead and a donor exists
			case 7:
				// Round boundary: end (alternating clean/failed), then
				// start the next — the only place Dead legally drains.
				hp.roundEnd(nil, b&8 == 0)
				for v := range trial {
					trial[v]++
				}
				for v, st := range planeStates(hp) {
					if prev[v] == HealthProbation && st == HealthHealthy && trial[v] < hp.probation {
						t.Fatalf("peer %d promoted after %d round ends of probation, want ≥ %d", v, trial[v], hp.probation)
					}
					prev[v] = st
				}
				// Every conviction still standing was carried in, and
				// without elastic membership none stands.
				if carried := hp.roundStart(); len(carried) != int(hp.dead.Load()) || (!elastic && hp.anyDead()) {
					t.Fatalf("round (elastic %v) started carrying %v with states %v", elastic, carried, planeStates(hp))
				}
			}

			// RTT estimator half: reuse the byte as a sample in [0, 255] ms.
			est.observe(float64(b) * 1e-3)
			if r := est.rto(1e-3, 2.0); math.IsNaN(r) || (r != 0 && (r < 1e-3 || r > 2.0)) {
				t.Fatalf("rto escaped its clamp: %v (sample byte %#x)", r, b)
			}

			dead := 0
			for v := 0; v < 3; v++ {
				if p := hp.phi(v); math.IsNaN(p) || p < 0 {
					t.Fatalf("peer %d φ = %v after op %#x: NaN or negative", v, p, b)
				}
				cur := hp.stateOf(v)
				if prev[v] == HealthDead && cur == HealthHealthy {
					t.Fatalf("peer %d jumped Dead→Healthy on op %#x without Probation", v, b)
				}
				if cur == HealthProbation && prev[v] != HealthProbation {
					trial[v] = 0
				}
				if cur == HealthDead {
					dead++
				}
				prev[v] = cur
			}
			if hp.anyDead() != (dead > 0) || int(hp.dead.Load()) != dead {
				t.Fatalf("dead count %d with %d peers Dead after op %#x", hp.dead.Load(), dead, b)
			}
		}
	})
}
