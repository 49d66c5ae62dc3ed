package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hipress/internal/netsim"
)

// This file is the live plane's fault model: retry policies, typed failure
// errors, per-round health reporting, and a round's per-transfer ack
// rendezvous and per-endpoint success scoreboard.

// DegradePolicy selects what a round does when a peer is declared
// failed mid-round.
type DegradePolicy int

const (
	// DegradeAbort fails the round with a *PeerFailureError (the default:
	// BSP semantics are preserved, the training driver decides what next).
	DegradeAbort DegradePolicy = iota
	// DegradeExclude drops the failed peer's contribution and finishes the
	// round with the survivors (PS only — a ring cannot route around a dead
	// hop). The merge renormalizes when LiveConfig.Renormalize is set, and
	// the exclusion is reported in RoundHealth.
	DegradeExclude
)

// String implements fmt.Stringer.
func (p DegradePolicy) String() string {
	switch p {
	case DegradeAbort:
		return "abort"
	case DegradeExclude:
		return "exclude"
	default:
		return fmt.Sprintf("DegradePolicy(%d)", int(p))
	}
}

// RetryPolicy is the static policy of the acknowledged-or-retried delivery
// loop (the default; HealthConfig.Adaptive is the other): capped
// exponential backoff, then the scoreboard failure detector.
type RetryPolicy struct {
	// MaxAttempts is the number of transmission attempts before the sender
	// suspects the link (1 … 32768). After suspicion, up to the same number
	// of grace attempts run while the failure detector is inconclusive.
	MaxAttempts int
	// BaseBackoff is the wait after the first unacknowledged attempt;
	// subsequent waits double, capped at MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// withDefaults fills zero fields: 5 attempts, 10ms base, 100ms cap.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 100 * time.Millisecond
	}
	return p
}

// backoff returns the wait after 0-based attempt i failed: deterministic
// capped exponential.
func (p RetryPolicy) backoff(i int) time.Duration {
	d := p.BaseBackoff
	for k := 0; k < i; k++ {
		d *= 2
		if d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// ConfigError reports a LiveConfig that breaks one of the live plane's
// cross-field constraints (see LiveConfig.Validate, the single definition).
type ConfigError struct {
	// Field names the offending LiveConfig field ("Health.Adaptive" for the
	// nested one).
	Field string
	// Reason states the constraint that failed.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: invalid LiveConfig.%s: %s", e.Field, e.Reason)
}

// RoundTimeoutError reports that a live round exceeded its deadline
// (LiveConfig.RoundTimeout or the caller's context): SyncRound returns it
// instead of hanging.
type RoundTimeoutError struct {
	// Timeout is the configured round budget (zero when the caller's own
	// context expired first).
	Timeout time.Duration
}

// Error implements error.
func (e *RoundTimeoutError) Error() string {
	if e.Timeout > 0 {
		return fmt.Sprintf("core: live round exceeded its %v deadline", e.Timeout)
	}
	return "core: live round context expired"
}

// PeerFailureError reports that communication with a peer failed
// permanently (retries exhausted, failure detector confirmed or
// inconclusive) and the degradation policy was abort.
type PeerFailureError struct {
	// Node observed the failure; Peer is the endpoint it could not reach.
	Node, Peer int
	// Attempts is the number of transmission attempts made.
	Attempts int
	// Reason describes the detector's verdict.
	Reason string
	// LastRTT is the most recent round-trip sample observed on the failing
	// link (0 when no ack ever crossed it).
	LastRTT time.Duration
	// SamplesSeen counts the RTT samples harvested on the link before the
	// failure — LastRTT over many samples points at a mistuned timeout, a
	// zero count at a genuinely dead link.
	SamplesSeen int
	// Phi is the peer's φ-accrual suspicion level at failure time.
	Phi float64
	// Reconnects counts socket-plane connection-lifecycle failures observed
	// against the peer this round (0 on the chan transport) — a non-zero
	// count points at broken connectivity rather than slowness.
	Reconnects int64
}

// Error implements error.
func (e *PeerFailureError) Error() string {
	s := fmt.Sprintf("core: node %d lost peer %d after %d attempts: %s", e.Node, e.Peer, e.Attempts, e.Reason)
	if e.SamplesSeen > 0 {
		s += fmt.Sprintf(" [link evidence: last RTT %v over %d samples, φ=%.2f]",
			e.LastRTT.Round(time.Microsecond), e.SamplesSeen, e.Phi)
	}
	if e.Reconnects > 0 {
		s += fmt.Sprintf(" [%d socket reconnect failure(s)]", e.Reconnects)
	}
	return s
}

// ResultBufferError rejects a SyncRoundInto destination before the round
// runs: Node's map (-1: dst itself) is nil or the wrong count, or its entry
// Name is missing, not a gradient of the round, the wrong length, or shares
// memory with an input or another destination.
type ResultBufferError struct {
	Node   int
	Name   string // "" when the fault is the map itself
	Reason string
}

// Error implements error.
func (e *ResultBufferError) Error() string {
	switch {
	case e.Node < 0:
		return "core: SyncRoundInto dst: " + e.Reason
	case e.Name == "":
		return fmt.Sprintf("core: SyncRoundInto dst[%d]: %s", e.Node, e.Reason)
	}
	return fmt.Sprintf("core: SyncRoundInto dst[%d][%q]: %s", e.Node, e.Name, e.Reason)
}

// RoundHealth reports how a live round actually went: the fault plane's
// observability surface.
type RoundHealth struct {
	// Elapsed is wall-clock round duration.
	Elapsed time.Duration
	// Retries counts retransmissions (attempts beyond the first).
	Retries int64
	// Duplicates counts received messages discarded by idempotent dedup.
	Duplicates int64
	// CorruptDrops counts received messages discarded for checksum
	// mismatch (the sender retries them).
	CorruptDrops int64
	// SkippedTasks counts DAG tasks completed without executing because a
	// dead peer made them moot.
	SkippedTasks int64
	// ExcludedPeers lists nodes declared dead by the failure detector,
	// ascending (includes carried-over membership exclusions).
	ExcludedPeers []int
	// SuspectedPeers lists endpoints the detector gathered inconclusive
	// (tied-scoreboard) evidence against without convicting, ascending.
	SuspectedPeers []int
	// MembershipExcluded lists peers excluded at round start because
	// elastic membership carried a conviction over from an earlier round —
	// a subset of ExcludedPeers (see LiveConfig.Elastic).
	MembershipExcluded []int
	// ProbationPeers lists peers that participated on probation and are
	// still on probation after this round.
	ProbationPeers []int
	// RejoinedPeers lists peers promoted back to full membership at the end
	// of this round (probation completed).
	RejoinedPeers []int
	// ExcludedContribs counts per-partition contributions dropped from
	// aggregates.
	ExcludedContribs int64
	// UnsyncedParts lists "node<v>:<grad>/p<k>" partitions that fell back
	// to the node's local gradient because no aggregate reached them.
	UnsyncedParts []string
	// Renormalized records whether surviving aggregates were rescaled by
	// n/(n-excluded).
	Renormalized bool
	// SendWallNs is the wall-clock span (ns) from the round's first staged
	// send to its last resolved one — the measured communication floor the
	// pipelined engine exists to lower. Zero when no payload send ran.
	SendWallNs int64
	// MaxLinkQueueDepth is the high-water mark of staged-plus-in-flight
	// transfers on the busiest link's lane: >sendWindow means staging ran
	// ahead of the wire (backlog), ≈1 means the DAG never kept a link busy.
	MaxLinkQueueDepth int
	// AckBatched counts acknowledgements delivered inside coalesced
	// multi-ack frames, a bulk frame's among them; each batched frame
	// contributes its member count.
	AckBatched int64
	// BulkFrames counts data frames sent carrying two or more transfers.
	BulkFrames int64
	// SlowPeers lists peers the health plane classified Slow at round end
	// (srtt above slowFactor × the cluster median), ascending.
	SlowPeers []int
	// Phi is the per-peer φ suspicion level at round end.
	Phi []float64
	// Reconnects counts socket-plane connection failures surfaced to the
	// send paths (a TCP Send that exhausted its redial budget); the
	// delivery loop absorbs them as failed attempts, so a non-zero
	// count with a clean round means the lifecycle layer did its job.
	Reconnects int64
	// Chaos carries the injector's counters when the round ran over a
	// ChaosTransport.
	Chaos *netsim.ChaosStats
	// TCP carries the socket plane's connection-lifecycle counters when the
	// round ran over Transport "tcp" (dials, redials, resyncs, corrupt and
	// stale frames, idle drops).
	TCP *netsim.TCPStats
	// Wire carries the wire-level fault injector's counters when the round
	// ran TCP under WireChaos (mid-stream cuts, corrupted bytes, stalls,
	// blackholed writes).
	Wire *netsim.WireChaosStats
	// EpochVersion is the plan epoch the round executed under (0 until an
	// autotuner or RestoreEpoch installs a newer plan) — the field that
	// lets a decision trace be audited round by round.
	EpochVersion uint64
}

// Degraded reports whether the round deviated from full participation.
func (h *RoundHealth) Degraded() bool {
	return len(h.ExcludedPeers) > 0 || len(h.UnsyncedParts) > 0
}

// String renders a one-line summary for logs.
func (h *RoundHealth) String() string {
	return fmt.Sprintf("round{elapsed=%v retries=%d dups=%d corrupt=%d skipped=%d excluded=%v unsynced=%d renorm=%v}",
		h.Elapsed.Round(time.Millisecond), h.Retries, h.Duplicates, h.CorruptDrops,
		h.SkippedTasks, h.ExcludedPeers, len(h.UnsyncedParts), h.Renormalized)
}

// transfer is a round's state for one transfer, kept at its recv
// task's id in a table indexed like the graph (roundPlan.xfer): ack, guarded
// by roundState.mu, is the waiting sender's rendezvous — its lane worker's
// one-slot channel (a bulk frame's transfers share one), from arm until the
// first ack of any attempt or disarm; seen is the receiver's dedup mark,
// written only by the dispatcher of the recv's node.
type transfer struct {
	ack  chan struct{}
	seen bool
}

// roundState is what a round's fault plane keeps that is per-round by nature:
// the success scoreboard the failure detector judges by
// (healthPlane.scoreboard) and the RoundHealth counters. What is known about
// a peer — convicted, suspected, carried in excluded — lives in the health
// plane's peer table, not here. mu guards succ and transfer.ack only.
type roundState struct {
	mu   sync.Mutex
	succ []int // acknowledged transfers credited to each endpoint

	// Counters (atomic): see RoundHealth.
	retries          int64
	duplicates       int64
	corruptDrops     int64
	reconnects       int64
	skipped          int64
	excludedContribs int64
	ackBatched       int64
	bulkFrames       int64
	renormalized     int32
}

func newRoundState(n int) *roundState {
	return &roundState{succ: make([]int, n)}
}

// arm makes ch, the calling lane worker's one-slot channel, x's ack
// rendezvous, which settle posts to.
func (rs *roundState) arm(x *transfer, ch chan struct{}) {
	rs.mu.Lock()
	x.ack = ch
	rs.mu.Unlock()
}

// disarm ends x's wait on ch: an ack settling x later posts nothing, and a
// token posted before is drained, so ch is empty for the worker's next
// transfer — a late ack of this one cannot wake that one.
func (rs *roundState) disarm(x *transfer, ch chan struct{}) {
	rs.mu.Lock()
	x.ack = nil
	rs.mu.Unlock()
	select {
	case <-ch:
	default:
	}
}

// settled reports whether every transfer of batch has been acknowledged.
func (rs *roundState) settled(batch []pendingSend) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i := range batch {
		if batch[i].x.ack != nil {
			return false
		}
	}
	return true
}

// settle is an ack of x, a transfer from src to dst: the first one wakes the
// waiting sender and credits both endpoints on the success scoreboard. An
// ack of a transfer not armed, or already settled, is ignored. The token is
// posted under mu without blocking (one post per armed transfer; of transfers
// sharing a channel, the waiter checks which settled), so disarm, which clears
// x.ack under mu first, finds any token posted for x already in the channel.
func (rs *roundState) settle(x *transfer, src, dst int) {
	rs.mu.Lock()
	if ch := x.ack; ch != nil {
		x.ack = nil
		rs.succ[src]++
		rs.succ[dst]++
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	rs.mu.Unlock()
}

// fewerAcked returns the endpoint of from→to with strictly fewer acknowledged
// transfers so far this round, or -1 on a tie.
func (rs *roundState) fewerAcked(from, to int) int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	switch {
	case rs.succ[from] < rs.succ[to]:
		return from
	case rs.succ[to] < rs.succ[from]:
		return to
	}
	return -1
}

// health snapshots the counters into a RoundHealth; the peer lists are the
// health plane's to fill (healthPlane.roundEnd).
func (rs *roundState) health(elapsed time.Duration) *RoundHealth {
	return &RoundHealth{
		Elapsed:          elapsed,
		Retries:          atomic.LoadInt64(&rs.retries),
		Duplicates:       atomic.LoadInt64(&rs.duplicates),
		CorruptDrops:     atomic.LoadInt64(&rs.corruptDrops),
		Reconnects:       atomic.LoadInt64(&rs.reconnects),
		SkippedTasks:     atomic.LoadInt64(&rs.skipped),
		ExcludedContribs: atomic.LoadInt64(&rs.excludedContribs),
		Renormalized:     atomic.LoadInt32(&rs.renormalized) != 0,
		AckBatched:       atomic.LoadInt64(&rs.ackBatched),
		BulkFrames:       atomic.LoadInt64(&rs.bulkFrames),
	}
}
