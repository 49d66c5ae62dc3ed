package core

import (
	"fmt"

	"hipress/internal/telemetry"
)

// This file publishes the live plane's fault bookkeeping (PR 1's
// RoundHealth, retries, chaos outcomes) into the shared observability
// plane, so a `-chaos` run is debuggable from the trace and metrics dump
// alone. Everything here is nil-safe and does nothing when telemetry is
// disabled.

// Live-plane metric family names.
const (
	MetricLiveRoundSeconds     = "hipress_live_round_seconds"
	MetricLiveRounds           = "hipress_live_rounds_total"
	MetricLiveRetries          = "hipress_live_retries_total"
	MetricLiveDuplicates       = "hipress_live_duplicates_total"
	MetricLiveCorruptDrops     = "hipress_live_corrupt_drops_total"
	MetricLiveSkippedTasks     = "hipress_live_skipped_tasks_total"
	MetricLiveExcludedContribs = "hipress_live_excluded_contribs_total"
	MetricLiveUnsyncedParts    = "hipress_live_unsynced_parts_total"
	MetricChaosInjected        = "hipress_chaos_injected_total"
	MetricLiveReconnects       = "hipress_live_reconnects_total"
	MetricLiveInflight         = "hipress_live_inflight"
	MetricLiveAckBatched       = "hipress_live_ack_batched_total"
	MetricHealthTransitions    = "hipress_health_transitions_total"
	MetricHealthPhi            = "hipress_health_phi"
	MetricEpochVersion         = "hipress_autotune_epoch_version"
	MetricEpochSwitches        = "hipress_autotune_epoch_switches_total"
	MetricEpochProposals       = "hipress_autotune_epoch_proposals_total"
)

// emitTransition publishes one health-plane lifecycle transition (event +
// labeled counter). Called with hp.mu held; the telemetry plane never
// calls back into core, so no lock cycle is possible.
func (hp *healthPlane) emitTransition(node int, from, to HealthState) {
	if tr := hp.tel.T(); tr.Enabled() {
		tr.Event(fmt.Sprintf("health node%d %v→%v", node, from, to), "health", node, "net", tr.Now())
	}
	if m := hp.tel.M(); m != nil {
		m.Counter(MetricHealthTransitions, "health-plane peer lifecycle transitions",
			"from", from.String(), "to", to.String()).Inc()
	}
}

// emitRoundTelemetry records one finished round: a cluster-wide span
// carrying the RoundHealth summary, plus the shared metric families (round
// latency histogram, fault counters, chaos injection counters). start is
// the tracer timestamp taken when the round began executing.
func (r *liveRound) emitRoundTelemetry(h *RoundHealth, start float64) {
	outcome := "ok"
	switch {
	case r.runErr != nil:
		outcome = "error"
	case h.Degraded():
		outcome = "degraded"
	}
	strat := r.epoch.Strategy.String()

	if tr := r.trc; tr.Enabled() {
		tr.Record(telemetry.Span{
			Name: fmt.Sprintf("round %s [%s]", strat, outcome), Cat: "round",
			Node: telemetry.NodeCluster, Stream: "round",
			Start: start, Dur: tr.Now() - start,
		}.With(telemetry.Num("retries", float64(h.Retries))).
			With(telemetry.Num("duplicates", float64(h.Duplicates))).
			With(telemetry.Num("excluded_peers", float64(len(h.ExcludedPeers)))).
			With(telemetry.Num("epoch", float64(h.EpochVersion))).
			With(telemetry.Num("send_wall_ms", float64(h.SendWallNs)/1e6)).
			With(telemetry.Num("max_link_queue", float64(h.MaxLinkQueueDepth))).
			With(telemetry.Str("health", h.String())))
	}

	m := r.met
	if m == nil {
		return
	}
	m.Histogram(MetricLiveRoundSeconds, "wall-clock live round latency (seconds)",
		telemetry.LatencyBuckets, "strategy", strat).Observe(h.Elapsed.Seconds())
	m.Counter(MetricLiveRounds, "live rounds executed",
		"strategy", strat, "outcome", outcome).Inc()
	add := func(name, help string, v int64) {
		m.Counter(name, help, "strategy", strat).Add(float64(v))
	}
	add(MetricLiveRetries, "retransmissions beyond the first attempt", h.Retries)
	add(MetricLiveDuplicates, "received messages dropped by idempotent dedup", h.Duplicates)
	add(MetricLiveCorruptDrops, "received messages dropped for checksum mismatch", h.CorruptDrops)
	add(MetricLiveSkippedTasks, "DAG tasks completed without executing (dead peer)", h.SkippedTasks)
	add(MetricLiveExcludedContribs, "per-partition contributions excluded from aggregates", h.ExcludedContribs)
	add(MetricLiveUnsyncedParts, "partitions that fell back to local gradients", int64(len(h.UnsyncedParts)))
	add(MetricLiveAckBatched, "acknowledgements delivered in coalesced multi-ack frames", h.AckBatched)
	add(MetricLiveReconnects, "socket-plane connection failures surfaced to the send paths", h.Reconnects)
	m.Gauge(MetricEpochVersion, "active plan epoch version").Set(float64(h.EpochVersion))
	for v, phi := range h.Phi {
		m.Gauge(MetricHealthPhi, "per-peer φ-accrual suspicion level at round end",
			"node", fmt.Sprintf("%d", v)).Set(phi)
	}
	if h.Chaos != nil {
		cadd := func(kind string, v int64) {
			m.Counter(MetricChaosInjected, "faults injected by the chaos transport",
				"kind", kind).Add(float64(v))
		}
		cadd("dropped", h.Chaos.Dropped)
		cadd("duplicated", h.Chaos.Duplicated)
		cadd("corrupted", h.Chaos.Corrupted)
		cadd("delayed", h.Chaos.Delayed)
		cadd("blackholed", h.Chaos.Blackholed)
	}
}
