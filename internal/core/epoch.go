package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"hipress/internal/compress"
)

// This file is the autotune plane's core contract: the versioned PlanEpoch
// every node of a round executes under, its CRC-guarded frame (the bytes
// trainer checkpoints record and FuzzPlanEpochDecode hammers), the
// Autotuner interface the closed loop implements (internal/autotune), and
// safe reconfiguration: a proposal is validated and staged under the epoch
// lock, and takes effect at the next round barrier.
//
// Determinism contract: a round executed under epoch E always produces the
// same bytes, no matter when (or why) the tuner decided E. The epoch fully
// determines strategy, partition geometry, and per-gradient compression, so
// recording the pending epoch and round index in checkpoints keeps
// kill/resume bit-identical even when the kill lands mid-epoch-switch.

// PlanEpoch is one versioned synchronization plan: the subset of the §3.3
// planner's output that the live plane can change at runtime. All nodes of
// a cluster execute every round under exactly one epoch; changes go through
// ProposeEpoch (staged, then activated at a round barrier), never mid-round.
type PlanEpoch struct {
	// Version orders epochs; proposals must be strictly newer than the
	// active (or staged) epoch. Version 0 is the config-derived default.
	Version uint64
	// Strategy selects CaSync-Ring or CaSync-PS for subsequent rounds.
	Strategy Strategy
	// Parts is the partition count applied to every gradient (clamped to
	// the element count per gradient, like LiveConfig.Parts).
	Parts int
	// CompressMin is the selective-compression size threshold in raw bytes:
	// a gradient compresses iff CompressMin >= 0 and its raw size is at
	// least CompressMin (so 0 compresses everything and a negative value
	// compresses nothing). Compression additionally requires the cluster to
	// have been built with a LiveConfig.Algo.
	CompressMin int64
}

// String renders the epoch for logs and telemetry.
func (e PlanEpoch) String() string {
	cpr := "raw"
	if e.CompressMin == 0 {
		cpr = "compress-all"
	} else if e.CompressMin > 0 {
		cpr = fmt.Sprintf("compress>=%dB", e.CompressMin)
	}
	return fmt.Sprintf("epoch{v%d %s parts=%d %s}", e.Version, e.Strategy, e.Parts, cpr)
}

// compresses reports the epoch's decision for a gradient of m raw bytes
// (the algorithm gate — cluster built with an Algo — is the caller's).
func (e PlanEpoch) compresses(m int64) bool {
	return e.CompressMin >= 0 && m >= e.CompressMin
}

// The epoch frame: magic, format version, the four fields, and a CRC-32
// over everything before it. Fixed-size and canonical — one epoch has
// exactly one encoding, which is what lets FuzzPlanEpochDecode assert full
// round-trip identity.
const (
	epochMagic    = "HPEP"
	epochFormat   = 1
	epochFrameLen = 4 + 1 + 8 + 1 + 4 + 8 + 4
	// maxEpochParts bounds every partition count, configured or decoded:
	// partition indices pack into the high bits of netsim.Message.Step
	// (packStep shifts by 20), so neither a config nor a hostile frame may
	// carry a count that overflows the packing.
	maxEpochParts = 4096
)

// EncodePlanEpoch serializes e into its canonical 30-byte frame.
func EncodePlanEpoch(e PlanEpoch) []byte {
	b := make([]byte, epochFrameLen)
	copy(b, epochMagic)
	b[4] = epochFormat
	binary.LittleEndian.PutUint64(b[5:], e.Version)
	b[13] = byte(e.Strategy)
	binary.LittleEndian.PutUint32(b[14:], uint32(e.Parts))
	binary.LittleEndian.PutUint64(b[18:], uint64(e.CompressMin))
	binary.LittleEndian.PutUint32(b[26:], crc32.ChecksumIEEE(b[:26]))
	return b
}

// DecodePlanEpoch parses and validates an epoch frame. Every structural
// property is checked before any field is trusted — length, magic, format,
// checksum, then field ranges — so a corrupted or hostile frame yields an
// error, never a half-valid epoch.
func DecodePlanEpoch(b []byte) (PlanEpoch, error) {
	var e PlanEpoch
	if len(b) != epochFrameLen {
		return e, fmt.Errorf("core: epoch frame is %d bytes, want %d", len(b), epochFrameLen)
	}
	if string(b[:4]) != epochMagic {
		return e, fmt.Errorf("core: epoch frame has bad magic %q", b[:4])
	}
	if b[4] != epochFormat {
		return e, fmt.Errorf("core: epoch frame format %d, want %d", b[4], epochFormat)
	}
	if got, want := binary.LittleEndian.Uint32(b[26:]), crc32.ChecksumIEEE(b[:26]); got != want {
		return e, fmt.Errorf("core: epoch frame checksum %08x, want %08x", got, want)
	}
	e.Version = binary.LittleEndian.Uint64(b[5:])
	e.Strategy = Strategy(b[13])
	if e.Strategy != StrategyRing && e.Strategy != StrategyPS {
		return PlanEpoch{}, fmt.Errorf("core: epoch frame strategy %d is not a live-plane strategy", b[13])
	}
	parts := binary.LittleEndian.Uint32(b[14:])
	if parts < 1 || parts > maxEpochParts {
		return PlanEpoch{}, fmt.Errorf("core: epoch frame partition count %d outside [1, %d]", parts, maxEpochParts)
	}
	e.Parts = int(parts)
	e.CompressMin = int64(binary.LittleEndian.Uint64(b[18:]))
	return e, nil
}

// RoundObservation is the per-round digest handed to the autotuner after
// each successful synchronization round: what ran, under which plan, and
// what the instrumentation measured.
type RoundObservation struct {
	// Round is the 0-based index of the completed round (monotone across
	// the cluster's life; restored on checkpoint resume).
	Round int64
	// Epoch is the plan epoch the round executed under.
	Epoch PlanEpoch
	// Health is the round's fault-plane report (never nil).
	Health *RoundHealth
	// Wire is the cluster-wide cumulative compression instrumentation
	// snapshot; tuners diff successive snapshots for per-round deltas.
	Wire compress.Stats
	// GradBytes lists the raw byte size of every gradient synchronized this
	// round, ascending.
	GradBytes []int64
	// Window is the per-link send window the round ran with,
	// max(LiveConfig.Pipeline.Window, 1): how many transfers of one link
	// overlapped their ack round trips. A report, not a setting.
	Window int
}

// Autotuner is the closed-loop calibration-and-decision engine plugged into
// a live cluster via LiveConfig.Autotune. ObserveLink may be called
// concurrently from many sender goroutines; ObserveRound and Propose are
// called sequentially between rounds.
type Autotuner interface {
	// ObserveLink reports one unambiguous (Karn's rule) ack round trip on
	// the directed link from→to for a payload of the given size.
	ObserveLink(from, to, payloadBytes int, rtt time.Duration)
	// ObserveRound reports one completed round.
	ObserveRound(obs RoundObservation)
	// Propose returns the next plan epoch to stage, or nil to keep cur.
	// A non-nil proposal must carry Version > cur.Version.
	Propose(cur PlanEpoch) *PlanEpoch
}

// Seeker is implemented by autotuners that replay a recorded decision trace
// (autotune.Script): RestoreEpoch forwards the restored round index so a
// resumed run continues the schedule exactly where the checkpoint left off.
type Seeker interface {
	SeekRound(round int64)
}

// defaultEpoch derives epoch v0 from the cluster configuration: the static
// plan the cluster runs until an autotuner (or RestoreEpoch) changes it.
func defaultEpoch(cfg *LiveConfig) PlanEpoch {
	cm := int64(-1)
	if cfg.Algo != "" {
		cm = 0 // historical behavior: an Algo compresses every gradient
	}
	return PlanEpoch{Version: 0, Strategy: cfg.Strategy, Parts: cfg.Parts, CompressMin: cm}
}

// topoFor builds the topology for a live strategy.
func topoFor(s Strategy, n int) *Topology {
	if s == StrategyRing {
		return Ring(n)
	}
	return PSBipartite(n)
}

// validateEpoch checks a candidate epoch against the cluster's invariants:
// the plans reachable at runtime are exactly those LiveConfig.Validate
// accepts for this cluster's degradation and membership settings.
func (lc *LiveCluster) validateEpoch(ep PlanEpoch) error {
	if ep.Parts < 1 {
		return fmt.Errorf("core: %v: partition count below 1", ep)
	}
	lc.chaosMu.Lock()
	cfg := lc.cfg
	lc.chaosMu.Unlock()
	cfg.Strategy, cfg.Parts = ep.Strategy, ep.Parts
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("core: %v: %w", ep, err)
	}
	if ep.CompressMin >= 0 && lc.cfg.Algo == "" {
		return fmt.Errorf("core: %v: compression requires the cluster to be built with a LiveConfig.Algo", ep)
	}
	return nil
}

// Epoch returns the currently active plan epoch.
func (lc *LiveCluster) Epoch() PlanEpoch {
	lc.epochMu.Lock()
	defer lc.epochMu.Unlock()
	return lc.epoch
}

// NextEpoch returns the epoch the next round will execute under: the staged
// pending epoch when a switch is in flight, the active epoch otherwise.
// This is the value checkpoints must record — a snapshot taken between a
// staged switch and its activation resumes into the post-switch plan, which
// is exactly what the uninterrupted run would have executed.
func (lc *LiveCluster) NextEpoch() PlanEpoch {
	lc.epochMu.Lock()
	defer lc.epochMu.Unlock()
	if lc.pendingEpoch != nil {
		return *lc.pendingEpoch
	}
	return lc.epoch
}

// Rounds returns the number of successfully completed rounds (the round
// index the next round will carry).
func (lc *LiveCluster) Rounds() int64 {
	lc.epochMu.Lock()
	defer lc.epochMu.Unlock()
	return lc.rounds
}

// EpochSwitches returns how many epoch activations have occurred.
func (lc *LiveCluster) EpochSwitches() int64 {
	lc.epochMu.Lock()
	defer lc.epochMu.Unlock()
	return lc.epochSwitches
}

// RestoreEpoch installs ep as the active epoch at the given round index,
// without waiting for a barrier. It is the checkpoint-resume path (all
// peers restore from the same snapshot, so agreement is implicit) and the
// way experiments pin a non-default static plan. Any staged pending epoch
// is discarded; an autotuner implementing Seeker is fast-forwarded to
// round.
func (lc *LiveCluster) RestoreEpoch(ep PlanEpoch, round int64) error {
	if err := lc.validateEpoch(ep); err != nil {
		return err
	}
	lc.epochMu.Lock()
	lc.epoch = ep
	lc.pendingEpoch = nil
	lc.rounds = round
	lc.epochMu.Unlock()
	if s, ok := lc.cfg.Autotune.(Seeker); ok {
		s.SeekRound(round)
	}
	return nil
}

// activateEpoch applies a staged pending epoch at the round barrier (the
// start of SyncRoundContext, before the round's plan is chosen) and
// returns the epoch the round must execute under with the round's index.
func (lc *LiveCluster) activateEpoch() (PlanEpoch, int64) {
	lc.epochMu.Lock()
	defer lc.epochMu.Unlock()
	if lc.pendingEpoch == nil {
		return lc.epoch, lc.rounds
	}
	prev := lc.epoch
	lc.epoch = *lc.pendingEpoch
	lc.pendingEpoch = nil
	lc.epochSwitches++
	if tr := lc.cfg.Telemetry.T(); tr.Enabled() {
		tr.Event(fmt.Sprintf("epoch-switch %v→%v", prev, lc.epoch), "autotune",
			0, "net", tr.Now())
	}
	if m := lc.cfg.Telemetry.M(); m != nil {
		m.Counter(MetricEpochSwitches, "plan epoch activations at round barriers").Inc()
		m.Gauge(MetricEpochVersion, "active plan epoch version").Set(float64(lc.epoch.Version))
	}
	return lc.epoch, lc.rounds
}

// ProposeEpoch stages ep for activation at the next round barrier. It is
// one step under the epoch lock: validate ep, refuse while another epoch is
// staged, refuse unless ep's version supersedes the active one, then stage.
// What makes the switch safe is the barrier: every task of a round runs
// under the epoch activateEpoch returned at its start, and every node of the
// cluster reads that one field. A refused proposal leaves the cluster on its
// current plan.
func (lc *LiveCluster) ProposeEpoch(ep PlanEpoch) error {
	lc.epochMu.Lock()
	err := lc.validateEpoch(ep)
	switch {
	case err != nil:
	case lc.pendingEpoch != nil:
		err = fmt.Errorf("core: %v proposed while %v is still staged", ep, *lc.pendingEpoch)
	case ep.Version <= lc.epoch.Version:
		err = fmt.Errorf("core: %v does not supersede active %v", ep, lc.epoch)
	default:
		lc.pendingEpoch = &ep
	}
	lc.epochMu.Unlock()
	if err != nil {
		lc.emitProposal(ep, "rejected")
		return err
	}
	lc.emitProposal(ep, "staged")
	return nil
}

// emitProposal publishes one proposal outcome to the observability plane.
func (lc *LiveCluster) emitProposal(ep PlanEpoch, outcome string) {
	if tr := lc.cfg.Telemetry.T(); tr.Enabled() {
		tr.Event(fmt.Sprintf("epoch-proposal %v [%s]", ep, outcome), "autotune", 0, "net", tr.Now())
	}
	if m := lc.cfg.Telemetry.M(); m != nil {
		m.Counter(MetricEpochProposals, "plan epoch proposals by outcome",
			"outcome", outcome).Inc()
	}
}

// observeAndTune runs the closed loop's between-round step after a
// successful round: hand the tuner its observation, ask for a proposal, and
// stage an accepted one. A refused proposal (invalid, already staged, or
// stale) is dropped — the cluster stays on its current plan, which is
// always safe — and surfaced via telemetry.
func (lc *LiveCluster) observeAndTune(ep PlanEpoch, h *RoundHealth, round int64, sizes []int64) {
	at := lc.cfg.Autotune
	if at == nil {
		return
	}
	at.ObserveRound(RoundObservation{
		Round: round, Epoch: ep, Health: h,
		Wire: lc.WireStats(), GradBytes: sizes,
		Window: max(lc.cfg.Pipeline.Window, 1),
	})
	prop := at.Propose(ep)
	if prop == nil {
		return
	}
	_ = lc.ProposeEpoch(*prop) // outcome recorded by emitProposal
}
