// Package autotune closes the loop around the §3.3 cost model: instead of
// planning once from offline profiles, a Tuner re-fits the model's
// coefficients from live measurements (ack round trips, compression
// instrumentation) and proposes plan-epoch changes — compress-vs-raw
// thresholds, partition counts, PS↔Ring — through the live plane's safe
// reconfiguration protocol. Hysteresis (confidence gate, predicted-gain
// margin, consecutive-window streak, post-switch cooldown) keeps the loop
// from flapping on noise; the Script/Recorder pair makes every decision
// sequence replayable bit-for-bit.
package autotune

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hipress/internal/core"
	"hipress/internal/telemetry"
)

// Config parameterizes a Tuner. The zero value of every knob gets a sane
// default from withDefaults; N is the only mandatory field.
type Config struct {
	// N is the cluster size the cost model's α/β/γ coefficients use.
	N int
	// Algo names the compression algorithm the cluster was built with; empty
	// disables compressed candidates entirely.
	Algo string
	// Strategies lists the candidate strategies to evaluate each window
	// (default: the current strategy only — strategy flips are opt-in
	// because a PS↔Ring switch rebuilds the topology).
	Strategies []core.Strategy
	// CoLocated selects the §6.1 co-located PS coefficient adjustment.
	CoLocated bool
	// MinSamples gates every decision on evidence: at least this many
	// unambiguous link round trips on some link before the calibrator's
	// curves are trusted (default 32).
	MinSamples int
	// Margin is the minimum predicted relative gain before a switch is
	// considered: candidate wins a window only when
	// cost(current)/cost(candidate) >= 1+Margin (default 0.2).
	Margin float64
	// Windows is how many consecutive winning windows a candidate needs
	// before it is proposed (default 3).
	Windows int
	// Cooldown is how many rounds after a proposal the tuner stays silent,
	// letting the new plan generate fresh measurements (default 8).
	Cooldown int

	// MaxParts / MinPartBytes bound the partition search like the static
	// planner's fields (0 → 4N and 128 KiB).
	MaxParts     int
	MinPartBytes int64

	// PriorEnc/PriorDec/PriorRatio seed the compression cost estimates from
	// offline profiles (the paper's T_enc/T_dec tables), so the tuner can
	// evaluate compressed candidates before the cluster has ever compressed.
	// Live measurements take over as soon as they exist.
	PriorEnc   core.Curve
	PriorDec   core.Curve
	PriorRatio float64

	// Telemetry, when wired, receives one event per evaluation window and
	// per proposal.
	Telemetry *telemetry.Set
}

func (c Config) withDefaults() Config {
	if c.MinSamples <= 0 {
		c.MinSamples = 32
	}
	if c.Margin <= 0 {
		c.Margin = 0.2
	}
	if c.Windows <= 0 {
		c.Windows = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 8
	}
	return c
}

// Tuner implements core.Autotuner: calibrate, re-plan, and propose under
// hysteresis. Construct with NewTuner and hand to LiveConfig.Autotune.
type Tuner struct {
	cfg Config
	cal *Calibrator
	// window is the send window of the last observed round
	// (RoundObservation.Window). W transfers overlapping on a link amortize
	// the fixed per-send cost (latency + ack RTT) but not the per-byte
	// serialization, so CalibratedPlanner divides the send curve's Fixed by
	// W: Eq. 1–2 priced as a pipelined round actually pays.
	window atomic.Int64

	mu        sync.Mutex
	sizes     []int64 // gradient mix of the last observed round, ascending
	streak    int     // consecutive windows the same candidate won
	candidate *core.PlanEpoch
	cooldown  int // rounds left before proposing again
	proposals int64
}

// NewTuner builds a tuner for an n-node cluster.
func NewTuner(cfg Config) (*Tuner, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("autotune: cluster size %d, need at least 2", cfg.N)
	}
	return &Tuner{cfg: cfg.withDefaults(), cal: NewCalibrator()}, nil
}

// Calibrator exposes the underlying estimators (read-mostly; used by tests
// and experiment tables).
func (t *Tuner) Calibrator() *Calibrator { return t.cal }

// ObserveLink implements core.Autotuner.
func (t *Tuner) ObserveLink(from, to, payloadBytes int, rtt time.Duration) {
	t.cal.ObserveLink(from, to, payloadBytes, rtt)
}

// ObserveRound implements core.Autotuner.
func (t *Tuner) ObserveRound(obs core.RoundObservation) {
	t.cal.ObserveWire(obs.Wire)
	t.window.Store(int64(obs.Window))
	t.mu.Lock()
	t.sizes = append(t.sizes[:0], obs.GradBytes...)
	if t.cooldown > 0 {
		t.cooldown--
	}
	t.mu.Unlock()
}

// CalibratedPlanner builds a §3.3 planner for the given strategy from the
// current live estimates (and configured priors). ok is false while the
// calibrator lacks a confident send curve — the tuner never plans blind.
func (t *Tuner) CalibratedPlanner(s core.Strategy) (*core.Planner, bool) {
	send, ok := t.cal.SendCurve(t.cfg.MinSamples)
	if !ok {
		return nil, false
	}
	if w := t.window.Load(); w > 1 {
		send.Fixed /= float64(w) // samples are single-transfer round trips (see window)
	}
	p := &core.Planner{
		Strategy: s, N: t.cfg.N, CoLocated: t.cfg.CoLocated,
		Send:         send,
		MaxParts:     t.cfg.MaxParts,
		MinPartBytes: t.cfg.MinPartBytes,
	}
	enc, okE := t.cal.EncCurve(t.cfg.PriorEnc)
	dec, okD := t.cal.DecCurve(t.cfg.PriorDec)
	ratio, okR := t.cal.Ratio(t.cfg.PriorRatio)
	if t.cfg.Algo == "" || !okE || !okD || !okR {
		// No compression cost model: planning still works, but TsyncCpr is
		// poisoned so raw always wins.
		p.Enc = core.Curve{Fixed: 1e18}
		p.Dec = core.Curve{Fixed: 1e18}
		p.RatioOf = func(int64) float64 { return 1 }
		return p, true
	}
	p.Enc, p.Dec = enc, dec
	p.RatioOf = func(int64) float64 { return ratio }
	return p, true
}

// epochCost evaluates the modeled per-round synchronization cost of running
// the observed gradient mix under ep, using pl's coefficients. Raw
// gradients clamp the partition count to N (Eq. 1 is undefined beyond it).
func epochCost(pl *core.Planner, ep core.PlanEpoch, sizes []int64) float64 {
	var total float64
	for _, m := range sizes {
		if m <= 0 {
			continue
		}
		k := ep.Parts
		if k < 1 {
			k = 1
		}
		if ep.CompressMin >= 0 && m >= ep.CompressMin {
			total += pl.TsyncCpr(m, k)
		} else {
			if k > pl.N {
				k = pl.N
			}
			total += pl.TsyncOrig(m, k)
		}
	}
	return total
}

// plan derives the best candidate epoch for one strategy from its
// calibrated planner: the largest gradient picks the partition count (it
// dominates the round), CompressionThreshold picks the selective-
// compression cutoff over the observed size range.
func (t *Tuner) plan(pl *core.Planner, sizes []int64) core.PlanEpoch {
	max := sizes[len(sizes)-1]
	best := pl.Plan(max)
	cm := int64(-1)
	if t.cfg.Algo != "" {
		if th := pl.CompressionThreshold(sizes[0], max); th >= 0 {
			cm = th
		}
	}
	return core.PlanEpoch{Strategy: pl.Strategy, Parts: best.Parts, CompressMin: cm}
}

// Propose implements core.Autotuner: re-evaluate the cost model with live
// coefficients and return a staged-able proposal once the same winning
// candidate has cleared the margin for Windows consecutive windows and the
// cooldown has expired.
func (t *Tuner) Propose(cur core.PlanEpoch) *core.PlanEpoch {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.sizes) == 0 || t.cooldown > 0 {
		return nil
	}

	curPl, ok := t.CalibratedPlanner(cur.Strategy)
	if !ok {
		return nil // below the confidence gate
	}
	curCost := epochCost(curPl, cur, t.sizes)

	strategies := t.cfg.Strategies
	if len(strategies) == 0 {
		strategies = []core.Strategy{cur.Strategy}
	}
	var best *core.PlanEpoch
	bestCost := curCost
	for _, s := range strategies {
		pl := curPl
		if s != cur.Strategy {
			if pl, ok = t.CalibratedPlanner(s); !ok {
				continue
			}
		}
		cand := t.plan(pl, t.sizes)
		if cand.Strategy == cur.Strategy && cand.Parts == cur.Parts && cand.CompressMin == cur.CompressMin {
			continue // already running this plan
		}
		if c := epochCost(pl, cand, t.sizes); c < bestCost {
			cc := cand
			best, bestCost = &cc, c
		}
	}

	win := best != nil && curCost >= (1+t.cfg.Margin)*bestCost
	t.emitWindow(cur, best, curCost, bestCost, win)
	if !win {
		t.streak, t.candidate = 0, nil
		return nil
	}
	// The streak only survives if the same candidate keeps winning;
	// a different winner restarts the count.
	if t.candidate == nil || *t.candidate != *best {
		t.candidate = best
		t.streak = 1
		return nil
	}
	t.streak++
	if t.streak < t.cfg.Windows {
		return nil
	}
	prop := *best
	prop.Version = cur.Version + 1
	t.streak, t.candidate = 0, nil
	t.cooldown = t.cfg.Cooldown
	t.proposals++
	return &prop
}

// Proposals returns how many epochs the tuner has proposed.
func (t *Tuner) Proposals() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.proposals
}

// emitWindow publishes one evaluation window to the observability plane.
// Called with t.mu held; the telemetry plane never calls back in.
func (t *Tuner) emitWindow(cur core.PlanEpoch, best *core.PlanEpoch, curCost, bestCost float64, win bool) {
	if m := t.cfg.Telemetry.M(); m != nil {
		m.Counter("hipress_autotune_windows_total",
			"decision windows the tuner has evaluated").Inc()
		m.Gauge("hipress_autotune_modeled_cost_seconds",
			"modeled synchronization cost per round", "plan", "current").Set(curCost)
		if best != nil {
			m.Gauge("hipress_autotune_modeled_cost_seconds",
				"modeled synchronization cost per round", "plan", "candidate").Set(bestCost)
		}
		if r, ok := t.cal.Ratio(t.cfg.PriorRatio); ok {
			m.Histogram("hipress_autotune_ratio",
				"calibrated wire/raw compression ratio per decision window",
				telemetry.RatioBuckets).Observe(r)
		}
	}
	tr := t.cfg.Telemetry.T()
	if !tr.Enabled() {
		return
	}
	msg := fmt.Sprintf("autotune window: %v cost=%.3gs (no better candidate)", cur, curCost)
	if best != nil {
		verdict := "below margin"
		if win {
			verdict = fmt.Sprintf("wins streak=%d/%d", t.streak+1, t.cfg.Windows)
		}
		msg = fmt.Sprintf("autotune window: %v cost=%.3gs vs %v cost=%.3gs [%s]",
			cur, curCost, *best, bestCost, verdict)
	}
	tr.Event(msg, "autotune", 0, "net", tr.Now())
}
