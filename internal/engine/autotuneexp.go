package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"hipress/internal/autotune"
	"hipress/internal/core"
	"hipress/internal/netsim"
	"hipress/internal/tensor"
)

// This file implements the "autotune" experiment: the closed-loop
// cost-model calibration plane's quantitative case. A 4-node live PS
// cluster starts on a fast fabric where the static §3.3 plan is "don't
// compress" — correctly. Mid-run, every link degrades to a hard bandwidth
// cap (the 100 Gbps → 10 Gbps story). Four arms run the same gradient
// stream:
//
//   - static:    the frozen plan. Pays full serialization price on every
//     post-drop round — the cost of planning once from stale profiles.
//   - autotuned: a live Tuner re-fits per-link goodput from ack timings,
//     re-evaluates Eq. 1–2, and flips the plan to selective compression
//     through a plan epoch staged for the next round barrier.
//   - control:   the same tuner on a fabric that never degrades. It must
//     hold the plan — 0 epoch switches — proving the hysteresis keeps the
//     loop quiet under stationary conditions.
//   - replay:    the autotuned arm's recorded decision trace replayed via
//     autotune.Script under different chaos seeding. Per-round results
//     must be bit-identical to the autotuned arm: a round's bytes are a
//     pure function of its epoch, never of the tuner's timing.

// atGrads is the per-round gradient mix: one bandwidth-dominated gradient
// and one small one that should stay raw even post-drop decisions allowing.
var atGrads = []struct {
	name  string
	elems int
}{
	{"big", 64 << 10},  // 256 KiB
	{"small", 1 << 10}, // 4 KiB
}

// atDropChaos caps every link's goodput, emulating the fabric degradation,
// plus rare seeded loss and duplication so reseeded runs differ in timing
// and retransmissions. Loss is kept rare because chaos rolls are a pure
// function of message identity, which repeats across rounds: a higher rate
// would tax every round with the same RTO-recovered drops and blur the
// serialization cost the experiment isolates.
func atDropChaos(seed uint64, bytesPerSec float64) *netsim.ChaosConfig {
	return &netsim.ChaosConfig{Seed: seed,
		Default: netsim.LinkFaults{Bandwidth: bytesPerSec, Drop: 0.002, Dup: 0.01}}
}

// atNewTuner builds the experiment's tuner: goodput learned live, encode/
// decode/ratio seeded from offline onebit profiles (the paper's T_enc/T_dec
// tables), and hysteresis tuned for a short run.
func atNewTuner(n int) (*autotune.Tuner, error) {
	return autotune.NewTuner(autotune.Config{
		N: n, Algo: "onebit", CoLocated: true,
		MinSamples: 10, Margin: 0.5, Windows: 3, Cooldown: 6,
		MaxParts: 8, MinPartBytes: 32 << 10,
		// Conservative offline profile: ~50 MB/s encode/decode. On the fast
		// fabric this keeps raw optimal (the pinned static plan) with a wide
		// margin, so measurement noise cannot flip the stationary control
		// arm; once the cap collapses measured goodput, compression still
		// wins several-fold even under this pessimistic prior — and the
		// first compressed rounds replace it with live measurements.
		PriorEnc:   core.Curve{PerByte: 2e-8},
		PriorDec:   core.Curve{PerByte: 2e-8},
		PriorRatio: 0.05, // 1 bit/elem + scale headers
		Telemetry:  DefaultTelemetry(),
	})
}

// autotuneArm aggregates one arm's run.
type autotuneArm struct {
	elapsed  []time.Duration // per-round wall time
	hashes   []uint64        // per-round result digests (all nodes, all grads)
	switches int64
	final    core.PlanEpoch
}

// tailThroughput returns rounds/sec over the last k rounds.
func (a *autotuneArm) tailThroughput(k int) float64 {
	if k > len(a.elapsed) {
		k = len(a.elapsed)
	}
	var sum time.Duration
	for _, d := range a.elapsed[len(a.elapsed)-k:] {
		sum += d
	}
	if sum <= 0 {
		return 0
	}
	return float64(k) / sum.Seconds()
}

// hashRound digests every node's synchronized gradients in name order.
func hashRound(out []map[string][]float32) uint64 {
	h := fnv.New64a()
	names := make([]string, 0, len(out[0]))
	for name := range out[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf [4]byte
	for _, o := range out {
		for _, name := range names {
			for _, x := range o[name] {
				bits := math.Float32bits(x)
				buf[0], buf[1], buf[2], buf[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// runAutotuneArm runs preRounds on the fast fabric, then (when drop is
// non-nil) installs the bandwidth cap and runs postRounds more. The initial
// plan is pinned to the fast fabric's correct static choice: raw.
func runAutotuneArm(at core.Autotuner, drop *netsim.ChaosConfig, preRounds, postRounds int) (*autotuneArm, error) {
	const n = 4
	lc, err := core.NewLiveCluster(n, core.LiveConfig{
		Strategy: core.StrategyPS, Parts: 4, Algo: "onebit",
		Reliable: true, Autotune: at,
		Telemetry: DefaultTelemetry(),
		Transport: DefaultLiveTransport(),
	})
	if err != nil {
		return nil, err
	}
	// Pin the fast fabric's correct static plan: raw at K=N (Eq. 1 is
	// monotone in K for the bandwidth term, so the static planner lands on
	// K=N too — the control arm must agree with it and stay put).
	if err := lc.RestoreEpoch(core.PlanEpoch{
		Strategy: core.StrategyPS, Parts: 4, CompressMin: -1}, 0); err != nil {
		return nil, err
	}

	rng := tensor.NewRNG(42)
	arm := &autotuneArm{}
	for round := 0; round < preRounds+postRounds; round++ {
		if round == preRounds && drop != nil {
			if err := lc.SetChaos(drop); err != nil {
				return nil, err
			}
		}
		grads := make([]map[string][]float32, n)
		for v := range grads {
			grads[v] = map[string][]float32{}
			for _, g := range atGrads {
				buf := make([]float32, g.elems)
				rng.FillNormal(buf, 1)
				grads[v][g.name] = buf
			}
		}
		start := time.Now()
		out, _, err := lc.SyncRoundContext(context.Background(), grads)
		if err != nil {
			return nil, fmt.Errorf("autotune round %d: %w", round, err)
		}
		arm.elapsed = append(arm.elapsed, time.Since(start))
		arm.hashes = append(arm.hashes, hashRound(out))
	}
	arm.switches = lc.EpochSwitches()
	arm.final = lc.Epoch()
	return arm, nil
}

// AutotuneExp quantifies the online autotuning plane: post-degradation
// throughput frozen vs autotuned, stationary-control switch count, and
// bit-identity of a reseeded decision-trace replay. scale shrinks the
// post-drop window for quick runs.
func AutotuneExp(scale float64) (*Table, error) {
	const n = 4
	preRounds := 8
	postRounds := int(16*scale + 0.5)
	if postRounds < 12 {
		postRounds = 12
	}
	tail := 4 // post-switch window the throughput gate measures
	// ~10 Gbps fabric derated by the simulator's in-process scale: 128 KiB
	// partitions serialize in ~16 ms, so a raw round is payably slow and a
	// compressed one is not.
	drop := atDropChaos(11, 8<<20)

	// Arm 1: frozen static plan.
	static, err := runAutotuneArm(nil, drop, preRounds, postRounds)
	if err != nil {
		return nil, err
	}

	// Arm 2: closed loop, recorded.
	tun, err := atNewTuner(n)
	if err != nil {
		return nil, err
	}
	rec := autotune.NewRecorder(tun)
	tuned, err := runAutotuneArm(rec, drop, preRounds, postRounds)
	if err != nil {
		return nil, err
	}

	// Arm 3: stationary control — same tuner config, fabric never degrades.
	ctl, err := atNewTuner(n)
	if err != nil {
		return nil, err
	}
	control, err := runAutotuneArm(ctl, nil, preRounds, postRounds)
	if err != nil {
		return nil, err
	}

	// Arm 4: replay the recorded decision trace under different seeding.
	replay, err := runAutotuneArm(autotune.NewScript(rec.Trace()),
		atDropChaos(9091, 8<<20), preRounds, postRounds)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: fmt.Sprintf("Autotune: closed-loop re-planning under a mid-run bandwidth drop (4-node PS, onebit, %d+%d rounds)",
			preRounds, postRounds),
		Header: []string{"arm", "pre-drop p50", "post-drop p50", "tail tput (r/s)", "switches", "final plan"},
		Notes: []string{
			"static: the plan profiled on the fast fabric, frozen — every post-drop round pays full raw serialization",
			"autotuned: per-link goodput re-fit from live ack timings; Eq. 1-2 re-evaluated; plan flipped via a plan epoch activated at a round barrier",
			"control: identical tuner on an undegraded fabric — hysteresis holds the plan (0 switches)",
			"replay: the recorded decision trace re-run under different chaos seeding — results bit-identical per round",
		},
	}
	for _, row := range []struct {
		name string
		arm  *autotuneArm
	}{{"static", static}, {"autotuned", tuned}, {"control", control}, {"replay", replay}} {
		pre := percentile(row.arm.elapsed[:preRounds], 0.50)
		post := percentile(row.arm.elapsed[preRounds:], 0.50)
		t.AddRow(row.name,
			fmt.Sprintf("%.1fms", float64(pre.Microseconds())/1000),
			fmt.Sprintf("%.1fms", float64(post.Microseconds())/1000),
			fmt.Sprintf("%.1f", row.arm.tailThroughput(tail)),
			row.arm.switches, row.arm.final.String())
	}

	// Self-asserting gates: the experiment fails loudly when the scenario
	// loses its teeth.
	if static.switches != 0 {
		return nil, fmt.Errorf("engine: autotune: static arm switched epochs %d times with no tuner", static.switches)
	}
	if tuned.switches < 1 {
		return nil, fmt.Errorf("engine: autotune: tuner never re-planned after the bandwidth drop")
	}
	if tuned.final.CompressMin < 0 {
		return nil, fmt.Errorf("engine: autotune: tuner re-planned to %v, expected selective compression", tuned.final)
	}
	if control.switches != 0 {
		// Under the race detector the fabric is NOT stationary: detector
		// overhead ramps with goroutine count, so measured goodput genuinely
		// degrades mid-run and the tuner is right to re-plan. The gate only
		// has teeth on plain runs (CI's bench steps), like every wall-clock
		// gate in this package.
		if !raceEnabled {
			return nil, fmt.Errorf("engine: autotune: control arm switched %d times under stationary conditions", control.switches)
		}
		t.Notes = append(t.Notes,
			"race detector active: stationary-control and recovery gates skipped (detector overhead degrades measured goodput); replay bit-identity enforced")
	}
	staticTput := static.tailThroughput(tail)
	tunedTput := tuned.tailThroughput(tail)
	gain := tunedTput / staticTput
	if gain < 1.5 && !raceEnabled {
		return nil, fmt.Errorf("engine: autotune: post-drop recovery %.2fx (autotuned %.1f r/s vs static %.1f r/s), need >= 1.5x",
			gain, tunedTput, staticTput)
	}
	if replay.switches != tuned.switches {
		return nil, fmt.Errorf("engine: autotune: replay made %d switches, recording made %d", replay.switches, tuned.switches)
	}
	for i := range tuned.hashes {
		if replay.hashes[i] != tuned.hashes[i] {
			return nil, fmt.Errorf("engine: autotune: replay round %d hash %016x != recorded %016x — results are not a pure function of the epoch",
				i, replay.hashes[i], tuned.hashes[i])
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"post-drop tail throughput: autotuned %.1f rounds/s vs static %.1f rounds/s — %.1fx recovered; replay of %d recorded switch(es) bit-identical across %d rounds",
		tunedTput, staticTput, gain, tuned.switches, len(tuned.hashes)))
	return t, nil
}
