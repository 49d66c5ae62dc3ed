package engine

import (
	"context"
	"fmt"
	"time"

	"hipress/internal/core"
	"hipress/internal/netsim"
	"hipress/internal/tensor"
)

// This file implements the "pipeline" experiment: the windowed send
// engine's quantitative case. A 4-node co-located PS cluster runs the same
// gradient stream on a bandwidth-capped fabric (the autotune experiment's
// 8 MB/s degraded link model, where serialization dominates the round) with
// the per-link sliding window swept W ∈ {1, 2, 4, 8}:
//
//   - W=1 is the classic engine — one send lane per node, each transfer's
//     serialization and ack RTT paid in sequence.
//   - W≥2 gives every directed link its own lane with W in-flight slots, so
//     the per-node round floor collapses from the *sum* of per-link costs
//     toward the *max*, and within one link ack RTTs overlap serialization.
//
// Both a raw arm (bandwidth-bound, where pipelining pays most) and a
// compressed onebit arm run the sweep. The experiment self-gates on the two
// properties the tentpole claims: raw W=4 must clear ≥ 1.5× the W=1
// round rate, and every arm's per-round result digests must be
// bit-identical across windows — pipelining changes when bytes move, never
// which bytes a round produces.

// plGrads is the per-round gradient mix: two bandwidth-dominated gradients
// (so a node's sequential send loop has real per-link sums to pay) plus a
// small one that keeps the barrier shape realistic.
var plGrads = []struct {
	name  string
	elems int
}{
	{"big0", 48 << 10}, // 192 KiB
	{"big1", 32 << 10}, // 128 KiB
	{"small", 1 << 10}, // 4 KiB
}

// pipelineArm aggregates one (window, algo) cell of the sweep.
type pipelineArm struct {
	window   int
	elapsed  []time.Duration
	hashes   []uint64
	last     *core.RoundHealth
	sendWall time.Duration // last round's staged-send → last-resolution span
}

// tput returns rounds/sec over the last k rounds.
func (a *pipelineArm) tput(k int) float64 {
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

// runPipelineArm runs rounds under one window setting. compressed pins the
// plan to compress-everything; otherwise raw. The plan is pinned (no tuner)
// so every arm moves identical bytes and only the send engine differs.
func runPipelineArm(window int, compressed bool, rounds int) (*pipelineArm, error) {
	const n = 4
	lc, err := core.NewLiveCluster(n, core.LiveConfig{
		Strategy: core.StrategyPS, Parts: 4, Algo: "onebit",
		ErrorFeedback: true,
		Reliable:      true,
		Pipeline: core.PipelineConfig{
			Window: window, AckBatch: 4, OverlapEncode: window > 1,
		},
		Telemetry: DefaultTelemetry(),
		Transport: DefaultLiveTransport(),
	})
	if err != nil {
		return nil, err
	}
	cm := int64(-1) // raw
	if compressed {
		cm = 0
	}
	if err := lc.RestoreEpoch(core.PlanEpoch{
		Strategy: core.StrategyPS, Parts: 4, CompressMin: cm}, 0); err != nil {
		return nil, err
	}
	// The degraded fabric: a hard per-link goodput cap, deterministic
	// queueing, no probabilistic faults — the cleanest surface for a timing
	// comparison (retransmissions would add seeded noise across arms).
	if err := lc.SetChaos(&netsim.ChaosConfig{Seed: 23,
		Default: netsim.LinkFaults{Bandwidth: 8 << 20}}); err != nil {
		return nil, err
	}

	rng := tensor.NewRNG(4242)
	arm := &pipelineArm{window: window}
	for round := 0; round < rounds; round++ {
		grads := make([]map[string][]float32, n)
		for v := range grads {
			grads[v] = map[string][]float32{}
			for _, g := range plGrads {
				buf := make([]float32, g.elems)
				rng.FillNormal(buf, 1)
				grads[v][g.name] = buf
			}
		}
		start := time.Now()
		out, health, err := lc.SyncRoundContext(context.Background(), grads)
		if err != nil {
			return nil, fmt.Errorf("pipeline W=%d round %d: %w", window, round, err)
		}
		arm.elapsed = append(arm.elapsed, time.Since(start))
		arm.hashes = append(arm.hashes, hashRound(out))
		arm.last = health
		arm.sendWall = time.Duration(health.SendWallNs)
	}
	return arm, nil
}

// PipelineExp quantifies the windowed send engine: round rate vs window on
// a serialization-bound fabric, with bit-identity pinned across every arm.
// scale shrinks the round count for quick runs.
func PipelineExp(scale float64) (*Table, error) {
	rounds := int(10*scale + 0.5)
	if rounds < 6 {
		rounds = 6
	}
	tail := rounds - 2 // skip warmup rounds (transport dials, pool warming)
	windows := []int{1, 2, 4, 8}
	if scale < 0.5 {
		// Quick runs (the parallel experiment-sweep test) keep the gate's
		// two arms only.
		windows = []int{1, 4}
	}

	t := &Table{
		Title:  fmt.Sprintf("Pipeline: windowed per-link sends vs the sequential engine (4-node PS, 8 MB/s links, %d rounds)", rounds),
		Header: []string{"arm", "window", "p50 round", "send-wall", "tail tput (r/s)", "vs W=1", "max lane depth", "acks batched"},
		Notes: []string{
			"W=1: the classic engine — one lane per node, serialization + ack RTT paid in sequence per transfer",
			"W>=2: per-directed-link lanes with W in-flight transfers; a send is staged onto its lane as its dependencies clear",
			"bit-identity gate: every arm's per-round digests must match W=1 exactly — the window changes timing, never bytes",
		},
	}

	type algoArm struct {
		label      string
		compressed bool
	}
	var rawArms []*pipelineArm
	for _, aa := range []algoArm{{"raw", false}, {"onebit", true}} {
		var base *pipelineArm
		for _, w := range windows {
			arm, err := runPipelineArm(w, aa.compressed, rounds)
			if err != nil {
				return nil, err
			}
			if base == nil {
				base = arm
			}
			// The tentpole's non-negotiable: result bytes are a pure
			// function of the plan epoch, whatever the window.
			for i := range base.hashes {
				if arm.hashes[i] != base.hashes[i] {
					return nil, fmt.Errorf("engine: pipeline: %s W=%d round %d digest %016x != W=%d digest %016x — windowing changed result bytes",
						aa.label, w, i, arm.hashes[i], base.window, base.hashes[i])
				}
			}
			speedup := arm.tput(tail) / base.tput(tail)
			t.AddRow(aa.label, w,
				fmt.Sprintf("%.1fms", float64(percentile(arm.elapsed, 0.50).Microseconds())/1000),
				fmt.Sprintf("%.1fms", float64(arm.sendWall.Microseconds())/1000),
				fmt.Sprintf("%.1f", arm.tput(tail)),
				fmt.Sprintf("%.2fx", speedup),
				arm.last.MaxLinkQueueDepth,
				arm.last.AckBatched)
			if !aa.compressed {
				rawArms = append(rawArms, arm)
			}
		}
	}

	// Throughput gate: on a serialization-bound fabric the W=4 raw arm must
	// clear 1.5x the sequential engine, or the window is not overlapping.
	var w1, w4 *pipelineArm
	for _, arm := range rawArms {
		switch arm.window {
		case 1:
			w1 = arm
		case 4:
			w4 = arm
		}
	}
	gain := w4.tput(tail) / w1.tput(tail)
	if gain < 1.5 {
		// Under the race detector CPU cost dominates the simulated
		// bandwidth sleeps and wall-clock ratios say nothing about the
		// engine; the bit-identity gate above still ran in full. The
		// throughput gate is enforced on every plain run (CI's bench steps).
		if !raceEnabled {
			return nil, fmt.Errorf("engine: pipeline: raw W=4 round rate %.1f r/s is %.2fx the W=1 rate %.1f r/s, need >= 1.5x",
				w4.tput(tail), gain, w1.tput(tail))
		}
		t.Notes = append(t.Notes,
			"race detector active: wall-clock throughput gate skipped (CPU-bound timings); bit-identity gate enforced")
	}
	if w4.last.SendWallNs <= 0 || w1.last.SendWallNs <= 0 {
		return nil, fmt.Errorf("engine: pipeline: send-wall health evidence missing (W=1 %d ns, W=4 %d ns)",
			w1.last.SendWallNs, w4.last.SendWallNs)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"raw round rate: W=4 %.1f r/s vs W=1 %.1f r/s — %.1fx; digests bit-identical across all %d arms x %d rounds",
		w4.tput(tail), w1.tput(tail), gain, 2*len(windows), rounds))
	return t, nil
}
