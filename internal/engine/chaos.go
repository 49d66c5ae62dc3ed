package engine

import (
	"fmt"

	"hipress/internal/compress"
	"hipress/internal/core"
	"hipress/internal/gpu"
	"hipress/internal/models"
	"hipress/internal/netsim"
	"hipress/internal/sim"
)

// This file implements the beyond-the-paper robustness studies: fault
// injection into the timing plane (how sensitive is compression-enabled
// training to stragglers and link outages?) and the §3.3 profiling-noise
// report rendered as a standalone table.

// DefaultChaosSpec is the fault schedule the "chaos" experiment runs when
// the caller does not supply one: node 1 throttled ×2 for the whole
// iteration, plus a 50 ms outage of the 0→1 link early in synchronization.
const DefaultChaosSpec = "slow:1x2@0+100;link:0-1@0.02+0.05"

// ChaosExp runs one training iteration fault-free and under the given fault
// schedule (see sim.ParseSchedule for the grammar) for the uncompressed
// ring baseline and HiPress, quantifying how much of each system's
// iteration a fault can eat. Compressed synchronization occupies the wire
// for less time, so the same outage window costs it proportionally more of
// its (shorter) sync phase but less absolute time.
func ChaosExp(spec string) (*Table, error) {
	if spec == "" {
		spec = DefaultChaosSpec
	}
	sched, err := sim.ParseSchedule(spec)
	if err != nil {
		return nil, err
	}
	cl := EC2Cluster(4)
	if m := sched.MaxNode(); m >= cl.Nodes {
		// Grow the cluster so every scheduled fault lands on a real node.
		cl = EC2Cluster(m + 1)
	}
	m, err := models.ByName("vgg19")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Chaos: iteration time under fault schedule %q (%d EC2 nodes, vgg19)", spec, cl.Nodes),
		Header: []string{"system", "fault-free(s)", "chaos(s)", "slowdown", "fault-free tput", "chaos tput"},
	}
	for _, f := range sched.Sorted() {
		t.Notes = append(t.Notes, "fault: "+f.String())
	}
	rows := []struct{ preset, algo string }{
		{"ring", ""},
		{"hipress-ring", "onebit"},
		{"hipress-ps", "onebit"},
	}
	for _, row := range rows {
		cfg, err := PresetFor(row.preset, row.algo, cl, nil)
		if err != nil {
			return nil, err
		}
		clean, err := Run(cl, m, cfg)
		if err != nil {
			return nil, err
		}
		cfg.Chaos = sched
		faulty, err := Run(cl, m, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(clean.System,
			fmt.Sprintf("%.4f", clean.IterSec),
			fmt.Sprintf("%.4f", faulty.IterSec),
			fmt.Sprintf("%.1f%%", 100*(faulty.IterSec/clean.IterSec-1)),
			fmt.Sprintf("%.0f", clean.Throughput),
			fmt.Sprintf("%.0f", faulty.Throughput))
	}
	return t, nil
}

// robustnessRow is one strategy and noise level of the profiling-noise study.
type robustnessRow struct {
	strat  core.Strategy
	jitter float64
	rep    core.RobustnessReport
}

// planRobustnessStudy runs the profiling-noise study JitterExp and
// PlanRobustnessExp both render: SeCoPa's onebit plans for EC2 16n, PS then
// ring, at four noise levels of 40 trials each (seed 7).
func planRobustnessStudy() ([]robustnessRow, error) {
	ob, err := compress.New("onebit", nil)
	if err != nil {
		return nil, err
	}
	dev := gpu.NewDevice(gpu.V100)
	fab := netsim.EC2100G()
	sizes := []int64{16 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 392 << 20}
	var rows []robustnessRow
	for _, strat := range []core.Strategy{core.StrategyPS, core.StrategyRing} {
		p := newPlanner(strat, 16, dev, fab, "onebit", ob)
		for _, jitter := range []float64{0.05, 0.10, 0.25, 0.50} {
			rows = append(rows, robustnessRow{strat, jitter, core.PlanRobustness(p, sizes, jitter, 40, 7)})
		}
	}
	return rows, nil
}

// PlanRobustnessExp renders core.PlanRobustness as a full RobustnessReport
// table: for each strategy and noise level, every report field, so the
// hipress-bench plan-robustness subcommand exposes the raw study (JitterExp
// is the condensed figure-style view).
func PlanRobustnessExp() (*Table, error) {
	study, err := planRobustnessStudy()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Plan robustness: SeCoPa decisions under profiling noise (onebit, EC2 16n)",
		Header: []string{"strategy", "noise", "trials", "decisions", "flipped-compress", "changed-K", "stable", "mean-cost-penalty"},
		Notes: []string{
			"implements the cost-model-dynamics study §3.3 leaves as future work",
			"penalty = mean extra sync cost of mis-profiled plans under the noise-free model",
		},
	}
	for _, r := range study {
		t.AddRow(r.strat.String(),
			fmt.Sprintf("±%.0f%%", 100*r.jitter),
			r.rep.Trials, r.rep.Total,
			r.rep.FlippedCompress, r.rep.ChangedParts,
			fmt.Sprintf("%.1f%%", 100*r.rep.StableFraction()),
			fmt.Sprintf("%.2f%%", 100*r.rep.MeanCostPenalty))
	}
	return t, nil
}
