// Command hipress-bench regenerates the paper's evaluation: every table and
// figure of "Gradient Compression Supercharged High-Performance Data
// Parallel DNN Training" (SOSP 2021), from the calibrated simulation and
// live-execution planes.
//
// Usage:
//
//	hipress-bench list                 list experiment ids
//	hipress-bench all [-scale 0.3]     run everything
//	hipress-bench <id> [<id>...]       run selected experiments
//
// Experiment ids: table1 table3 table5 table6 table7 fig7a fig7b fig7c
// fig8a fig8b fig8c fig9 fig10 fig11 fig12a fig12b fig13 micro, plus the
// beyond-the-paper studies jitter, strategies, wire, chaos, plan-robustness,
// trace, recovery, stragglers (adaptive failure detection vs static
// deadlines under a 10x straggler), autotune (closed-loop cost-model
// recalibration re-planning a live cluster through a mid-run bandwidth
// drop, with a stationary control arm and a bit-identical decision-trace
// replay), and tcpchaos (socket-plane parity: the live rounds over real
// loopback TCP under wire-level resets, corruption, and a half-open peer,
// gated on bit-identity with the chan transport).
//
// The live-plane gates (recovery, stragglers, autotune, tcpchaos) accept
// -transport tcp to run over real loopback sockets instead of in-process
// channels; CI's tcp-parity job runs all four that way.
//
// The chaos experiment accepts a fault schedule via -chaos, e.g.
//
//	hipress-bench -chaos "slow:1x2@0+10;link:0-1@0.02+0.05" chaos
//
// with items slow:<node>x<factor>@<start>+<dur> (straggler),
// link:<src>-<dst>@<start>+<dur> (directed link outage), and
// down:<node>@<start>+<dur> (all links touching node down).
//
// Observability: -trace out.json records every simulated primitive as a
// Chrome trace-event file (open in Perfetto or chrome://tracing; one track
// per node and stream, flow arrows linking sends to receives), and
// -metrics out.prom dumps the metrics registry (byte volumes pre/post
// compression, realized ratios, iteration-latency histograms, link
// occupancy) in Prometheus text exposition format, e.g.
//
//	hipress-bench -trace trace.json -metrics metrics.prom trace fig9
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hipress"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body; it returns the exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hipress-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "shrink iteration-heavy experiments (0..1]")
	asJSON := fs.Bool("json", false, "emit results as JSON instead of text tables")
	chaosSpec := fs.String("chaos", "", "fault schedule for the chaos experiment (see sim.ParseSchedule grammar)")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON file of every simulated primitive (open in Perfetto)")
	metricsOut := fs.String("metrics", "", "write a Prometheus text-exposition dump of the metrics registry")
	transport := fs.String("transport", "", "live-plane transport for the experiment gates: chan (default) or tcp (real loopback sockets)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if err := hipress.SetLiveTransport(*transport); err != nil {
		fmt.Fprintln(stderr, "hipress-bench:", err)
		return 2
	}
	defer hipress.SetLiveTransport("")
	var tel *hipress.Telemetry
	if *traceOut != "" || *metricsOut != "" {
		tel = hipress.NewTelemetry()
		hipress.SetDefaultTelemetry(tel)
		defer hipress.SetDefaultTelemetry(nil)
	}
	if *chaosSpec != "" {
		// Validate up front so a typo fails before minutes of experiments.
		if _, err := hipress.ParseChaosSchedule(*chaosSpec); err != nil {
			fmt.Fprintln(stderr, "hipress-bench:", err)
			return 2
		}
	}
	args := fs.Args()
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "list":
		for _, id := range hipress.Experiments() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	case "all":
		args = hipress.Experiments()
	}
	failed := 0
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	for _, id := range args {
		start := time.Now()
		var tab *hipress.Table
		var err error
		if id == "chaos" && *chaosSpec != "" {
			tab, err = hipress.ChaosExperiment(*chaosSpec)
		} else {
			tab, err = hipress.RunExperiment(id, *scale)
		}
		if err != nil {
			fmt.Fprintf(stderr, "hipress-bench: %s: %v\n", id, err)
			failed++
			continue
		}
		if *asJSON {
			if err := enc.Encode(map[string]interface{}{
				"id": id, "title": tab.Title, "header": tab.Header,
				"rows": tab.Rows, "notes": tab.Notes,
				"seconds": time.Since(start).Seconds(),
			}); err != nil {
				fmt.Fprintln(stderr, "hipress-bench:", err)
				failed++
			}
			continue
		}
		fmt.Fprintln(stdout, tab)
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	if tel != nil {
		if err := writeObservability(tel, *traceOut, *metricsOut); err != nil {
			fmt.Fprintln(stderr, "hipress-bench:", err)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// writeObservability dumps the collected trace and metrics to files.
func writeObservability(tel *hipress.Telemetry, traceOut, metricsOut string) error {
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := tel.T().WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		if err := tel.M().WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: hipress-bench [-scale 0.3] [-json] [-chaos <schedule>] [-trace out.json] [-metrics out.prom] {list|all|<experiment-id>...}")
	fmt.Fprintln(w, "experiments:", hipress.Experiments())
}
