package main

import (
	"math"
	"sort"
)

// metricDef names one metric of the benchmark. The tables below are the
// single source of truth: BENCHMARK.json is checked against them by
// TestBenchmarkJSONMatchesTables, and every run must emit exactly the
// metrics of the table its mode selects.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median a metric may worsen by
}

// endToEnd is what a user of the system sees. One op is one synchronization
// round (sync workloads), one training step (train) or one engine.Run (sim),
// so every metric is measured — and is never zero — on every workload.
//
// The bounds are what this class of machine can resolve, not what one would
// like to hold a change to: on the shared 2-core box the benchmark was
// written on, whole runs drift with the host (wall and CPU time together,
// all workloads at once), so the quartile spread of the timing metrics over
// ten seeds is 6–18 % and a 10 % bound would call noise a regression.
// Allocation counts repeat within 2 %. README.md has the measured spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_KB_per_op", "KB", "lower", 0.05},
	{"peak_rss_MB", "MB", "lower", 0.25},
}

// perLayer is the attribution: every entry is measured from outside a layer
// (a replay of the calls one op makes into it, or a micro-measurement of its
// public functions) or read from what the program already records (spans,
// RoundHealth, pool/arena/TCP counters). A layer the workload does not load
// reports 0 — that is the "predicted idle" column of the README's table.
var perLayer = []metricDef{
	{"core.round_ms_tail", "ms", "lower", 0},
	{"core.tasks_per_round", "count", "lower", 0},
	{"core.msgs_per_round", "count", "lower", 0},
	{"core.graph_build_ms", "ms", "lower", 0},
	{"core.send_wall_ms", "ms", "lower", 0},
	{"core.max_link_queue_depth", "count", "lower", 0},
	{"core.retries_per_round", "count", "lower", 0},
	{"core.duplicates_per_round", "count", "lower", 0},
	{"core.ack_batched_per_round", "count", "higher", 0},
	{"core.span_encode_ms", "ms", "lower", 0},
	{"core.span_decode_ms", "ms", "lower", 0},
	{"core.span_merge_ms", "ms", "lower", 0},
	{"core.span_send_ms", "ms", "lower", 0},
	{"core.span_recv_ms", "ms", "lower", 0},
	{"core.floor_ratio", "ratio", "lower", 0},
	{"core.simexec_tasks_per_s", "1/s", "higher", 0},
	{"core.planner_plan_ns", "ns", "lower", 0},

	{"compress.replay_encode_ms", "ms", "lower", 0},
	{"compress.replay_decode_ms", "ms", "lower", 0},
	{"compress.encodes_per_round", "count", "lower", 0},
	{"compress.encode_GBps_1m", "GB/s", "higher", 0},
	{"compress.decode_GBps_1m", "GB/s", "higher", 0},
	{"compress.encode_ns_per_call_256", "ns", "lower", 0},
	{"compress.decode_ns_per_call_256", "ns", "lower", 0},
	{"compress.encode_allocs_per_call", "count", "lower", 0},
	{"compress.decode_allocs_per_call", "count", "lower", 0},
	{"compress.wire_ratio", "ratio", "higher", 0},

	{"kernels.pool_run_ns_1chunk", "ns", "lower", 0},
	{"kernels.pool_run_ns_32chunk", "ns", "lower", 0},
	{"kernels.lease_ns", "ns", "lower", 0},
	{"kernels.arena_hit_rate", "ratio", "higher", 0},
	{"kernels.parallel_run_share", "ratio", "higher", 0},

	{"netsim.setup_teardown_ms", "ms", "lower", 0},
	{"netsim.msg_rtt_us", "us", "lower", 0},
	{"netsim.stream_MBps", "MB/s", "higher", 0},
	{"netsim.replay_ms", "ms", "lower", 0},
	{"netsim.allocs_per_msg", "count", "lower", 0},
	{"netsim.alloc_KB_per_msg_1m", "KB", "lower", 0},
	{"netsim.tcp_redials", "count", "lower", 0},
	{"netsim.tcp_corrupt_frames", "count", "lower", 0},

	{"telemetry.trace_overhead_pct", "%", "lower", 0},
	{"telemetry.spans_per_op", "count", "lower", 0},
	{"telemetry.record_ns", "ns", "lower", 0},

	{"trainer.samples_per_s", "1/s", "higher", 0},
	{"trainer.sync_share_pct", "%", "lower", 0},
	{"trainer.step_ms_tail", "ms", "lower", 0},
	{"trainer.ckpt_stall_ms", "ms", "lower", 0},
	{"trainer.loss_final", "loss", "lower", 0},
	{"trainer.loss_gap_vs_exact", "loss", "lower", 0},
	{"ckpt.save_ms", "ms", "lower", 0},
	{"ckpt.load_ms", "ms", "lower", 0},
	{"ckpt.bytes", "count", "lower", 0},

	{"engine.run_ms_vgg19", "ms", "lower", 0},
	{"engine.run_ms_bert_large", "ms", "lower", 0},
	{"engine.allocs_per_run_bert_large", "count", "lower", 0},
	{"engine.scaling_eff_bert_large", "ratio", "higher", 0},
	{"engine.paper_speedup_min", "ratio", "higher", 0},
	{"engine.paper_speedup_geomean", "ratio", "higher", 0},

	{"bench.tail_pct", "%", "higher", 0},
	{"bench.tail_samples", "count", "higher", 0},
	{"bench.op_ms_p50_untraced", "ms", "lower", 0},
	{"bench.op_ms_p50_traced", "ms", "lower", 0},
	{"bench.goodput_MBps", "MB/s", "higher", 0},
	{"bench.fail_share", "ratio", "lower", 0},
	{"bench.measured_s", "s", "lower", 0},
	{"bench.gc_cycles_per_op", "count", "lower", 0},
}

// metrics is one run's named values. A run starts from zeros(table) so a
// layer the workload leaves idle reports 0, and set rejects names outside
// the table so a typo cannot add a metric the contract does not list.
type metrics map[string]float64

func zeros(table []metricDef) metrics {
	m := make(metrics, len(table))
	for _, d := range table {
		m[d.Name] = 0
	}
	return m
}

func (m metrics) set(name string, v float64) {
	if _, ok := m[name]; !ok {
		panic("bench: metric " + name + " is not in the table this run reports")
	}
	m[name] = v
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; sorted must be ascending, non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return percentile(sortedCopy(v), 50)
}

// tailLadder is the fixed set of percentiles a tail may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tail applies the reporting rule for slow cases: the highest percentile of
// the ladder that still has at least ten samples beyond it. With fewer than
// forty samples no rung qualifies and the median is returned as p50 — the
// output always states which percentile it is.
func tail(v []float64) (pct, value float64) {
	if len(v) == 0 {
		return 50, 0
	}
	s := sortedCopy(v)
	for _, p := range tailLadder {
		if float64(len(s))*(100-p)/100 >= 10-1e-9 { // 10000 × 0.1 % is 9.99… in floating point
			return p, percentile(s, p)
		}
	}
	return 50, percentile(s, 50)
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (exclusive method) — the repeatability
// measure the driver applies. Needs at least two values.
func quartileSpread(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := percentile(s, 50)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
