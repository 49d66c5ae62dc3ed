package main

import (
	"context"
	"fmt"
	"math"

	"hipress/internal/core"
	"hipress/internal/kernels"
	"hipress/internal/models"
	"hipress/internal/telemetry"
	"hipress/internal/tensor"
)

// The three synchronization workloads: a 4-node core.LiveCluster
// synchronizing a scaled-down Table 6 gradient list, one round per
// operation.

const (
	inputSets    = 4 // pre-generated gradient sets, cycled, never rebuilt in the timed loop
	verifyRounds = 8 // rounds whose results are checked bit for bit against the reference cluster
)

// syncSpec is what distinguishes the sync workloads from each other.
type syncSpec struct {
	model string // Table 6 model whose gradient list is used
	div   int    // element counts are divided by this ...
	floor int    // ... and floored here
	cfg   core.LiveConfig
}

var pipelined = core.PipelineConfig{Window: 4, AckBatch: 4, OverlapEncode: true}

var syncSpecs = map[string]syncSpec{
	"vgg-onebit-ps-chan": {"vgg19", 64, 256, core.LiveConfig{
		Strategy: core.StrategyPS, Algo: "onebit", ErrorFeedback: true, Parts: 2,
		Transport: "chan", Reliable: true, Pipeline: pipelined}},
	"vgg-exact-ring-tcp": {"vgg19", 64, 256, core.LiveConfig{
		Strategy: core.StrategyRing, Parts: 2,
		Transport: "tcp", Reliable: true, Pipeline: pipelined}},
	"bert-dgc-ps-tcp": {"bert-large", 128, 256, core.LiveConfig{
		Strategy: core.StrategyPS, Algo: "dgc", ErrorFeedback: true, Parts: 1,
		Transport: "tcp", Reliable: true, Pipeline: pipelined}},
}

// gradients returns the workload's gradient list. Smoke runs shrink it
// further so the tier-1 test stays short.
func (s syncSpec) gradients(smoke bool) ([]models.Gradient, error) {
	m, err := models.ByName(s.model)
	if err != nil {
		return nil, err
	}
	div := s.div * pick(smoke, 1, 16)
	src := m.Gradients()
	out := make([]models.Gradient, len(src))
	for i, g := range src {
		e := g.Elems / div
		if e < s.floor {
			e = s.floor
		}
		out[i] = models.Gradient{Name: g.Name, Elems: e}
	}
	return out, nil
}

// inputs are the generated gradients: sets[set][node][name].
type inputs struct {
	grads        []models.Gradient
	sets         [][]map[string][]float32
	sums         []uint64 // digest of each set at generation time
	bytesPerNode int
}

// fillBell fills v with a bell-shaped distribution around zero of standard
// deviation about 0.01 (the sum of four 16-bit uniforms — gradient-like
// and an order of magnitude cheaper than Box–Muller for the ~36 M elements
// a workload generates).
func fillBell(rng *tensor.RNG, v []float32) {
	const scale = 0.01 / 37837.0 // std of the sum of four uniform 16-bit integers
	for i := range v {
		u := rng.Uint64()
		s := int64(u&0xffff) + int64(u>>16&0xffff) + int64(u>>32&0xffff) + int64(u>>48) - 2*0xffff
		v[i] = float32(s) * scale
	}
}

func generateInputs(grads []models.Gradient, seed uint64, sets int) *inputs {
	in := &inputs{grads: grads}
	for _, g := range grads {
		in.bytesPerNode += 4 * g.Elems
	}
	for s := 0; s < sets; s++ {
		set := make([]map[string][]float32, nodes)
		for v := range set {
			rng := tensor.NewRNG(seed*1_000_003 + uint64(s)*101 + uint64(v))
			set[v] = make(map[string][]float32, len(grads))
			for _, g := range grads {
				buf := make([]float32, g.Elems)
				fillBell(rng, buf)
				set[v][g.Name] = buf
			}
		}
		in.sets = append(in.sets, set)
		in.sums = append(in.sums, in.digestSet(set))
	}
	return in
}

// digest folds float32 bit patterns into a 64-bit FNV-1a style hash, one
// element per step.
func digest(h uint64, v []float32) uint64 {
	for _, x := range v {
		h = (h ^ uint64(math.Float32bits(x))) * 1099511628211
	}
	return h
}

const digestSeed = 14695981039346656037

func (in *inputs) digestNode(node map[string][]float32) uint64 {
	h := uint64(digestSeed)
	for _, g := range in.grads {
		h = digest(h, node[g.Name])
	}
	return h
}

func (in *inputs) digestSet(set []map[string][]float32) uint64 {
	h := uint64(digestSeed)
	for _, node := range set {
		h = h*31 + in.digestNode(node)
	}
	return h
}

// syncInst is one live cluster plus what the correctness gate collected from
// its first verifyRounds rounds.
type syncInst struct {
	lc      *core.LiveCluster
	in      *inputs
	exact   bool
	traced  bool // keep every round's RoundHealth
	checked int  // rounds < checked are verified inside op
	corrupt bool

	digests []uint64
	wrong   []string
	last    []map[string][]float32
	health  []*core.RoundHealth
}

func newSyncInst(spec syncSpec, in *inputs, tel *telemetry.Set, o options) (*syncInst, error) {
	cfg := spec.cfg
	cfg.Telemetry = tel
	lc, err := core.NewLiveCluster(nodes, cfg)
	if err != nil {
		return nil, err
	}
	s := &syncInst{lc: lc, in: in, exact: cfg.Algo == "", traced: tel != nil,
		checked: pick(o.smoke, verifyRounds, 2), corrupt: o.corrupt}
	for i := 0; i < pick(o.smoke, warmupOps, 1); i++ {
		if _, err := s.op(i); err != nil {
			return nil, fmt.Errorf("warm-up round %d: %w", i, err)
		}
	}
	return s, nil
}

func (s *syncInst) op(i int) (int, error) {
	out, h, err := s.lc.SyncRoundContext(context.Background(), s.in.sets[i%len(s.in.sets)])
	if err != nil {
		return 1, err
	}
	s.last = out
	if s.traced {
		s.health = append(s.health, h)
	}
	if i < s.checked {
		if s.corrupt && i == 1 {
			v := out[nodes-1][s.in.grads[0].Name]
			v[0] = math.Float32frombits(math.Float32bits(v[0]) ^ 1)
		}
		s.check(i, out)
	}
	return 1, nil
}

func (s *syncInst) close() error { return nil }

// check is the per-round part of the correctness gate: every node holds
// node 0's bytes, and an uncompressed sum is the float64 sum to rounding.
// Node 0's digest is kept for the comparison with the reference cluster.
func (s *syncInst) check(i int, out []map[string][]float32) {
	d0 := s.in.digestNode(out[0])
	for v := 1; v < nodes; v++ {
		if d := s.in.digestNode(out[v]); d != d0 {
			s.wrong = append(s.wrong, fmt.Sprintf("round %d: node %d result differs from node 0 (digest %016x vs %016x)", i, v, d, d0))
		}
	}
	s.digests = append(s.digests, d0)
	if !s.exact {
		return
	}
	set := s.in.sets[i%len(s.in.sets)]
	for _, g := range s.in.grads {
		var diff2, ref2 float64
		var src [nodes][]float32
		for v := range src {
			src[v] = set[v][g.Name]
		}
		for e, x := range out[0][g.Name] {
			var ref float64
			for _, in := range src {
				ref += float64(in[e])
			}
			d := float64(x) - ref
			diff2 += d * d
			ref2 += ref * ref
		}
		if diff2 > 1e-10*ref2 { // relative L2 error above 1e-5
			s.wrong = append(s.wrong, fmt.Sprintf("round %d: %s is %.3g relative off the float64 sum", i, g.Name, math.Sqrt(diff2/ref2)))
		}
	}
}

// verify runs the checked rounds the warm-up did not cover and compares
// every checked round's digest with a reference cluster running the same
// algorithm over chan with the sequential send engine (the repository's
// window × transport bit-identity rule).
func (s *syncInst) verify(spec syncSpec) error {
	for i := len(s.digests); i < s.checked; i++ {
		if _, err := s.op(i); err != nil {
			return fmt.Errorf("verification round %d: %w", i, err)
		}
	}
	ref := spec.cfg
	ref.Transport, ref.Pipeline = "chan", core.PipelineConfig{}
	rc, err := core.NewLiveCluster(nodes, ref)
	if err != nil {
		return err
	}
	for i := 0; i < s.checked; i++ {
		out, err := rc.SyncRound(s.in.sets[i%len(s.in.sets)])
		if err != nil {
			return fmt.Errorf("reference round %d: %w", i, err)
		}
		if d := s.in.digestNode(out[0]); d != s.digests[i] {
			s.wrong = append(s.wrong, fmt.Sprintf("round %d: digest %016x differs from the sequential chan reference %016x", i, s.digests[i], d))
		}
	}
	return nil
}

// finish closes the correctness gate after the measured phase: the last
// round's nodes must agree, the inputs' checksums must be unchanged, and
// everything found so far goes into the report.
func (s *syncInst) finish(rep *report) {
	if s.last != nil {
		d0 := s.in.digestNode(s.last[0])
		for v := 1; v < nodes; v++ {
			if s.in.digestNode(s.last[v]) != d0 {
				s.wrong = append(s.wrong, fmt.Sprintf("last measured round: node %d result differs from node 0", v))
			}
		}
	}
	for i, set := range s.in.sets {
		if s.in.digestSet(set) != s.in.sums[i] {
			s.wrong = append(s.wrong, fmt.Sprintf("input set %d was modified by the program", i))
		}
	}
	for _, w := range s.wrong {
		rep.wrong("%s", w)
	}
}

func runSync(o options, rep *report) error {
	spec := syncSpecs[o.workload]
	grads, err := spec.gradients(o.smoke)
	if err != nil {
		return err
	}
	sets := pick(o.smoke, inputSets, 1)
	in := generateInputs(grads, o.seed, sets)
	rep.notef("# %d gradients, %.2f MB per node, %d nodes, %d input sets", len(grads), float64(in.bytesPerNode)/1e6, nodes, sets)

	last, setupS, err := setUp(func() (*syncInst, error) { return newSyncInst(spec, in, nil, o) }, o.smoke)
	if err != nil {
		return err
	}
	if err := last.verify(spec); err != nil {
		return err
	}
	p, ok := rep.measure(last, last.checked, o.untracedSeconds(), minSamples, o.smoke)
	last.finish(rep)
	if !ok {
		return nil
	}
	if !o.trace {
		endToEndMetrics(rep, p, setupS)
		rep.notef("# %d rounds in %.2f s, goodput %.1f MB/s", p.ops, p.wall, goodputMBps(in, p))
		return nil
	}
	return syncLayers(o, spec, in, p, rep)
}

// goodputMBps is raw fp32 gradient bytes synchronized per second: every
// node's full gradient list, every round.
func goodputMBps(in *inputs, p phase) float64 {
	return float64(nodes) * float64(in.bytesPerNode) * float64(p.ops) / p.wall / 1e6
}

// syncLayers makes the traced run on a second cluster and the layer replays,
// and fills the per-layer table. untraced is the preceding untraced phase on
// the first cluster, the base of the tracing overhead.
func syncLayers(o options, spec syncSpec, in *inputs, untraced phase, rep *report) error {
	tel := telemetry.New()
	traced, err := newSyncInst(spec, in, tel, o)
	if err != nil {
		return err
	}
	tel.T().Reset()
	traced.health = nil
	k0 := kernelCounters()
	tp, ok := rep.measure(traced, traced.checked, o.seconds/2, minTraced, o.smoke)
	traced.finish(rep)
	if !ok {
		return nil
	}
	k0.since(rep.Metrics)
	spans := tel.T().Spans()
	// Unhook the kernel plane from the traced run's registry before the
	// replays, which must run as the untraced rounds do.
	kernels.SetTelemetry(nil)

	m := rep.Metrics
	p50u, tailMs := commonLayerMetrics(m, untraced, tp, len(spans))
	m.set("core.round_ms_tail", tailMs)
	m.set("bench.goodput_MBps", goodputMBps(in, untraced))
	spanSums(m, spans, tp.ops)
	healthMetrics(m, traced.health)
	rep.notef("# untraced %d rounds, traced %d rounds, %d spans", untraced.ops, tp.ops, len(spans))

	sched, err := roundSchedule(spec.cfg, in.grads)
	if err != nil {
		return err
	}
	m.set("core.tasks_per_round", float64(sched.tasks))
	m.set("core.msgs_per_round", float64(len(sched.msgs)))
	m.set("core.graph_build_ms", sched.buildMs)
	if err := compressLayer(m, spec.cfg, sched, in.sets[0][0], o.smoke); err != nil {
		return err
	}
	kernelsLayer(m, o.smoke)
	if err := netsimLayer(m, spec.cfg.Transport, sched, o.smoke); err != nil {
		return err
	}
	floorRatio(m, p50u)
	return writeTrace(o.traceDir, o.workload, tel.T().WriteChromeTrace)
}

// commonLayerMetrics fills what every workload's traced mode reports the same
// way from its untraced and traced phases, and returns the untraced median
// and tail for the workload's own names.
func commonLayerMetrics(m metrics, untraced, traced phase, spans int) (p50, tailMs float64) {
	p50u, p50t := median(untraced.samples), median(traced.samples)
	pct, tailMs := tail(untraced.samples)
	m.set("bench.tail_pct", pct)
	m.set("bench.tail_samples", float64(len(untraced.samples)))
	m.set("bench.op_ms_p50_untraced", p50u)
	m.set("bench.op_ms_p50_traced", p50t)
	m.set("bench.measured_s", untraced.wall+traced.wall)
	m.set("bench.gc_cycles_per_op", float64(untraced.gcCycles)/float64(untraced.ops))
	m.set("telemetry.trace_overhead_pct", (p50t-p50u)/p50u*100)
	m.set("telemetry.spans_per_op", float64(spans)/float64(traced.ops))
	m.set("telemetry.record_ns", recordNs())
	return p50u, tailMs
}

// floorRatio is how far a round sits above the layers' own stand-alone cost:
// the untraced p50 over the serial replays of its compress and netsim calls
// spread across the cores the round could have used.
func floorRatio(m metrics, p50 float64) {
	floor := m["compress.replay_encode_ms"] + m["compress.replay_decode_ms"] + m["netsim.replay_ms"]
	par := float64(min(kernels.Workers(), nodes))
	if floor > 0 {
		m.set("core.floor_ratio", p50/(floor/par))
	}
}

// spanSums adds up the spans the program already records, by category, over
// all nodes, per operation.
func spanSums(m metrics, spans []telemetry.Span, ops int) {
	sum := map[string]float64{}
	for _, s := range spans {
		sum[s.Cat] += s.Dur
	}
	for _, cat := range []string{"encode", "decode", "merge", "send", "recv"} {
		m.set("core.span_"+cat+"_ms", sum[cat]*1e3/float64(ops))
	}
}

// healthMetrics condenses the RoundHealth every traced round returned.
func healthMetrics(m metrics, hs []*core.RoundHealth) {
	if len(hs) == 0 {
		return
	}
	var sendWall []float64
	var retries, dups, batched, redials, corrupt int64
	depth := 0
	for _, h := range hs {
		sendWall = append(sendWall, float64(h.SendWallNs)/1e6)
		retries += h.Retries
		dups += h.Duplicates
		batched += h.AckBatched
		depth = max(depth, h.MaxLinkQueueDepth)
		if h.TCP != nil {
			redials += h.TCP.Redials
			corrupt += h.TCP.CorruptFrames
		}
	}
	n := float64(len(hs))
	m.set("core.send_wall_ms", median(sendWall))
	m.set("core.max_link_queue_depth", float64(depth))
	m.set("core.retries_per_round", float64(retries)/n)
	m.set("core.duplicates_per_round", float64(dups)/n)
	m.set("core.ack_batched_per_round", float64(batched)/n)
	m.set("netsim.tcp_redials", float64(redials))
	m.set("netsim.tcp_corrupt_frames", float64(corrupt))
}
