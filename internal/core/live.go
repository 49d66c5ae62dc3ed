package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hipress/internal/compress"
	"hipress/internal/kernels"
	"hipress/internal/netsim"
	"hipress/internal/telemetry"
	"hipress/internal/tensor"
)

// This file is the live execution plane: the same CaSync task DAGs the
// timing plane simulates, executed for real — gradients are genuine
// []float32 data, encode/decode run the actual compression algorithms, and
// send/recv move real bytes through a transport. Each node runs the task
// manager of §3.1: a computing queue (Q_comp) and a communication queue
// (Q_commu, the send engine's lanes: rows of one link table) drained
// asynchronously, with the shared dependency graph clearing pending
// dependencies as tasks finish. The DAG, its layout, recv index, encode names
// and queue sizes are a roundPlan built once per (epoch, gradient shapes); a
// round resets only its dependency counters. Every goroutine a round starts
// counts in one WaitGroup, and its deadline ends it like any failure.
//
// Every round runs the fault plane (faults.go): acknowledged-or-retried
// sends, idempotent dedup, checksummed payloads, and a failure detector whose
// convicted peer is excluded (renormalized merge) or surfaced as a typed error.

// LiveConfig configures a live cluster. Which fields constrain which is
// defined in one place, Validate.
type LiveConfig struct {
	// Strategy selects CaSync-Ring or CaSync-PS.
	Strategy Strategy
	// Algo is the compression algorithm registry name, "" for exact
	// (uncompressed) synchronization.
	Algo string
	// Params carries the algorithm's parameters.
	Params compress.Params
	// ErrorFeedback enables residual accumulation at worker encodes (the
	// convergence-preserving construction for biased compressors).
	ErrorFeedback bool
	// Parts is the partition count applied to every gradient (live-plane
	// experiments are small; per-gradient planning belongs to the timing
	// plane). Zero means 1; at most 4096, the most an epoch frame holds.
	Parts int
	// Transport selects the live wire: "chan" (in-memory channels, the
	// default) or "tcp" (real loopback sockets).
	Transport string
	// TCP tunes the socket plane when Transport is "tcp": frame-length cap,
	// dial/write/handshake/idle deadlines, redial budget and jitter, and
	// the optional wire-level fault injector. Nil takes the defaults.
	// TCP.Metrics defaults to Telemetry's metrics registry when unset.
	TCP *netsim.TCPOptions
	// Pipeline is ignored, every field of it: the send engine has one shape
	// (pipeline.go). The field stays only because bench/ names it — ROADMAP
	// Benchmark v2 (e) deletes it.
	Pipeline PipelineConfig
	// Telemetry, when non-nil, records wall-clock spans for every executed
	// primitive (encode/decode/merge/send/recv, flow-linked send→recv),
	// instant events for the fault plane (retries, dedup drops, corrupt
	// drops, peer convictions), and per-round metrics (latency histogram,
	// retry/chaos counters, compression byte counters) into the shared
	// observability plane. Nil disables both signals; the instrumented hot
	// paths then cost only branch checks.
	Telemetry *telemetry.Set

	// --- fault plane ---

	// Reliable is ignored: every round delivers acknowledged-or-retried,
	// with idempotent receiver dedup and checksummed payloads. The field
	// stays only because bench/ names it — ROADMAP Benchmark v2 (e) deletes
	// it.
	Reliable bool
	// Retry bounds the send loop's static policy; zero fields take defaults
	// (5 attempts, 10ms base backoff, 100ms cap).
	Retry RetryPolicy
	// RoundTimeout bounds one SyncRound; on expiry the round unwinds and
	// returns a *RoundTimeoutError instead of hanging. Zero means no
	// deadline beyond the caller's context.
	RoundTimeout time.Duration
	// OnPeerFail selects degradation when the failure detector convicts a
	// peer: abort (default) or exclude.
	OnPeerFail DegradePolicy
	// Renormalize rescales surviving aggregates by n/(n-excluded) when
	// contributions are excluded, keeping the expected gradient magnitude.
	Renormalize bool
	// Chaos, when non-nil, wraps the round transport in a fault injector
	// (netsim.WrapChaos) whose Seed is mixed with the round index, so every
	// round samples fresh faults. Replaceable between rounds via
	// LiveCluster.SetChaos (e.g. to lift a scripted blackout).
	Chaos *netsim.ChaosConfig
	// Health selects the health plane's delivery policy (health.go):
	// Adaptive for φ-accrual failure detection and per-link RTT-adaptive
	// retry deadlines, plus idle heartbeats when HeartbeatEvery is set.
	// Nil (or Adaptive unset) keeps the static Retry policy; the plane
	// still harvests RTT evidence passively for failure reports.
	Health *HealthConfig

	// --- autotune plane (epoch.go, internal/autotune) ---

	// Autotune, when non-nil, closes the planning loop: after every
	// successful round the tuner receives a RoundObservation (and per-link
	// ack RTT samples as they arrive), and may propose a new PlanEpoch —
	// strategy, partition count, selective compression threshold — which
	// is staged under the epoch lock and activated at the next round
	// barrier. Its encode/decode evidence is the compressors' counters
	// (LiveCluster.WireStats); link calibration rides the ack path.
	Autotune Autotuner

	// --- elastic membership (recovery plane) ---

	// Elastic enables cross-round membership (see rejoin.go): failure-
	// detector convictions persist between rounds (the peer is pre-excluded,
	// not re-detected), and a convicted peer re-enters via
	// LiveCluster.RequestRejoin → state resync → probation.
	Elastic bool
}

// LiveCluster is a set of in-process training nodes that synchronize
// gradients through real compression and a channel transport. State that
// must persist across iterations (error-feedback residuals, the round index
// that keys every stochastic encode's draws) lives here.
type LiveCluster struct {
	n   int
	cfg LiveConfig
	// comp[v] is node v's compressor, always counted (WireStats); ef[v] its
	// residual state.
	comp []*compress.Instrumented
	ef   []*compress.ErrorFeedback

	// chaosMu guards cfg.Chaos, which SetChaos may replace between rounds.
	chaosMu sync.Mutex

	// health is the cluster's health plane: per-link RTT estimators and the
	// peer table — φ detectors, lifecycle, elastic membership — that persist
	// across rounds, so steady-state rounds inherit learned deadlines and
	// standing convictions.
	health *healthPlane

	// Autotune-plane state (epoch.go): the active epoch, a staged pending
	// epoch awaiting its round barrier, the completed-round counter, and
	// the activation count; plan is the last round's plan, which the epoch
	// keys among other things (nil while a round holds it).
	epochMu       sync.Mutex
	epoch         PlanEpoch
	pendingEpoch  *PlanEpoch
	rounds        int64
	epochSwitches int64
	plan          atomic.Pointer[roundPlan]
}

// Validate is the single definition of the constraints between LiveConfig
// fields: NewLiveCluster, SetChaos and the epoch proposal path all answer
// with its *ConfigError. A zero LiveConfig is valid.
func (c *LiveConfig) Validate() error {
	switch c.Transport {
	case "", "chan", "tcp":
	default:
		return &ConfigError{"Transport", fmt.Sprintf("unknown live transport %q (have chan, tcp)", c.Transport)}
	}
	if c.Parts > maxEpochParts {
		return &ConfigError{"Parts", fmt.Sprintf("partition count %d exceeds %d (partition indices pack into a message step, and an epoch frame holds at most %d)", c.Parts, maxEpochParts, maxEpochParts)}
	}
	if c.Strategy != StrategyRing && c.Strategy != StrategyPS {
		return &ConfigError{"Strategy", fmt.Sprintf("%v is not a live-plane strategy (the live plane runs ring and ps; halving-doubling is timing-plane only)", c.Strategy)}
	}
	if c.OnPeerFail == DegradeExclude && c.Strategy == StrategyRing {
		return &ConfigError{"OnPeerFail", "DegradeExclude requires the PS strategy (a ring cannot route around a dead hop); use DegradeAbort"}
	}
	if c.Elastic && c.OnPeerFail != DegradeExclude {
		return &ConfigError{"Elastic", "elastic membership requires the PS strategy with OnPeerFail=DegradeExclude (rounds must complete around an excluded peer)"}
	}
	// Every attempt of a transfer needs its own number on the wire.
	if c.Retry.MaxAttempts > 1<<15 {
		return &ConfigError{"Retry.MaxAttempts", fmt.Sprintf("%d exceeds 32768 (the static budget, 2·MaxAttempts attempts, must fit the wire's 16-bit attempt number)", c.Retry.MaxAttempts)}
	}
	return nil
}

// NewLiveCluster builds an n-node live cluster.
func NewLiveCluster(n int, cfg LiveConfig) (*LiveCluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: live cluster needs at least 2 nodes, got %d", n)
	}
	if cfg.Parts < 1 {
		cfg.Parts = 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Retry = cfg.Retry.withDefaults()
	lc := &LiveCluster{n: n, cfg: cfg}
	lc.epoch = defaultEpoch(&lc.cfg)
	lc.health = newHealthPlane(n, cfg.Health, cfg.Retry, cfg.Elastic, cfg.Telemetry)
	if cfg.Algo != "" {
		lc.comp = make([]*compress.Instrumented, n)
		lc.ef = make([]*compress.ErrorFeedback, n)
		for v := 0; v < n; v++ {
			// Per-node instances: a node's encodes run on its own goroutine,
			// and a stochastic compressor's generator is not shared.
			c, err := compress.New(cfg.Algo, cfg.Params)
			if err != nil {
				return nil, err
			}
			// The counters are the autotuner's calibration evidence and, in a
			// shared registry, the observability plane's compression ratios.
			lc.comp[v] = compress.NewInstrumentedWith(c, cfg.Telemetry.M(),
				"algo", cfg.Algo, "node", compress.NodeLabel(v))
			if cfg.ErrorFeedback {
				lc.ef[v] = compress.NewErrorFeedback(lc.comp[v])
			}
		}
	}
	// Hook the kernel plane (worker pool + buffer arena) into the shared
	// metrics registry so pool occupancy and arena hit rate export next to
	// the compression counters.
	if reg := cfg.Telemetry.M(); reg != nil {
		kernels.SetTelemetry(reg)
	}
	return lc, nil
}

// N returns the cluster size.
func (lc *LiveCluster) N() int { return lc.n }

// WireStats aggregates the compressors' counters across nodes (zero value on
// an exact cluster): real encode/decode counts and the realized bytes kept off
// the wire.
func (lc *LiveCluster) WireStats() compress.Stats {
	var total compress.Stats
	for _, m := range lc.comp {
		s := m.Stats()
		total.Encodes += s.Encodes
		total.Decodes += s.Decodes
		total.RawBytes += s.RawBytes
		total.WireBytes += s.WireBytes
		total.Errors += s.Errors
		total.EncodeNs += s.EncodeNs
		total.DecodeNs += s.DecodeNs
		total.EncodeElems += s.EncodeElems
		total.DecodeElems += s.DecodeElems
	}
	return total
}

// efName is a compression point's residual key and the key's FNV-1a hash, the
// pipeline-position term of the encode's random stream (execComp).
type efName struct {
	key  string
	hash uint64
}

// nameEncode names the compression point encode task t runs at, a position in
// the synchronization pipeline stable across rounds. Checkpointed residuals are
// stored under the key and stochastic encodes draw from streams derived from
// its hash, so the format is frozen.
func nameEncode(t *Task) efName {
	key := fmt.Sprintf("%s/p%d/ph%d/s%d", t.Grad, t.Part, t.Phase, t.Step)
	h := fnv.New64a()
	h.Write([]byte(key))
	return efName{key, h.Sum64()}
}

// wireKey matches a transport message to the recv task armed for it — the one
// identity a data frame and its acks both resolve to: the gradient's name, the
// packed (step, partition) exactly as Message.Step carries it, and the link.
type wireKey struct {
	grad             string
	packed, to, from int
}

// indexRecvs indexes a round's recv tasks by wire key, checking the builder
// invariant the live plane relies on: a recv's one dep is its send.
func indexRecvs(g *Graph) (map[wireKey]int, error) {
	idx := make(map[wireKey]int, g.Stat().Recv)
	for i, t := range g.Tasks {
		if t.Kind == KRecv {
			if t.deps != 1 {
				return nil, fmt.Errorf("core: recv task %d has %d deps, want 1", i, t.deps)
			}
			idx[wireKey{t.Grad, packStep(t.Step, t.Part), t.Node, t.Peer}] = i
		}
	}
	return idx, nil
}

// wireBuf is a payload beside the CRC-32 of its bytes — taken as the encoder
// leaves it, or the sum the dispatcher verified a received payload against.
// ready marks a received contribution a merge may fold in: a raw one as it
// lands, a compressed one once its decode task ran — a decode skipped for a
// convicted peer leaves it unset, and the contribution out of the aggregate.
type wireBuf struct {
	b     []byte
	sum   uint32
	ready bool
}

// partRT is one partition's state at one node. acc is its running aggregate,
// nil until a merge makes one. out is the payload this node sends of it: the
// last encode's, or a raw partition's bytes as its first send staged them —
// acc's own memory, or local's, acc being nil — so once out is set a merge is
// refused.
type partRT struct {
	acc    []float32
	out    wireBuf
	filled bool // phase 2 wrote the partition into result (no copy from acc at assembly)
	agg    bool // the aggregation barrier completed here: acc is the true aggregate
}

// nodeRT is the per-node live runtime: the computing queue and the node's
// buffer state, in tables laid out by the round's roundLayout and carved from
// slabs shared by all nodes.
type nodeRT struct {
	id, n  int
	lay    *roundLayout
	local  [][]float32 // by gradient: this node's freshly computed gradients; never written
	result [][]float32 // by gradient: fully synchronized gradients, made on first touch
	parts  []partRT    // by slot
	in     []wireBuf   // by slot·n+peer: the payload last received from peer
	qcomp  chan int
	mu     sync.Mutex // guards this node's tables across its goroutines

	// lease holds every arena buffer this node checks out during the round
	// (accumulators, encoded payloads, adopted receive buffers). It is guarded
	// by mu like the tables and released wholesale at round teardown — after
	// every worker goroutine has exited and results have been assembled into
	// independently allocated slices — so payloads stay valid while the
	// transport or a retrying sender still references them, and steady-state
	// rounds allocate nothing.
	lease kernels.Lease
}

// part is the state of the partition t works on; inbox the payload slot for
// that partition's contribution from peer. Callers hold rt.mu.
func (rt *nodeRT) part(t *Task) *partRT { return &rt.parts[rt.lay.slot(t)] }

func (rt *nodeRT) inbox(t *Task, peer int) *wireBuf { return &rt.in[rt.lay.slot(t)*rt.n+peer] }

// SyncRound synchronizes one set of gradients: grads[v][name] is node v's
// local gradient. It returns, per node, the aggregated (summed, not
// averaged) gradients. All nodes must present identical names and lengths.
func (lc *LiveCluster) SyncRound(grads []map[string][]float32) ([]map[string][]float32, error) {
	out, _, err := lc.SyncRoundContext(context.Background(), grads)
	return out, err
}

// SyncRoundContext is SyncRound with a deadline and health reporting: the
// round unwinds when ctx expires (or LiveConfig.RoundTimeout, whichever is
// sooner), returning a typed *RoundTimeoutError or *PeerFailureError
// instead of hanging, and the RoundHealth describes retries, dedup,
// exclusions, and chaos counters. The health report is non-nil whenever
// the round started executing, even on error.
func (lc *LiveCluster) SyncRoundContext(ctx context.Context, grads []map[string][]float32) ([]map[string][]float32, *RoundHealth, error) {
	if len(grads) != lc.n {
		return nil, nil, fmt.Errorf("core: SyncRound got %d gradient sets for %d nodes", len(grads), lc.n)
	}
	// The cached plan serves if node 0 presents exactly its shapes and the
	// barrier activates its epoch; the round holds it alone until released.
	p := lc.plan.Swap(nil)
	names := p.fit(grads[0])
	if names == nil {
		p, names = nil, make([]string, 0, len(grads[0]))
		for name := range grads[0] {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	defer func() { lc.plan.CompareAndSwap(nil, p) }()
	for v := 1; v < lc.n; v++ {
		if len(grads[v]) != len(names) {
			return nil, nil, fmt.Errorf("core: node %d has %d gradients, node 0 has %d", v, len(grads[v]), len(names))
		}
		for _, name := range names {
			if len(grads[v][name]) != len(grads[0][name]) {
				return nil, nil, fmt.Errorf("core: gradient %q length differs between nodes", name)
			}
		}
	}

	// The round barrier: a staged epoch switch takes effect here, before the
	// round's plan is chosen, so every task of one round runs under exactly
	// one plan. The whole epoch is the key: RestoreEpoch may keep a Version.
	ep, round := lc.activateEpoch()
	p, err := lc.planRound(p, ep, names, grads[0])
	if err != nil {
		return nil, nil, err
	}

	r, health, err := lc.run(ctx, p, grads, round)
	if r != nil {
		defer r.release()
	}
	if err != nil {
		return nil, health, err
	}
	out, err := r.assemble(health)
	if err != nil {
		return nil, health, err
	}
	lc.epochMu.Lock()
	lc.rounds++
	lc.epochMu.Unlock()
	lc.observeAndTune(ep, health, round, p.sizes)
	return out, health, nil
}

// roundPlan is what a round derives before its first task executes, a pure
// function of the cluster, the epoch and the gradient shapes, and the tables a
// round runs on. A round writes none of it but the graph's dependency
// counters, the link table and the transfer table, all restored as it is
// taken.
type roundPlan struct {
	epoch    PlanEpoch
	names    []string // sorted
	g        *Graph
	lay      *roundLayout
	sizes    []int64         // raw gradient bytes, ascending (the autotuner's GradBytes)
	recvIdx  map[wireKey]int // where data frames and acks find their transfer
	ef       []efName        // by task: an encode's compression point, named
	compCap  []int
	inboxCap int
	roots    []int
	deps     []int      // by task: its count before the round runs
	links    []link     // by src·n+dst: the send engine's link table
	xfer     []transfer // by recv task: the transfer table
}

// planRound returns the plan a round under ep over node 0's gradients g0 (names
// sorted) runs on. cached serves if it was built under ep, its counters and
// tables reset as it is taken: the round that last held it may have stopped
// part-way.
// Otherwise one DAG is built over every gradient, the epoch deciding partitions
// and, by size, compress-vs-raw, with its layout.
func (lc *LiveCluster) planRound(cached *roundPlan, ep PlanEpoch, names []string, g0 map[string][]float32) (*roundPlan, error) {
	if cached != nil && cached.epoch == ep {
		for i, t := range cached.g.Tasks {
			t.deps = cached.deps[i]
		}
		for i := range cached.links {
			cached.links[i].reset()
		}
		clear(cached.xfer)
		return cached, nil
	}
	g, lay := NewGraph(), newRoundLayout(len(names))
	topo, build := topoFor(ep.Strategy, lc.n), BuildPS
	if ep.Strategy == StrategyRing {
		build = BuildRing
	}
	sizes := make([]int64, 0, len(names))
	for _, name := range names {
		rawBytes := int64(4 * len(g0[name]))
		sizes = append(sizes, rawBytes)
		algo := ""
		if lc.cfg.Algo != "" && ep.compresses(rawBytes) {
			algo = lc.cfg.Algo
		}
		if _, err := build(g, topo, lay.add(name, len(g0[name]), ep.Parts, algo)); err != nil {
			return nil, err
		}
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	p, err := lc.planGraph(ep, g, lay)
	if p != nil {
		p.names, p.sizes = names, sizes
	}
	return p, err
}

// planGraph derives the rest of a plan from its DAG and layout, validating the
// graph, indexing its recvs and naming its encodes once per plan rather than
// once per round.
func (lc *LiveCluster) planGraph(ep PlanEpoch, g *Graph, lay *roundLayout) (*roundPlan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	recvIdx, err := indexRecvs(g)
	if err != nil {
		return nil, err
	}
	p := &roundPlan{epoch: ep, g: g, lay: lay, recvIdx: recvIdx, roots: g.Roots(),
		ef: make([]efName, len(g.Tasks)), deps: make([]int, len(g.Tasks)),
		links: make([]link, lc.n*lc.n), xfer: make([]transfer, len(g.Tasks))}
	p.compCap, p.inboxCap = queueSizes(g, lc.n)
	for i, t := range g.Tasks {
		p.deps[i] = t.deps
		if t.Kind == KEncode {
			p.ef[i] = nameEncode(t)
		}
	}
	return p, nil
}

// fit returns the plan's names if g0 holds exactly its gradients — each name
// with its length (never 0) — and nil otherwise, or for no plan.
func (p *roundPlan) fit(g0 map[string][]float32) []string {
	if p == nil || len(g0) != len(p.lay.grads) {
		return nil
	}
	for i := range p.lay.grads {
		if gl := &p.lay.grads[i]; len(g0[gl.name]) != gl.elems {
			return nil
		}
	}
	return p.names
}

// liveRound is the state of one executing round: its plan, the transport,
// completion bookkeeping, and the fault plane.
type liveRound struct {
	// The plan and round, the round's index (completed rounds before it; a
	// failed round's retry carries the same index), are fixed at the round
	// barrier by SyncRoundContext.
	*roundPlan
	round int64
	lc    *LiveCluster
	tr    netsim.Transport
	rs    *roundState
	nodes []nodeRT

	// hp is the cluster's health plane: it owns the delivery loop's retry
	// policy, static or adaptive.
	hp *healthPlane

	gmu       sync.Mutex // guards graph dependency counters + completed
	remaining int
	completed []bool

	doneCh  chan struct{}
	errOnce sync.Once
	runErr  error

	// wg counts every goroutine the round starts: Q_comp drainers,
	// dispatchers, heartbeat loops, lane workers and ack workers. Each Add
	// runs on run before its Wait or on a goroutine wg already counts, so no
	// Add can race the Wait.
	wg sync.WaitGroup

	// pipe is the send engine, running on the plan's link table (pipeline.go).
	pipe *sendEngine
	at   Autotuner // the cluster's, nil when none: links count carried bytes only for it

	// trc/met are the observability plane (both possibly nil). Spans are
	// stamped with trc.Now() — wall-clock seconds since the tracer's birth —
	// so one tracer accumulates a consistent timeline across rounds.
	trc *telemetry.Tracer
	met *telemetry.Registry
}

// traceTask records one wall-clock span for an executed task. start is the
// tr.Now() taken before execution; send/recv spans carry a deterministic
// flow id so the exporter can draw the cross-node arrow. Nil tracers make
// this a branch and a return — no locks, no allocation.
func (r *liveRound) traceTask(t *Task, start float64) {
	tr := r.trc
	if tr == nil {
		return
	}
	end := tr.Now()
	stream := "comp"
	var flow uint64
	flowStart := false
	switch t.Kind {
	case KSend:
		// One track per link's lane: the exporter renders overlapping
		// in-flight transfers side by side, not stacked in one "net" row.
		stream = fmt.Sprintf("net→%d", t.Peer)
		flow = telemetry.FlowID(t.Node, t.Peer, t.Grad, packStep(t.Step, t.Part))
		flowStart = true
	case KRecv:
		stream = "net"
		flow = telemetry.FlowID(t.Peer, t.Node, t.Grad, packStep(t.Step, t.Part))
	}
	tr.Record(telemetry.Span{
		Name: fmt.Sprintf("%s %s/p%d", t.Kind, t.Grad, t.Part), Cat: t.Kind.String(),
		Node: t.Node, Stream: stream, Start: start, Dur: end - start,
		Flow: flow, FlowStart: flowStart,
	}.With(telemetry.Num("step", float64(t.Step))).With(telemetry.Num("phase", float64(t.Phase))))
}

// traceEvent records an instant fault-plane event at now (nil-safe,
// allocation-free when disabled because callers gate name construction on
// tr.Enabled()).
func (r *liveRound) traceEvent(name, cat string, node int) {
	if tr := r.trc; tr != nil {
		tr.Event(name, cat, node, "net", tr.Now())
	}
}

// fail terminates the round with err: first caller wins, the transport
// closes so every blocked goroutine unwinds.
func (r *liveRound) fail(err error) {
	r.errOnce.Do(func() {
		r.runErr = err
		r.tr.Close()
		close(r.doneCh)
	})
}

// finish closes the round cleanly (all tasks completed).
func (r *liveRound) finish() {
	r.errOnce.Do(func() { close(r.doneCh) })
}

// completeTask marks id done (idempotently) and routes newly ready tasks.
func (r *liveRound) completeTask(id int) {
	r.gmu.Lock()
	if r.completed[id] {
		r.gmu.Unlock()
		return
	}
	r.completed[id] = true
	var buf [8]int
	ready := r.g.Complete(id, buf[:0])
	r.remaining--
	last := r.remaining == 0
	r.gmu.Unlock()
	for _, nx := range ready {
		r.route(nx)
	}
	if last {
		r.finish()
	}
}

// completeSkipped completes a task without executing it (dead peer made it
// moot) and counts the skip.
func (r *liveRound) completeSkipped(id int) {
	atomic.AddInt64(&r.rs.skipped, 1)
	r.completeTask(id)
}

// skippable reports whether a task should complete without executing
// because the failure detector convicted its node or its peer. Barriers
// (Bytes == 0) skip only when their own node is dead: the PS partition
// barrier is where exclusion is actually accounted.
func (r *liveRound) skippable(t *Task) bool {
	if !r.hp.anyDead() {
		return false
	}
	if r.hp.isDead(t.Node) {
		return true
	}
	switch t.Kind {
	case KSend, KRecv, KDecode:
		return t.Peer != t.Node && r.hp.isDead(t.Peer)
	case KMerge:
		return t.Bytes > 0 && t.Peer != t.Node && r.hp.isDead(t.Peer)
	}
	return false
}

// route enqueues a ready task on its node's queue. Cross-node ready tasks
// are recvs, whose true trigger is message arrival — drop them unless a
// dead peer means no message will ever come. A send is staged onto its lane
// right here, on whichever goroutine completed its last dependency.
func (r *liveRound) route(id int) {
	t := r.g.Tasks[id]
	if r.skippable(t) {
		r.completeSkipped(id)
		return
	}
	switch {
	case !t.Kind.IsComm():
		r.nodes[t.Node].qcomp <- id
	case t.Kind == KSend:
		if err := r.pipe.submit(t); err != nil {
			r.fail(err)
		}
	}
}

// onPeerDead follows a new conviction (healthPlane.convict reported it, so
// once per victim): per policy it either aborts the round with a typed error
// or sweeps the victim's armed recvs so the surviving DAG drains (their
// downstream tasks skip via route/Q_comp drainer checks and the merge barrier
// accounts the exclusion).
func (r *liveRound) onPeerDead(victim int) {
	if r.trc.Enabled() {
		r.traceEvent(fmt.Sprintf("peer-dead node%d (%v)", victim, r.lc.cfg.OnPeerFail), "fault", victim)
	}
	if r.lc.cfg.OnPeerFail != DegradeExclude || r.epoch.Strategy != StrategyPS {
		r.fail(&PeerFailureError{Node: -1, Peer: victim, Attempts: r.hp.attemptBudget(),
			Reason: fmt.Sprintf("failure detector convicted node %d (policy %v)", victim, r.lc.cfg.OnPeerFail)})
		return
	}
	r.gmu.Lock()
	var sweep []int
	for id, t := range r.g.Tasks {
		if r.completed[id] || t.deps != 0 || t.Kind != KRecv {
			continue
		}
		if t.Node == victim || t.Peer == victim {
			sweep = append(sweep, id)
		}
	}
	r.gmu.Unlock()
	for _, id := range sweep {
		r.completeSkipped(id)
	}
}

// inboxSlack is an inbox's room beyond the most frames a clean round delivers
// to one node. Retransmits, duplicates and heartbeats past it only
// make a sender wait: no goroutine that drains an inbox ever sends.
const inboxSlack = 16

// queueSizes sizes a round's queues from the traffic its DAG declares. comp[v]
// is node v's compute-task count: route queues each task once, so a send on
// the Q_comp channel never blocks. inbox is the most frames a clean round
// delivers to any one node — its recvs plus one ack per send — plus
// inboxSlack.
func queueSizes(g *Graph, n int) (comp []int, inbox int) {
	comp = make([]int, n)
	frames := make([]int, n)
	for _, t := range g.Tasks {
		if t.Kind.IsComm() {
			frames[t.Node]++ // a recv's data frame, a send's ack
		} else {
			comp[t.Node]++
		}
	}
	for _, f := range frames {
		inbox = max(inbox, f)
	}
	return comp, inbox + inboxSlack
}

// run executes the plan's DAG with real data and returns the torn-down round,
// whose leases the caller releases once it has assembled the results. The
// round is nil only when it never started.
func (lc *LiveCluster) run(ctx context.Context, p *roundPlan, grads []map[string][]float32, round int64) (*liveRound, *RoundHealth, error) {
	n, g, lay := lc.n, p.g, p.lay
	started := time.Now() //hipress:wallclock round-duration telemetry for RoundHealth
	var tr netsim.Transport
	var tcpTr *netsim.TCPTransport
	if lc.cfg.Transport == "tcp" {
		var opts netsim.TCPOptions
		if lc.cfg.TCP != nil {
			opts = *lc.cfg.TCP
		}
		if opts.Metrics == nil {
			opts.Metrics = lc.cfg.Telemetry.M()
		}
		t, err := netsim.NewTCPTransportOpts(n, p.inboxCap, opts)
		if err != nil {
			return nil, nil, err
		}
		tr, tcpTr = t, t
	} else {
		tr = netsim.NewChanTransport(n, p.inboxCap)
	}
	var chaosTr *netsim.ChaosTransport
	if chaos := lc.chaosCfg(); chaos != nil {
		c := *chaos // rolls are keyed on message identity, which every round repeats
		c.Seed ^= uint64(round+1) * 0x9e3779b97f4a7c15
		chaosTr = netsim.WrapChaos(tr, &c)
		tr = chaosTr
	}
	defer tr.Close()

	cancel := func() {}
	if lc.cfg.RoundTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, lc.cfg.RoundTimeout)
	}
	defer cancel()

	// Every node's tables come out of four slabs: per-node state is a slice of
	// each, not an allocation per gradient, partition or peer.
	ng, ns := len(lay.grads), lay.slots
	nodes := make([]nodeRT, n)
	partSlab := make([]partRT, n*ns)
	inSlab := make([]wireBuf, n*ns*n)
	gradSlab := make([][]float32, 2*n*ng)
	for v := range nodes {
		rt := &nodes[v]
		rt.id, rt.n, rt.lay = v, n, lay
		rt.local = gradSlab[2*v*ng : (2*v+1)*ng]
		rt.result = gradSlab[(2*v+1)*ng : (2*v+2)*ng]
		for gi := range lay.grads {
			rt.local[gi] = grads[v][lay.grads[gi].name]
		}
		rt.parts = partSlab[v*ns : (v+1)*ns]
		rt.in = inSlab[v*ns*n : (v+1)*ns*n]
		rt.qcomp = make(chan int, p.compCap[v])
	}

	r := &liveRound{
		roundPlan: p,
		round:     round,
		lc:        lc,
		tr:        tr,
		rs:        newRoundState(n),
		nodes:     nodes,
		hp:        lc.health,
		remaining: len(g.Tasks),
		completed: make([]bool, len(g.Tasks)),
		doneCh:    make(chan struct{}),
		trc:       lc.cfg.Telemetry.T(),
		met:       lc.cfg.Telemetry.M(),
		at:        lc.cfg.Autotune,
	}
	r.pipe = newSendEngine(r, n, p.links)
	if tcpTr != nil {
		r.pipe.frameCap = tcpTr.MaxFrameLen()
	}
	// Re-arm the health plane: prime detectors, forgive the inter-round idle
	// gap, start non-elastic probation trials. Under elastic membership a
	// standing conviction is carried in instead, so the DAG routes around a
	// known-dead peer from its first task without re-paying detection.
	carried := r.hp.roundStart()
	if r.trc.Enabled() {
		for _, v := range carried {
			r.traceEvent(fmt.Sprintf("membership-excluded node%d", v), "rejoin", v)
		}
	}
	roundStart := r.trc.Now()

	// Per-node workers: one compute-queue drainer, one receive dispatcher (the
	// send engine's rows start their own lane and ack workers).
	for v := 0; v < n; v++ {
		rt := &nodes[v]
		r.wg.Add(2)
		go func() { // Q_comp drainer
			defer r.wg.Done()
			for {
				select {
				case <-r.doneCh:
					return
				case id := <-rt.qcomp:
					// Only this drainer completes a queued task (route queues
					// each once, and the dead-peer sweep takes recvs only), so
					// none is completed yet; its peer may have been convicted
					// while it waited.
					if r.skippable(g.Tasks[id]) {
						r.completeSkipped(id)
						continue
					}
					start := r.trc.Now()
					if err := r.execComp(rt, g.Tasks[id]); err != nil {
						r.fail(err)
						return
					}
					r.traceTask(g.Tasks[id], start)
					r.completeTask(id)
				}
			}
		}()
		go func() { // receive dispatcher
			defer r.wg.Done()
			r.dispatch(rt)
		}()
		if lc.health.cfg.Adaptive && lc.health.cfg.HeartbeatEvery > 0 {
			r.wg.Add(1)
			go func() { // idle liveness probes feeding the φ detectors
				defer r.wg.Done()
				r.heartbeatLoop(rt.id)
			}()
		}
	}

	// Kick off the roots.
	for _, root := range p.roots {
		r.route(root)
	}
	select {
	case <-r.doneCh:
	case <-ctx.Done():
		r.fail(&RoundTimeoutError{Timeout: lc.cfg.RoundTimeout})
		<-r.doneCh
	}
	// Teardown: once the transport is closed every goroutine of the round
	// exits, and the staged payloads they reference stay leased until then.
	tr.Close()
	r.wg.Wait()
	// Frames that landed after their dispatcher stopped still own their
	// payload buffers; the closed transport hands them over without blocking.
	for v := 0; v < n; v++ {
		for msg, ok := tr.Recv(v); ok; msg, ok = tr.Recv(v) {
			msg.Lease.Release()
		}
	}
	r.pipe.close()

	health := r.rs.health(time.Since(started)) //hipress:wallclock round-duration telemetry for RoundHealth
	health.EpochVersion = p.epoch.Version
	health.SendWallNs = r.pipe.sendWallNs()
	health.MaxLinkQueueDepth = r.pipe.maxDepth()
	if chaosTr != nil {
		st := chaosTr.Stats()
		health.Chaos = &st
	}
	if tcpTr != nil {
		st := tcpTr.Stats()
		health.TCP = &st
		health.Wire = tcpTr.WireStats()
	}
	r.hp.roundEnd(health, r.runErr == nil)
	r.emitRoundTelemetry(health, roundStart)
	return r, health, r.runErr
}

// release returns every buffer the round leased to the arena: after teardown,
// when no goroutine still references a payload, and after assembly, which
// copies into fresh result slices.
func (r *liveRound) release() {
	for v := range r.nodes {
		r.nodes[v].lease.Release()
	}
}

// assemble builds the round's results: partitions decoded in phase 2 were
// written into result directly; the aggregate-holding node copies from acc.
// In a degraded round, a partition no aggregate ever reached falls back to
// the node's own local gradient (scaled to sum magnitude when renormalizing)
// and is reported as unsynced.
func (r *liveRound) assemble(health *RoundHealth) ([]map[string][]float32, error) {
	n, lay := r.lc.n, r.lay
	out := make([]map[string][]float32, n)
	degraded := r.hp.anyDead()
	for v := 0; v < n; v++ {
		rt := &r.nodes[v]
		out[v] = make(map[string][]float32, len(lay.grads))
		for gi := range lay.grads {
			gl := &lay.grads[gi]
			res := rt.resultSlice(gi)
			for p := 0; p < gl.parts; p++ {
				lo, hi := gl.span(p)
				ps := &rt.parts[gl.slot0+p]
				if lo == hi || ps.filled {
					continue
				}
				// In a degraded round, an accumulator is only trustworthy
				// when the partition barrier completed on this node (it
				// holds the true aggregate).
				if degraded && !ps.agg {
					copy(res[lo:hi], rt.local[gi][lo:hi])
					if r.lc.cfg.Renormalize {
						for i := lo; i < hi; i++ {
							res[i] *= float32(n)
						}
					}
					health.UnsyncedParts = append(health.UnsyncedParts,
						fmt.Sprintf("node%d:%s/p%d", v, gl.name, p))
					continue
				}
				if ps.acc == nil {
					return nil, fmt.Errorf("core: node %d has neither result nor accumulator for %s/p%d", v, gl.name, p)
				}
				copy(res[lo:hi], ps.acc)
			}
			out[v][gl.name] = res
		}
	}
	sort.Strings(health.UnsyncedParts)
	return out, nil
}

// dispatch is the per-node receive loop. A TCP message arrives owning the
// arena buffer its payload was read into (msg.Lease): execRecv adopts that
// buffer into the round lease when it keeps the payload, and every other
// outcome — duplicate, late frame, corrupt drop — hands it back to the
// arena at once.
func (r *liveRound) dispatch(rt *nodeRT) {
	for {
		msg, ok := r.tr.Recv(rt.id)
		if !ok {
			return
		}
		more := r.dispatchMsg(rt, &msg)
		msg.Lease.Release() // no-op once adopted
		if !more {
			return
		}
	}
}

// dispatchMsg handles one received message: it settles acks, verifies
// checksums, matches the message to its armed recv task (by
// gradient/partition/step/link), deduplicates idempotently, acknowledges, and
// executes the task. It returns false when the round has failed and the
// dispatcher should stop.
func (r *liveRound) dispatchMsg(rt *nodeRT, msg *netsim.Message) bool {
	if msg.Heartbeat {
		// Heartbeats live outside the ack/dedup machinery: a probe is
		// echoed back (Step carries the probe's send timestamp), an
		// echo yields one RTT sample plus an arrival observation.
		if msg.Ack {
			r.hp.observeRTT(rt.id, msg.From, r.hp.clock()-time.Duration(msg.Step))
			r.hp.arrival(msg.From)
		} else {
			r.replyHeartbeat(rt.id, *msg)
		}
		return true
	}
	if msg.Ack {
		// The ack flows receiver→sender: each transfer it settles ran
		// msg.To → msg.From and is found by its recv task at msg.From,
		// exactly as its data frame was. A batched frame settles several
		// transfers of that link at once, one per ref.
		r.hp.arrival(msg.From)
		refs := msg.AckBatch
		if len(refs) == 0 {
			refs = []netsim.AckRef{{Gradient: msg.Gradient, Step: msg.Step}}
		}
		for _, ref := range refs {
			if id, ok := r.recvIdx[wireKey{ref.Gradient, ref.Step, msg.From, msg.To}]; ok {
				r.rs.settle(&r.xfer[id], msg.To, msg.From)
			}
		}
		return true
	}
	if len(msg.Bulk) == 0 {
		return r.recvData(rt, msg, &msg.Lease, nil)
	}
	// A bulk frame: every entry is handled as a classic frame, and the good
	// ones' acks queue at once, a backlog the ack worker coalesces.
	var acks *[]netsim.Message
	if msg.From >= 0 && msg.From < r.pipe.n {
		acks = &r.pipe.links[rt.id*r.pipe.n+msg.From].bulkAcks
		*acks = (*acks)[:0]
	}
	for _, e := range msg.Bulk {
		m := netsim.Message{From: msg.From, To: msg.To, Gradient: e.Gradient, Step: e.Step,
			Attempt: msg.Attempt, Sum: e.Sum, Payload: e.Payload}
		if !r.recvData(rt, &m, &msg.Lease, acks) {
			return false
		}
	}
	if acks != nil {
		r.pipe.enqueueAck(*acks...)
	}
	return true
}

// recvData handles a data message (a classic frame, or a bulk frame's entry)
// whose payload lease owns, acking it at once or, for a bulk frame's, into
// *acks; it returns false once the round has failed.
func (r *liveRound) recvData(rt *nodeRT, msg *netsim.Message, lease *kernels.Lease, acks *[]netsim.Message) bool {
	// TCP's frame check already read the payload; only chan's is read here.
	sum, ok := msg.PayloadCRC()
	if !ok {
		sum = crc32.ChecksumIEEE(msg.Payload)
	}
	if sum != msg.Sum {
		// Drop silently: no ack means the sender retransmits.
		atomic.AddInt64(&r.rs.corruptDrops, 1)
		if r.trc.Enabled() {
			r.traceEvent(fmt.Sprintf("corrupt-drop %s←%d", msg.Gradient, msg.From), "chaos", rt.id)
		}
		return true
	}
	// A checksum-valid data message is as good as an ack for liveness.
	r.hp.arrival(msg.From)
	id, armed := r.recvIdx[wireKey{msg.Gradient, msg.Step, rt.id, msg.From}]
	if !armed {
		step, part := unpackStep(msg.Step)
		r.fail(fmt.Errorf("core: node %d got unexpected message %s/p%d step %d from %d", rt.id, msg.Gradient, part, step, msg.From))
		return false
	}
	dup := r.xfer[id].seen
	r.xfer[id].seen = true
	// The ack goes out through its row's ack worker (enqueueAck), so a blocked
	// ack never stalls this dispatcher; a lost one is recovered by the sender's
	// retry and the dedup re-ack.
	if ack := ackOf(rt.id, msg); acks == nil {
		r.pipe.enqueueAck(ack)
	} else {
		*acks = append(*acks, ack)
	}
	if dup {
		// Duplicate (retransmission or injected dup): re-acked, discard.
		atomic.AddInt64(&r.rs.duplicates, 1)
		if r.trc.Enabled() {
			r.traceEvent(fmt.Sprintf("dup-drop %s←%d", msg.Gradient, msg.From), "dedup", rt.id)
		}
		return true
	}
	r.gmu.Lock()
	done := r.completed[id]
	r.gmu.Unlock()
	if done {
		return true // force-completed by degradation; too late to matter
	}
	t := r.g.Tasks[id]
	start := r.trc.Now()
	if err := r.execRecv(rt, t, msg, lease); err != nil {
		r.fail(err)
		return false
	}
	r.traceTask(t, start)
	r.completeTask(id)
	return true
}

// ackOf is node's ack of data message msg.
func ackOf(node int, msg *netsim.Message) netsim.Message {
	return netsim.Message{From: node, To: msg.From, Gradient: msg.Gradient, Step: msg.Step, Attempt: msg.Attempt, Ack: true}
}

// deliver settles a lane batch's staged transfers, msg their first attempt (a
// bulk frame for two or more), through the one acknowledged-or-retried
// delivery loop (attempt), retrying what the first attempt leaves
// unacknowledged alone, in lane order, from attempt 1, unless a late ack
// settled it meanwhile. An exhausted budget with the detector inconclusive
// ends in a *PeerFailureError with the link's RTT evidence. w's channel is
// armed at each transfer's recv task, so a batch-mate's late ack may wake a
// lone retry, whose wait then runs on (attempt checks what settled), and
// disarmed on every return.
func (r *liveRound) deliver(batch []pendingSend, msg netsim.Message, w *laneWaiter) error {
	rs := r.rs
	for i := range batch {
		rs.arm(batch[i].x, w.ack)
	}
	defer func() {
		for i := range batch {
			rs.disarm(batch[i].x, w.ack)
		}
	}()
	if settled, stop := r.attempt(batch, msg, 0, w); settled || stop {
		return nil
	}
	budget := r.hp.attemptBudget()
	for i := range batch {
		if rs.settled(batch[i : i+1]) {
			continue // settled by a late ack of the bulk frame
		}
		for attempt := 1; ; attempt++ {
			if attempt == budget {
				ev := r.hp.evidence(msg.From, msg.To)
				return &PeerFailureError{Node: msg.From, Peer: msg.To, Attempts: budget,
					LastRTT: ev.LastRTT, SamplesSeen: ev.Samples, Phi: ev.Phi, Reconnects: ev.Reconnects,
					Reason: "no acknowledgement within the attempt budget and the failure detector stayed inconclusive"}
			}
			settled, stop := r.attempt(batch[i:i+1], batch[i].msg, attempt, w)
			if stop {
				return nil
			}
			if settled {
				break
			}
		}
	}
	return nil
}

// attempt transmits msg, attempt number attempt of batch's transfers, and
// waits on w for all their acks. The health plane's policy supplies the
// deadline (from the transmit's return) and the verdict on its expiry. stop
// reports the batch moot: a peer dead or convicted (degradation or abort
// already in motion), or the round unwinding.
func (r *liveRound) attempt(batch []pendingSend, msg netsim.Message, attempt int, w *laneWaiter) (settled, stop bool) {
	hp, timer := r.hp, w.timer
	if hp.isDead(msg.To) || hp.isDead(msg.From) {
		return false, true // degraded: the merge barrier accounts the exclusion
	}
	msg.Attempt = attempt
	if attempt > 0 {
		atomic.AddInt64(&r.rs.retries, 1)
		if r.trc.Enabled() {
			r.traceEvent(fmt.Sprintf("retry %s→%d #%d", msg.Gradient, msg.To, attempt), "retry", msg.From)
		}
	}
	var carried int64 // this payload and the unacked ones ahead of it on the link
	if r.at != nil {
		size, wire := int64(msg.PayloadLen()), &r.pipe.links[msg.From*r.pipe.n+msg.To].wire
		carried = wire.Add(size)
		defer wire.Add(-size)
	}
	sentAt := hp.clock()
	if err := r.tr.Send(msg); err != nil {
		select {
		case <-r.doneCh:
			return false, true // round already unwinding
		default:
			// Transient transport error (e.g. TCP write timeout against
			// a stalled peer): a failed attempt, waited out like any.
			r.noteSendError(msg, err)
		}
	}
	if !timer.Stop() { // go.mod's go 1.22: an expiry may still sit in C
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(hp.attemptDeadline(msg.From, msg.To, attempt))
	for {
		select {
		case <-w.ack:
			if !r.rs.settled(batch) {
				continue // a bulk frame's ack left some unsettled: the wait runs on
			}
			if attempt == 0 {
				// Karn's rule: only an unambiguous first-attempt ack
				// yields an RTT sample (a retransmitted transfer's ack
				// could belong to any copy). The autotuner fits per-link
				// send curves to them, paired with the bytes carried: a
				// frame queued behind window-mates waits for theirs too.
				rtt := hp.clock() - sentAt
				hp.observeRTT(msg.From, msg.To, rtt)
				if r.at != nil {
					r.at.ObserveLink(msg.From, msg.To, int(carried), rtt)
				}
			}
			return true, false
		case <-r.doneCh:
			return false, true // round unwinding: the send is moot
		case <-timer.C:
			victim, newly := hp.verdict(msg.From, msg.To, attempt, r.rs)
			if newly {
				r.onPeerDead(victim)
			}
			return false, victim >= 0
		}
	}
}

// noteSendError classifies a transport Send failure. The socket plane's
// typed *netsim.ConnError — a connection lifecycle that exhausted its
// redial budget — is surfaced as reconnect evidence to the health plane
// (detector-grade signal against the peer) and counted in RoundHealth. A
// message the wire format cannot carry (netsim.ErrUnsendable) fails the
// round at once: retransmitting it can only time the round out. Everything
// else stays an anonymous failed attempt for the retry loop.
func (r *liveRound) noteSendError(msg netsim.Message, err error) {
	if errors.Is(err, netsim.ErrUnsendable) {
		r.fail(fmt.Errorf("core: node %d cannot send %q to %d: %w", msg.From, msg.Gradient, msg.To, err))
		return
	}
	var cerr *netsim.ConnError
	if !errors.As(err, &cerr) {
		return
	}
	atomic.AddInt64(&r.rs.reconnects, 1)
	r.hp.observeReconnect(msg.To)
	if r.trc.Enabled() {
		r.traceEvent(fmt.Sprintf("reconnect %d→%d failed (gen %d, %d redials)",
			cerr.From, cerr.To, cerr.Gen, cerr.Redials), "reconnect", msg.From)
	}
}

// heartbeatLoop sends periodic liveness probes from node v to every live
// peer while the round runs, so the φ detectors keep accruing arrivals
// even when a slow link has no data traffic in flight. Probes carry their
// send timestamp in Step; the echo turns it into an RTT sample.
func (r *liveRound) heartbeatLoop(v int) {
	hp := r.hp
	ticker := time.NewTicker(hp.cfg.HeartbeatEvery)
	defer ticker.Stop()
	seq := 0
	for {
		select {
		case <-r.doneCh:
			return
		case <-ticker.C:
		}
		seq++
		for u := 0; u < r.lc.n; u++ {
			if u == v || hp.isDead(u) || hp.isDead(v) {
				continue
			}
			hb := netsim.Message{From: v, To: u, Heartbeat: true, Gradient: "hb",
				Step: int(hp.clock()), Attempt: seq & 0x7fff}
			if err := r.tr.Send(hb); err != nil {
				// Lost probes just delay the next sample; lifecycle
				// failures still count as evidence.
				r.noteSendError(hb, err)
			}
		}
	}
}

// replyHeartbeat echoes a probe back to its sender asynchronously (like an
// ack, a blocked echo must not stall the dispatcher). Echoes ride the
// same per-link ack worker but are always transmitted individually — their
// Step is an RTT timestamp that must not be delayed into a batch.
func (r *liveRound) replyHeartbeat(node int, msg netsim.Message) {
	r.pipe.enqueueAck(netsim.Message{From: node, To: msg.From, Heartbeat: true, Ack: true,
		Gradient: msg.Gradient, Step: msg.Step, Attempt: msg.Attempt})
}

// The partition index travels packed into the high bits of Message.Step so
// netsim.Message stays strategy-agnostic; steps are small (≤ 2N).
func packStep(step, part int) int       { return step | part<<20 }
func unpackStep(s int) (step, part int) { return s & (1<<20 - 1), s >> 20 }

// resultSlice returns the node's result buffer for gradient gi, allocating
// lazily.
func (rt *nodeRT) resultSlice(gi int) []float32 {
	if rt.result[gi] == nil {
		rt.result[gi] = make([]float32, rt.lay.grads[gi].elems)
	}
	return rt.result[gi]
}

// errMergeAfterStage fails a round whose DAG merges into a partition after it
// staged its payload: a raw send's references the accumulator, an encode's was
// taken from it.
var errMergeAfterStage = errors.New("core: merge into an accumulator already staged for sending")

// partial returns the node's current value of the partition t works on, for
// reading only: the accumulator once a merge has made one, before that the
// caller's own local[lo:hi] — encoders do not modify their input, so a node
// nothing is merged into never copies its gradient. Callers hold rt.mu.
func (rt *nodeRT) partial(t *Task) []float32 {
	if a := rt.part(t).acc; a != nil {
		return a
	}
	lo, hi := rt.lay.grads[t.GradIdx].span(t.Part)
	return rt.local[t.GradIdx][lo:hi]
}

// merge folds peer's received contribution to the partition t works on into
// its accumulator: a raw little-endian payload summed in, a compressed one
// decode-added by c (the §5 fused decode+merge — no decoded copy of the
// contribution ever exists). The first merge makes the accumulator in a fresh
// lease: raw as local[lo:hi] + payload in one pass (the operands, operand
// order and single rounding of copying local and then adding, hence the same
// bits), compressed as a copy of local[lo:hi] to decode-add into. The caller
// holds rt.mu and has found the contribution ready.
//
// The zero-copy raw send rests on the sends-follow-merges invariant: in every
// DAG BuildRing and BuildPS emit, each merge into a (node, gradient, partition)
// is an ancestor of each non-forward send and each encode of it
// (TestSendsFollowMerges), so a staged partition is final; a DAG that breaks it
// fails here.
func (rt *nodeRT) merge(t *Task, peer int, c compress.Compressor) error {
	gl := &rt.lay.grads[t.GradIdx]
	ps, in := rt.part(t), rt.inbox(t, peer).b
	if ps.out.b != nil {
		return fmt.Errorf("node %d, %s/p%d: %w", rt.id, gl.name, t.Part, errMergeAfterStage)
	}
	a := rt.partial(t)
	if ps.acc == nil {
		ps.acc = rt.lease.F32(len(a))
		if gl.algo != "" {
			copy(ps.acc, a)
		}
	}
	if gl.algo == "" {
		return sumBytesF32(ps.acc, a, in)
	}
	return compress.DecodeAdd(c, in, ps.acc)
}

// execComp performs encode/decode/merge/compute tasks with real data.
func (r *liveRound) execComp(rt *nodeRT, t *Task) error {
	lc := r.lc
	rt.mu.Lock()
	defer rt.mu.Unlock()
	gl := &r.lay.grads[t.GradIdx]
	var codec compress.Compressor // nil on a raw gradient
	if gl.algo != "" {
		codec = lc.comp[rt.id]
	}
	switch t.Kind {
	case KCompute:
		return nil // gradients are provided up front on the live plane

	case KEncode:
		acc := rt.partial(t)
		// A stochastic compressor draws from a stream derived from (round,
		// node, pipeline position), not from wherever its last encode left
		// off: which encode a node runs first depends on message arrival,
		// and the payload must not. Each Uint64At is splitmix64's finalizer
		// over a Weyl step, so two of them mix all three terms into every
		// key bit.
		name := r.ef[t.ID]
		at := tensor.Uint64At(tensor.RNGState(name.hash), uint64(r.round))
		compress.SetStream(codec, tensor.Uint64At(tensor.RNGState(at), uint64(rt.id)))
		var payload []byte
		var err error
		if lc.ef != nil && lc.ef[rt.id] != nil {
			// Error feedback at every compression point: worker encodes,
			// mid-ring re-encodes, and aggregator re-encodes each keep
			// their own residual, keyed by pipeline position (stable
			// across iterations), so gradient mass is never permanently
			// dropped — only deferred to later rounds. The fused
			// residual-add+encode writes straight into a leased payload
			// buffer (fresh per encode; the previous step's payload may
			// still be in flight, so in-round reuse would race).
			dst := rt.lease.Bytes(lc.ef[rt.id].MaxEncodedSize(len(acc)))
			payload, err = lc.ef[rt.id].EncodeWithFeedbackInto(name.key, dst, acc)
		} else {
			dst := rt.lease.Bytes(compress.MaxEncodedSize(codec, len(acc)))
			payload, err = codec.EncodeInto(dst, acc)
		}
		if err != nil {
			return err
		}
		ps := rt.part(t)
		ps.out = wireBuf{b: payload, sum: crc32.ChecksumIEEE(payload)}
		if t.Phase == 2 {
			// The aggregate holder broadcasts this payload; it must adopt
			// the same lossy view itself, or nodes would diverge (BSP
			// requires identical parameters everywhere). Decode straight
			// into the result slice — no intermediate buffer.
			lo, hi := gl.span(t.Part)
			if err := codec.DecodeInto(rt.resultSlice(t.GradIdx)[lo:hi], payload); err != nil {
				return err
			}
			ps.filled = true
		}
		return nil

	case KDecode:
		in := rt.inbox(t, t.Peer)
		if in.b == nil {
			return fmt.Errorf("core: node %d decode %s/p%d from %d with no received payload", rt.id, t.Grad, t.Part, t.Peer)
		}
		if t.Phase == 2 {
			lo, hi := gl.span(t.Part)
			if err := codec.DecodeInto(rt.resultSlice(t.GradIdx)[lo:hi], in.b); err != nil {
				return err
			}
			rt.part(t).filled = true
			return nil
		}
		// An aggregation-phase decode happens inside the merge it feeds
		// (compress.DecodeAdd); the task only releases the payload to it.
		in.ready = true
		return nil

	case KMerge:
		if t.Bytes == 0 {
			if t.Part >= 0 && t.Phase == 1 && r.epoch.Strategy == StrategyPS {
				// The PS partition barrier performs the actual aggregation.
				return r.mergeBarrierPS(rt, t, codec)
			}
			return nil // join barrier
		}
		if r.epoch.Strategy == StrategyPS && t.Phase == 1 {
			// PS phase-1 merges only mark their contribution's place; the
			// partition barrier sums in deterministic ascending-peer
			// order, so the float result is independent of arrival order —
			// the property that makes fault-free and chaos runs
			// byte-identical.
			return nil
		}
		// Ring merges are chain-ordered by the DAG and stay incremental.
		if !rt.inbox(t, t.Peer).ready {
			return fmt.Errorf("core: node %d merge %s/p%d from %d with no contribution", rt.id, t.Grad, t.Part, t.Peer)
		}
		return rt.merge(t, t.Peer, codec)

	default:
		return fmt.Errorf("core: comp queue got %v task", t.Kind)
	}
}

// mergeBarrierPS aggregates one PS partition at its server: the server's
// own contribution plus every ready peer contribution, merged in
// ascending peer order (deterministic float addition). Contributions
// missing because the failure detector convicted the peer are excluded and
// counted; the surviving sum is optionally renormalized by n/(n-excluded)
// before the phase-2 re-encode so every receiver observes the same scaled
// aggregate. Called with rt.mu held.
func (r *liveRound) mergeBarrierPS(rt *nodeRT, t *Task, codec compress.Compressor) error {
	lc := r.lc
	excluded := 0
	for peer := 0; peer < lc.n; peer++ {
		if peer == rt.id {
			continue
		}
		if !rt.inbox(t, peer).ready {
			if r.hp.isDead(peer) {
				excluded++
				continue
			}
			return fmt.Errorf("core: node %d aggregate %s/p%d missing contribution from %d", rt.id, t.Grad, t.Part, peer)
		}
		if err := rt.merge(t, peer, codec); err != nil {
			return err
		}
	}
	ps := rt.part(t)
	if excluded > 0 {
		atomic.AddInt64(&r.rs.excludedContribs, int64(excluded))
		if excluded == lc.n-1 {
			// No merge made an accumulator: the aggregate is the server's own
			// contribution.
			own := rt.partial(t)
			ps.acc = rt.lease.F32(len(own))
			copy(ps.acc, own)
		}
		if lc.cfg.Renormalize && lc.n > excluded {
			scale := float32(lc.n) / float32(lc.n-excluded)
			for i := range ps.acc {
				ps.acc[i] *= scale
			}
			atomic.StoreInt32(&r.rs.renormalized, 1)
		}
	}
	// Record that this node holds the partition's true aggregate: assembly
	// distinguishes it from an acc that is merely a local contribution
	// staged by a send attempt on a node whose synchronization never
	// completed.
	ps.agg = true
	return nil
}

// stageSend builds the wire message for a send task. No payload is copied: a
// forwarded frame and a compressed payload live in the round lease, immutable
// once produced, and a raw send's payload is the byte view of the partition's
// accumulator — final once any send of it is ready (see merge) — or of the
// caller's own local[lo:hi] on a node nothing was merged into; the first send
// stages it in out like an encode's. Nor is one checksummed twice: the sum is
// taken where the payload was made and reused by every send of it, by a ring
// forward, and through the payload-CRC cache by the TCP frame checksum.
func (r *liveRound) stageSend(rt *nodeRT, t *Task) (netsim.Message, error) {
	lc := r.lc
	var w wireBuf
	rt.mu.Lock()
	ps := rt.part(t)
	switch {
	case t.Forward:
		// Forwarding relays the payload received from this node's ring
		// predecessor (Forward tasks exist only on rings).
		w = *rt.inbox(t, (t.Node-1+lc.n)%lc.n)
	case ps.out.b != nil || r.lay.grads[t.GradIdx].algo != "":
		w = ps.out
	default:
		src := rt.partial(t)
		var ok bool
		if w.b, ok = kernels.F32AsBytesLE(src); !ok {
			w.b = rt.lease.Bytes(4 * len(src)) // big-endian host: serialize
			f32IntoBytes(w.b, src)
		}
		w.sum = crc32.ChecksumIEEE(w.b)
		ps.out = w
	}
	rt.mu.Unlock()
	if w.b == nil {
		return netsim.Message{}, fmt.Errorf("core: node %d sending %s/p%d (forward=%v) with no payload", rt.id, t.Grad, t.Part, t.Forward)
	}
	msg := netsim.Message{
		From:     rt.id,
		To:       t.Peer,
		Gradient: t.Grad,
		Step:     packStep(t.Step, t.Part),
		Sum:      w.sum,
		Payload:  w.b,
	}
	msg.SetPayloadCRC(w.sum)
	return msg, nil
}

// execRecv stores a received payload and, for uncompressed dissemination,
// writes the result directly. The stored payload is referenced until the
// round tears down (merge, decode, ring forwarding), so the buffer the
// transport leased for it — lease, a bulk frame's one for all its entries,
// adopted by the first one kept — joins the round lease here.
func (r *liveRound) execRecv(rt *nodeRT, t *Task, msg *netsim.Message, lease *kernels.Lease) error {
	payload := msg.Payload
	rt.mu.Lock()
	defer rt.mu.Unlock()
	gl := &r.lay.grads[t.GradIdx]
	raw := gl.algo == ""
	*rt.inbox(t, t.Peer) = wireBuf{b: payload, sum: msg.Sum, ready: raw} // the dispatcher verified Sum
	rt.lease.Adopt(lease)
	if raw {
		// Raw payloads must reinterpret exactly: reject truncated or
		// padded frames up front with a descriptive error.
		lo, hi := gl.span(t.Part)
		if len(payload) != 4*(hi-lo) {
			return fmt.Errorf("core: node %d received %d-byte raw payload for %s/p%d from %d, want %d bytes",
				rt.id, len(payload), t.Grad, t.Part, t.Peer, 4*(hi-lo))
		}
		if t.Phase == 2 {
			if err := copyBytesF32(rt.resultSlice(t.GradIdx)[lo:hi], payload); err != nil {
				return err
			}
			rt.part(t).filled = true
		}
	}
	return nil
}

// The raw (uncompressed) wire codec. A payload is little-endian float32s;
// where kernels.BytesAsF32LE can view it as []float32 in place (every leased
// payload on a little-endian host) the conversions are a memmove or a plain
// float loop, otherwise the portable element-by-element form.

// f32IntoBytes serializes v little-endian into dst; len(dst) must be
// 4*len(v).
func f32IntoBytes(dst []byte, v []float32) {
	if f, ok := kernels.BytesAsF32LE(dst); ok {
		copy(f[:len(v)], v)
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(x))
	}
}

// copyBytesF32 parses a little-endian float32 payload into dst without
// allocating, rejecting size mismatches loudly.
func copyBytesF32(dst []float32, b []byte) error {
	if len(b) != 4*len(dst) {
		return fmt.Errorf("core: raw payload length %d, want %d bytes for %d elements (truncated or corrupted frame)", len(b), 4*len(dst), len(dst))
	}
	if f, ok := kernels.BytesAsF32LE(b); ok {
		copy(dst, f)
		return nil
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return nil
}

// sumF32 sets dst[i] = a[i] + x[i] over len(dst) elements — the raw merge
// kernel. dst may be a (an accumulator merged into in place) or x; each
// element is read before it is written.
func sumF32(dst, a, x []float32) {
	a, x = a[:len(dst)], x[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + x[i]
	}
}

// sumBytesF32 sets dst[i] = a[i] + (the i-th little-endian float32 of b)
// without allocating — the raw (uncompressed) merge kernel, which with dst
// distinct from a makes an accumulator out of a local gradient and a received
// payload in one pass.
func sumBytesF32(dst, a []float32, b []byte) error {
	if len(b) != 4*len(dst) || len(a) != len(dst) {
		return fmt.Errorf("core: raw merge size mismatch: %d bytes vs %d elements", len(b), len(dst))
	}
	if f, ok := kernels.BytesAsF32LE(b); ok {
		sumF32(dst, a, f)
		return nil
	}
	for i := range dst {
		dst[i] = a[i] + math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return nil
}
