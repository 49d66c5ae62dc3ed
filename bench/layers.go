package main

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"time"

	"hipress/internal/compress"
	"hipress/internal/core"
	"hipress/internal/kernels"
	"hipress/internal/models"
	"hipress/internal/netsim"
	"hipress/internal/telemetry"
)

// Layer replays from outside: the harness calls each layer's public
// functions with the sizes and counts one round of the workload uses, and
// times them alone, serially, on one goroutine. No code of the program is
// changed or instrumented for this.

// codecCall is one encode or decode call of a round.
type codecCall struct {
	key   string // error-feedback key of an encode, as the live plane forms it
	slot  string // names the partition's payload: decodes read what encodes of the same slot wrote
	grad  string
	lo    int // element range of the partition within the gradient
	hi    int
	adopt bool // a phase-2 encode also decodes its own payload into the result
}

// wireMsg is one payload message of a round.
type wireMsg struct {
	from, to int
	bytes    int
}

// schedule is what one round asks of the layers below core, read off the
// same task graph SyncRoundContext builds.
type schedule struct {
	tasks    int
	encodes  []codecCall
	decodes  []codecCall
	msgs     []wireMsg
	rawBytes int64 // uncompressed size of everything sent
	buildMs  float64
}

// buildGraph builds one round's DAG the way LiveCluster.SyncRoundContext
// does; wire sizes come from the compressor so send tasks carry real payload
// sizes.
func buildGraph(cfg core.LiveConfig, grads []models.Gradient, comp compress.Compressor) (*core.Graph, error) {
	topo := core.PSBipartite(nodes)
	if cfg.Strategy == core.StrategyRing {
		topo = core.Ring(nodes)
	}
	g := core.NewGraph()
	for _, gr := range grads {
		spec := core.GradSync{Name: gr.Name, Elems: gr.Elems, Parts: max(cfg.Parts, 1), Algo: cfg.Algo}
		if comp != nil {
			spec.WireBytes = func(elems int) int64 { return int64(comp.CompressedSize(elems)) }
		}
		var err error
		if cfg.Strategy == core.StrategyRing {
			_, err = core.BuildRing(g, topo, spec)
		} else {
			_, err = core.BuildPS(g, topo, spec)
		}
		if err != nil {
			return nil, err
		}
	}
	return g, g.Validate()
}

func newCompressor(cfg core.LiveConfig) (compress.Compressor, error) {
	if cfg.Algo == "" {
		return nil, nil
	}
	p := compress.Params{"seed": 1}
	for k, v := range cfg.Params {
		p[k] = v
	}
	return compress.New(cfg.Algo, p)
}

// roundSchedule times the graph build and extracts the round's calls.
func roundSchedule(cfg core.LiveConfig, grads []models.Gradient) (*schedule, error) {
	comp, err := newCompressor(cfg)
	if err != nil {
		return nil, err
	}
	var g *core.Graph
	var times []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if g, err = buildGraph(cfg, grads, comp); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds()*1e3)
	}
	elems := make(map[string]int, len(grads))
	for _, gr := range grads {
		elems[gr.Name] = gr.Elems
	}
	s := &schedule{tasks: len(g.Tasks), buildMs: median(times)}
	for _, t := range g.Tasks {
		ne := elems[t.Grad]
		np := min(max(cfg.Parts, 1), ne)
		lo, hi := core.PartRange(ne, np, max(t.Part, 0))
		slot := fmt.Sprintf("%s/p%d", t.Grad, t.Part)
		switch t.Kind {
		case core.KEncode:
			s.encodes = append(s.encodes, codecCall{slot: slot, grad: t.Grad, lo: lo, hi: hi, adopt: t.Phase == 2,
				key: fmt.Sprintf("%d/%s/p%d/ph%d/s%d", t.Node, t.Grad, t.Part, t.Phase, t.Step)})
		case core.KDecode:
			s.decodes = append(s.decodes, codecCall{slot: slot, grad: t.Grad, lo: lo, hi: hi})
		case core.KSend:
			s.msgs = append(s.msgs, wireMsg{from: t.Node, to: t.Peer, bytes: int(t.Bytes)})
			s.rawBytes += int64(4 * (hi - lo))
		}
	}
	return s, nil
}

// compressLayer replays one round's encode and decode calls — same
// algorithm, sizes and error feedback — and measures the codec alone at a
// large and a tiny size. A workload without compression leaves every
// compress metric at 0 except wire_ratio, which is then exactly 1.
func compressLayer(m metrics, cfg core.LiveConfig, s *schedule, data map[string][]float32, smoke bool) error {
	var wire int64
	for _, msg := range s.msgs {
		wire += int64(msg.bytes)
	}
	if wire > 0 {
		m.set("compress.wire_ratio", float64(s.rawBytes)/float64(wire))
	}
	comp, err := newCompressor(cfg)
	if err != nil || comp == nil {
		return err
	}
	m.set("compress.encodes_per_round", float64(len(s.encodes)))
	cd := &codec{comp: comp}
	if cfg.ErrorFeedback {
		cd.ef = compress.NewErrorFeedback(comp)
	}

	var encMs, decMs []float64
	for r := 0; r <= pick(smoke, 5, 1); r++ { // first repetition warms residuals and the arena
		enc, dec, err := cd.replay(s, data)
		if err != nil {
			return err
		}
		if r > 0 {
			encMs = append(encMs, enc.Seconds()*1e3)
			decMs = append(decMs, dec.Seconds()*1e3)
		}
	}
	m.set("compress.replay_encode_ms", median(encMs))
	m.set("compress.replay_decode_ms", median(decMs))

	// The codec alone: 1 Mi elements for bandwidth, 256 elements for the
	// fixed cost of a call.
	big, small := pick(smoke, 1<<20, 1<<14), 256
	src := make([]float32, big)
	for i, v := 0, data[s.encodes[0].grad]; i < big; i++ { // generated gradient values, repeated to size
		src[i] = v[i%len(v)]
	}
	var lease kernels.Lease
	defer lease.Release()
	dst := lease.Bytes(compress.MaxEncodedSize(comp, big))
	out := lease.F32(big)
	var payload []byte
	encodeOf := func(key string, v []float32) func() error {
		return func() (err error) {
			payload, err = cd.encode(key, dst, v)
			return err
		}
	}
	decodeInto := func(v []float32) func() error {
		return func() error { return compress.DecodeInto(comp, v, payload) }
	}
	encBig, err := timeCalls(20, smoke, encodeOf("micro/big", src))
	if err != nil {
		return err
	}
	decBig, err := timeCalls(20, smoke, decodeInto(out))
	if err != nil {
		return err
	}
	m.set("compress.encode_GBps_1m", float64(4*big)/encBig.ns)
	m.set("compress.decode_GBps_1m", float64(4*big)/decBig.ns)
	encSmall, err := timeCalls(20000, smoke, encodeOf("micro/small", src[:small]))
	if err != nil {
		return err
	}
	decSmall, err := timeCalls(20000, smoke, decodeInto(out[:small]))
	if err != nil {
		return err
	}
	m.set("compress.encode_ns_per_call_256", encSmall.ns)
	m.set("compress.decode_ns_per_call_256", decSmall.ns)
	m.set("compress.encode_allocs_per_call", encSmall.allocs)
	m.set("compress.decode_allocs_per_call", decSmall.allocs)
	return nil
}

// codec is a workload's compressor as the live plane calls it: through the
// error-feedback wrapper when the workload uses one.
type codec struct {
	comp compress.Compressor
	ef   *compress.ErrorFeedback
}

func (c *codec) encode(key string, dst []byte, v []float32) ([]byte, error) {
	if c.ef != nil {
		return c.ef.EncodeWithFeedbackInto(key, dst, v)
	}
	return compress.EncodeInto(c.comp, dst, v)
}

// replay issues one round's encode and decode calls serially, leasing
// buffers as the live plane does. A phase-2 encode decoding its own payload
// into the result counts as decode time.
func (c *codec) replay(s *schedule, data map[string][]float32) (enc, dec time.Duration, err error) {
	var lease kernels.Lease
	defer lease.Release()
	payloads := make(map[string][]byte, len(s.encodes))
	var adopt time.Duration
	t0 := time.Now()
	for _, call := range s.encodes {
		v := data[call.grad][call.lo:call.hi]
		p, err := c.encode(call.key, lease.Bytes(compress.MaxEncodedSize(c.comp, len(v))), v)
		if err != nil {
			return 0, 0, err
		}
		payloads[call.slot] = p
		if call.adopt {
			a0 := time.Now()
			if err := compress.DecodeInto(c.comp, lease.F32(len(v)), p); err != nil {
				return 0, 0, err
			}
			adopt += time.Since(a0)
		}
	}
	enc = time.Since(t0) - adopt
	t0 = time.Now()
	for _, call := range s.decodes {
		if err := compress.DecodeInto(c.comp, lease.F32(call.hi-call.lo), payloads[call.slot]); err != nil {
			return 0, 0, err
		}
	}
	return enc, time.Since(t0) + adopt, nil
}

// callCost is the measured cost of one call of a function.
type callCost struct {
	ns     float64 // median over batches
	allocs float64
	bytes  float64
}

// timeCalls runs f n times in ten batches after one warm-up batch and
// returns the median batch's time per call, with allocations per call over
// all batches. It stops at f's first error.
func timeCalls(n int, smoke bool, f func() error) (callCost, error) {
	const batches = 10
	per := pick(smoke, max(n/batches, 1), 1)
	batch := func() (float64, error) {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(per), nil
	}
	if _, err := batch(); err != nil {
		return callCost{}, err
	}
	runtime.GC() // the traced run's spans are garbage by now; collect them outside the timed batches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var ns []float64
	for b := 0; b < batches; b++ {
		t, err := batch()
		if err != nil {
			return callCost{}, err
		}
		ns = append(ns, t)
	}
	runtime.ReadMemStats(&after)
	calls := float64(batches * per)
	return callCost{
		ns:     median(ns),
		allocs: float64(after.Mallocs-before.Mallocs) / calls,
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / calls,
	}, nil
}

// kernelSnap is the kernel plane's counters at one moment.
type kernelSnap struct {
	arena kernels.ArenaStats
	pool  kernels.Stats
}

func kernelCounters() kernelSnap {
	return kernelSnap{kernels.DefaultArenaStats(), kernels.PoolStats()}
}

// since reports what the arena and the pool did since the snapshot: the share
// of buffer checkouts served without allocating, and of kernel launches that
// engaged more than one worker.
func (k kernelSnap) since(m metrics) {
	now := kernelCounters()
	if g := now.arena.Gets - k.arena.Gets; g > 0 {
		m.set("kernels.arena_hit_rate", float64(now.arena.Hits-k.arena.Hits)/float64(g))
	}
	if r := now.pool.Runs - k.pool.Runs; r > 0 {
		m.set("kernels.parallel_run_share", float64(now.pool.ParallelRuns-k.pool.ParallelRuns)/float64(r))
	}
}

type noop struct{}

func (noop) RunChunk(int) {}

// kernelsLayer measures the fixed costs every kernel launch and every leased
// buffer pays.
func kernelsLayer(m metrics, smoke bool) {
	pool := kernels.Default()
	m.set("kernels.pool_run_ns_1chunk", timeInfallible(200000, smoke, func() { pool.Run(1, noop{}) }))
	m.set("kernels.pool_run_ns_32chunk", timeInfallible(20000, smoke, func() { pool.Run(32, noop{}) }))
	m.set("kernels.lease_ns", timeInfallible(200000, smoke, func() {
		var l kernels.Lease
		l.Bytes(64 << 10)
		l.Release()
	}))
}

// timeInfallible is timeCalls for a call that cannot fail; it returns the
// nanoseconds per call.
func timeInfallible(n int, smoke bool, f func()) float64 {
	c, _ := timeCalls(n, smoke, func() error { f(); return nil }) // f returns no error
	return c.ns
}

// recordNs is the cost of recording one span.
func recordNs() float64 {
	tr := telemetry.NewTracer()
	span := telemetry.Span{Name: "encode g/p0", Cat: "encode", Stream: "comp", Dur: 1e-6}
	return timeInfallible(100000, false, func() { tr.Record(span) })
}

func newTransport(kind string, capacity int) (netsim.Transport, error) {
	if kind == "tcp" {
		return netsim.NewTCPTransport(nodes, capacity)
	}
	return netsim.NewChanTransport(nodes, capacity), nil
}

// netsimLayer measures the workload's transport alone: what a round pays to
// build and tear one down (LiveCluster.run makes a transport per round), the
// small-message round trip, the large-message stream rate, and the replay of
// one round's payload messages pushed Send→Recv by one goroutine.
// Acknowledgements are not replayed; they are core's protocol, not the
// round's payload schedule.
func netsimLayer(m metrics, kind string, s *schedule, smoke bool) error {
	reps := pick(smoke, 10, 1)
	pass := func(tr netsim.Transport, from, to int, payload []byte) error {
		if err := tr.Send(netsim.Message{From: from, To: to, Gradient: "g", Sum: crc32.ChecksumIEEE(payload), Payload: payload}); err != nil {
			return err
		}
		if _, ok := tr.Recv(to); !ok {
			return fmt.Errorf("netsim %s transport closed during a replay", kind)
		}
		return nil
	}
	small := make([]byte, 64)

	var setup []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		tr, err := newTransport(kind, 64)
		if err != nil {
			return err
		}
		for from := 0; from < nodes; from++ {
			for to := 0; to < nodes; to++ {
				if from != to {
					if err := pass(tr, from, to, small); err != nil {
						tr.Close()
						return err
					}
				}
			}
		}
		tr.Close()
		setup = append(setup, time.Since(t0).Seconds()*1e3)
	}
	m.set("netsim.setup_teardown_ms", median(setup))

	tr, err := newTransport(kind, 64)
	if err != nil {
		return err
	}
	defer tr.Close()
	rtt, err := timeCalls(20000, smoke, func() error {
		if err := pass(tr, 0, 1, small); err != nil {
			return err
		}
		return pass(tr, 1, 0, small)
	})
	if err != nil {
		return err
	}
	m.set("netsim.msg_rtt_us", rtt.ns/1e3)
	m.set("netsim.allocs_per_msg", rtt.allocs/2)

	big := make([]byte, 1<<20)
	stream, err := timeCalls(200, smoke, func() error { return pass(tr, 0, 1, big) })
	if err != nil {
		return err
	}
	m.set("netsim.stream_MBps", float64(len(big))/stream.ns*1e3)
	m.set("netsim.alloc_KB_per_msg_1m", stream.bytes/1024)

	maxBytes := 0
	for _, msg := range s.msgs {
		maxBytes = max(maxBytes, msg.bytes)
	}
	buf := make([]byte, maxBytes)
	var replay []float64
	for r := 0; r <= reps/2; r++ { // first repetition dials the links
		t0 := time.Now()
		for _, msg := range s.msgs {
			if err := pass(tr, msg.from, msg.to, buf[:msg.bytes]); err != nil {
				return err
			}
		}
		if r > 0 || smoke {
			replay = append(replay, time.Since(t0).Seconds()*1e3)
		}
	}
	m.set("netsim.replay_ms", median(replay))
	return nil
}
