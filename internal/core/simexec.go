package core

import (
	"fmt"

	"hipress/internal/gpu"
	"hipress/internal/netsim"
	"hipress/internal/sim"
	"hipress/internal/telemetry"
)

// SimConfig selects the execution features of the timing plane. Each flag
// corresponds to one of the optimizations the paper's Fig. 11 ablates, so
// baselines and HiPress configurations are the same executor with different
// switches.
type SimConfig struct {
	// CompDev is the device running encode/decode/merge kernels (a GPU for
	// on-GPU compression, the CPU model for the on-CPU ablation).
	CompDev *gpu.Device
	// Fabric is the inter-node network.
	Fabric *netsim.Fabric

	// Pipeline, when false, serializes each node's compression kernels with
	// its network activity on a single resource — the coarse-grained,
	// non-overlapping execution of conventional synchronization (§2.5).
	Pipeline bool
	// BulkComm enables the coordinator's batched communication: sends that
	// share a link within the batching window travel as one transfer.
	BulkComm bool
	// BulkComp enables batch compression: back-to-back kernels on a node's
	// compression stream share one launch overhead (§3.2's single-callback
	// batching).
	BulkComp bool
	// BatchBytes and BatchWindow are the coordinator's size threshold and
	// timeout (§3.2: "whichever is met first"). Zero values select
	// defaults (8 MiB, 2 ms).
	BatchBytes  int64
	BatchWindow float64

	// PCIeCross charges each encode/decode a host↔device crossing at PCIe
	// bandwidth, modeling on-CPU compression of GPU-resident gradients.
	PCIeCross bool
	// ExtraCopies charges one extra device memory copy per encode and per
	// decode, modeling BytePS's additional pipeline buffers (Fig. 11:
	// "BytePS enables pipelining [but] incurs multiple extra memory
	// copies, which are eliminated by CompLL's memory-centric
	// optimizations").
	ExtraCopies bool
	// FuseDecMerge models CompLL's fused decode+merge operator: merges that
	// immediately follow a decode pay no separate kernel launch.
	FuseDecMerge bool
	// HostStaged charges every network transfer two extra PCIe crossings
	// (GPU→host before send, host→GPU after receive), modeling systems that
	// stage gradients through host memory rather than using GPU-direct
	// transports.
	HostStaged bool
	// Dispatch is the per-invocation CPU-side scheduling overhead of
	// launching a compression kernel through a DNN framework's execution
	// engine (seconds). Batch compression (BulkComp) amortizes it — the
	// "single callback function for a batch of gradients" of §3.2.
	Dispatch float64
	// CompWorkers models multicore compression kernels (the live plane's
	// chunked worker pool): the data-parallel portion of each
	// encode/decode/merge duration — everything beyond the serial
	// launch+dispatch overhead — divides by this worker count (Amdahl).
	// 0 or 1 leaves kernel durations unchanged.
	CompWorkers int

	// Chaos optionally injects timing-plane faults: stragglers multiply a
	// node's kernel durations while active, link outages defer transfers
	// wanting to start inside the window (see sim.ParseSchedule for the
	// spec grammar). Nil runs fault-free.
	Chaos *sim.ChaosSchedule

	// Tracer, when non-nil, records one virtual-clock span per executed
	// primitive (compute/encode/decode/merge and the uplink/downlink legs of
	// every transfer, flow-linked send→recv) plus instant events for chaos
	// deferrals. Nil tracing adds only branch checks to the executor.
	Tracer *telemetry.Tracer
}

// slow returns the straggler multiplier for node at virtual time now.
func (c *SimConfig) slow(node int, now float64) float64 {
	if c.Chaos.Empty() {
		return 1
	}
	return c.Chaos.SlowFactor(node, now)
}

func (c *SimConfig) defaults() {
	if c.BatchBytes == 0 {
		c.BatchBytes = 8 << 20
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 2e-3
	}
}

// SimResult reports the timing outcome of executing one task graph.
type SimResult struct {
	// Makespan is the virtual time at which every task has completed.
	Makespan float64
	// Finish holds each task's completion time, indexed by task ID.
	Finish []float64
	// CompBusy and LinkBusy are the per-node busy seconds of the
	// compression stream and the uplink.
	CompBusy []float64
	LinkBusy []float64
	// DNNBusy is the per-node busy seconds of the DNN compute stream.
	DNNBusy []float64
	// DNNSpans records DNN-compute occupancy per node for utilization
	// timelines (Fig. 9).
	DNNSpans []*sim.Tracker
}

// SimExecutor runs task graphs in virtual time. One executor instance
// corresponds to one cluster configuration; Run may be called once per
// graph (graphs are consumed).
type SimExecutor struct {
	cfg SimConfig
	n   int
}

// NewSimExecutor validates the configuration for an n-node cluster.
func NewSimExecutor(n int, cfg SimConfig) (*SimExecutor, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: executor needs at least 1 node, got %d", n)
	}
	if cfg.CompDev == nil || cfg.Fabric == nil {
		return nil, fmt.Errorf("core: SimConfig requires CompDev and Fabric")
	}
	if !cfg.Chaos.Empty() {
		if m := cfg.Chaos.MaxNode(); m >= n {
			return nil, fmt.Errorf("core: chaos schedule references node %d but cluster has %d nodes", m, n)
		}
	}
	cfg.defaults()
	return &SimExecutor{cfg: cfg, n: n}, nil
}

// Run executes g to completion and returns the timing result. The graph
// must be valid (see Graph.Validate); dependency counters are consumed.
func (x *SimExecutor) Run(g *Graph) SimResult {
	cfg := x.cfg
	eng := sim.NewEngine()

	// Resources. Links stay full-duplex either way (uplink and downlink are
	// independent); with Pipeline off, the compression stream aliases the
	// uplink so compression kernels and outbound transfers serialize — "no
	// compression-communication overlap" — without breaking the duplex
	// networking even conventional synchronization has.
	comp := make([]*sim.Resource, x.n)
	up := make([]*sim.Resource, x.n)
	down := make([]*sim.Resource, x.n)
	dnn := make([]*sim.Resource, x.n)
	spans := make([]*sim.Tracker, x.n)
	for i := 0; i < x.n; i++ {
		dnn[i] = sim.NewResource(fmt.Sprintf("dnn%d", i))
		spans[i] = &sim.Tracker{}
		up[i] = sim.NewResource(fmt.Sprintf("up%d", i))
		down[i] = sim.NewResource(fmt.Sprintf("down%d", i))
		if cfg.Pipeline {
			comp[i] = sim.NewResource(fmt.Sprintf("comp%d", i))
		} else {
			comp[i] = up[i]
		}
	}

	finish := make([]float64, len(g.Tasks))
	lastCompEnd := make([]float64, x.n) // for launch amortization (BulkComp)
	lastCompWasDecode := make([]bool, x.n)

	batcher := NewBatcher(cfg.BatchBytes, cfg.BatchWindow)
	timerArmed := false
	// waiting[src*n+dst] marks a link whose queued sends wait for it to go
	// idle.
	n := x.n
	waiting := make([]bool, n*n)
	markWaiting := func(l LinkKey) { waiting[l.Src*n+l.Dst] = true }
	clearWaiting := func(l LinkKey) { waiting[l.Src*n+l.Dst] = false }

	// Every event is a func value built here once per Run (dispatch,
	// complete, batchDone, timerFires) and a task ID or inflight slot.
	var dispatch func(now float64, id int)
	complete := func(t float64, id int) {
		finish[id] = t
		var buf [8]int
		for _, r := range g.Complete(id, buf[:0]) {
			eng.At(t, dispatch, r)
		}
	}

	// linkIdle reports whether both endpoints of the link are free at now.
	linkIdle := func(now float64, l LinkKey) bool {
		return up[l.Src].FreeAt() <= now && down[l.Dst].FreeAt() <= now
	}

	// transfer books a two-stage store-and-forward move: the sender's uplink
	// first, then the receiver's downlink. Sequential booking keeps incast
	// contention honest (receivers serialize) without convoying the sender's
	// idle uplink behind a busy receiver.
	tr := cfg.Tracer
	transfer := func(now float64, src, dst int, bytes int64, label string, nsends int, done func(float64, int), arg int) {
		if !cfg.Chaos.Empty() {
			// A downed link defers the transfer past the outage window(s);
			// DeferStart only ever moves time forward, so scheduling stays
			// legal for the event engine.
			deferred := cfg.Chaos.DeferStart(src, dst, now)
			if deferred > now && tr.Enabled() {
				tr.Record(telemetry.Span{
					Name: fmt.Sprintf("outage %d→%d", src, dst), Cat: "chaos",
					Node: src, Stream: "up", Start: now, Instant: true,
				}.With(telemetry.Num("deferred_s", deferred-now)))
			}
			now = deferred
		}
		dur := cfg.Fabric.SendTime(bytes)
		if cfg.HostStaged {
			dur += 2 * float64(bytes) / gpu.PCIeBW
		}
		upStart, upEnd := up[src].Acquire(now, dur)
		start := upEnd - dur // downlink stage may begin once uplink started
		if f := down[dst].FreeAt(); f > start {
			start = f
		}
		downStart, downEnd := down[dst].Acquire(start, dur)
		// The payload cannot arrive before the uplink finished pushing it.
		end := downEnd
		if end < upEnd {
			end = upEnd
		}
		if tr.Enabled() {
			flow := tr.NewFlow()
			name := fmt.Sprintf("%s %d→%d", label, src, dst)
			tr.Record(telemetry.Span{
				Name: name, Cat: "send", Node: src, Stream: "up",
				Start: upStart, Dur: upEnd - upStart, Flow: flow, FlowStart: true,
			}.With(telemetry.Num("bytes", float64(bytes))).With(telemetry.Num("sends", float64(nsends))))
			tr.Record(telemetry.Span{
				Name: name, Cat: "recv", Node: dst, Stream: "down",
				Start: downStart, Dur: downEnd - downStart, Flow: flow,
			}.With(telemetry.Num("bytes", float64(bytes))))
		}
		eng.At(end, done, arg)
	}

	var inflight []Batch // batches on the wire, at the slot batchDone gets
	var free []int       // inflight slots to reuse
	var tryFlushEndpoints func(now float64, src, dst int)
	batchDone := func(t float64, slot int) {
		b := inflight[slot]
		inflight[slot] = Batch{}
		free = append(free, slot)
		for _, s := range b.Sends {
			complete(t, s.TaskID)
		}
		batcher.recycle(b.Sends)
		// The link just freed: give queues waiting on either endpoint their
		// time slot (the coordinator's "select a group of network-idle nodes
		// to join each time slot").
		tryFlushEndpoints(t, b.Link.Src, b.Link.Dst)
	}
	dispatchBatch := func(now float64, b Batch) {
		label := "batch"
		if len(b.Sends) == 1 {
			label = g.Tasks[b.Sends[0].TaskID].Grad
		}
		if len(free) == 0 {
			free, inflight = append(free, len(inflight)), append(inflight, Batch{})
		}
		slot := free[len(free)-1]
		free, inflight[slot] = free[:len(free)-1], b
		transfer(now, b.Link.Src, b.Link.Dst, b.Bytes, label, len(b.Sends), batchDone, slot)
	}

	tryFlushEndpoints = func(now float64, src, dst int) {
		// Scan row src (ascending Dst), then column dst (ascending Src).
		// Each scan checks idleness before any of its batches books a link.
		var buf [16]LinkKey
		for col := 0; col < 2; col++ {
			ready := buf[:0]
			for k := 0; k < n; k++ {
				l := LinkKey{src, k}
				if col == 1 {
					l = LinkKey{k, dst}
				}
				if waiting[l.Src*n+l.Dst] && linkIdle(now, l) {
					ready = append(ready, l)
				}
			}
			for _, l := range ready {
				clearWaiting(l)
				dispatchBatch(now, batcher.Flush(l))
			}
		}
	}

	var armTimer func(now float64)
	timerFires := func(t float64, _ int) {
		timerArmed = false
		for _, b := range batcher.FlushDue(t) {
			clearWaiting(b.Link)
			dispatchBatch(t, b)
		}
		armTimer(t)
	}
	armTimer = func(now float64) {
		deadline, ok := batcher.NextDeadline()
		if !ok || timerArmed {
			return
		}
		timerArmed = true
		if deadline < now {
			deadline = now
		}
		eng.At(deadline, timerFires, 0)
	}

	// scaleComp applies the multicore-kernel model: the launch+dispatch
	// overhead stays serial, the remainder splits across CompWorkers.
	scaleComp := func(dur float64) float64 {
		if cfg.CompWorkers <= 1 {
			return dur
		}
		fixed := cfg.CompDev.Launch + cfg.Dispatch
		if dur <= fixed {
			return dur
		}
		return fixed + (dur-fixed)/float64(cfg.CompWorkers)
	}

	compKernel := func(now float64, id int, node int, dur float64, isDecode bool) {
		r := comp[node]
		if cfg.BulkComp && r.FreeAt() >= now && r.FreeAt() == lastCompEnd[node] && r.BusyTime() > 0 {
			// Back-to-back kernel on the same stream: launches batch into
			// one callback, so the repeated launch + dispatch overhead is
			// saved.
			saved := (cfg.CompDev.Launch + cfg.Dispatch) * 0.9
			if dur > saved {
				dur -= saved
			}
		}
		if cfg.FuseDecMerge && g.Tasks[id].Kind == KMerge && lastCompWasDecode[node] {
			// Fused decode+merge: the merge rides the decode kernel.
			if dur > cfg.CompDev.Launch {
				dur -= cfg.CompDev.Launch
			}
		}
		// A straggling node runs its compression kernels slower while the
		// fault window is active.
		sf := cfg.slow(node, now)
		dur *= sf
		start, end := r.Acquire(now, dur)
		lastCompEnd[node] = end
		lastCompWasDecode[node] = isDecode
		if tr.Enabled() {
			t := g.Tasks[id]
			s := telemetry.Span{
				Name: fmt.Sprintf("%s %s/p%d", t.Kind, t.Grad, t.Part), Cat: t.Kind.String(),
				Node: node, Stream: "comp", Start: start, Dur: end - start,
			}.With(telemetry.Num("bytes", float64(t.Bytes)))
			if sf != 1 {
				s = s.With(telemetry.Num("straggler", sf))
			}
			tr.Record(s)
		}
		eng.At(end, complete, id)
	}

	dispatch = func(now float64, id int) {
		t := g.Tasks[id]
		switch t.Kind {
		case KCompute:
			dur := t.Dur * cfg.slow(t.Node, now)
			_, end := dnn[t.Node].Acquire(now, dur)
			spans[t.Node].Add(end-dur, end, t.Grad)
			if tr.Enabled() {
				tr.Record(telemetry.Span{
					Name: t.Grad, Cat: "compute", Node: t.Node, Stream: "dnn",
					Start: end - dur, Dur: dur,
				})
			}
			eng.At(end, complete, id)

		case KEncode, KDecode:
			kernel := cfg.CompDev.EncodeTime
			if t.Kind == KDecode {
				kernel = cfg.CompDev.DecodeTime
			}
			dur := scaleComp(kernel(t.Algo, t.Bytes) + cfg.Dispatch)
			if cfg.PCIeCross {
				dur += float64(t.Bytes) / gpu.PCIeBW
			}
			if cfg.ExtraCopies {
				dur += cfg.CompDev.CopyTime(t.Bytes)
			}
			compKernel(now, id, t.Node, dur, t.Kind == KDecode)

		case KMerge:
			if t.Bytes == 0 {
				complete(now, id) // barrier
				return
			}
			compKernel(now, id, t.Node, scaleComp(cfg.CompDev.MergeTime(t.Bytes)), false)

		case KSend:
			if t.Node == t.Peer {
				complete(now, id) // intra-node: no network
				return
			}
			if cfg.BulkComm {
				link := LinkKey{Src: t.Node, Dst: t.Peer}
				ps := PendingSend{TaskID: id, Link: link, Bytes: t.Bytes}
				if b, full := batcher.Add(ps, now); full {
					clearWaiting(link)
					dispatchBatch(now, b)
				} else if linkIdle(now, link) {
					// Idle link: depart immediately with whatever queued;
					// batching amortization emerges under contention.
					clearWaiting(link)
					dispatchBatch(now, batcher.Flush(link))
				} else {
					markWaiting(link)
					armTimer(now)
				}
				return
			}
			transfer(now, t.Node, t.Peer, t.Bytes, t.Grad, 1, complete, id)

		case KRecv:
			// The matching send carried the wire time; receipt is free.
			complete(now, id)

		default:
			panic(fmt.Sprintf("core: unknown task kind %v", t.Kind))
		}
	}

	for _, r := range g.Roots() {
		eng.At(0, dispatch, r)
	}
	makespan := eng.Run()

	// A batch closes on its size threshold, an idle link or its window timer,
	// which stays armed while any batch is open: one still queued after the
	// run means the timer logic failed.
	if leftover := batcher.FlushAll(); len(leftover) > 0 {
		panic(fmt.Sprintf("core: %d batches left undelivered after run", len(leftover)))
	}

	res := SimResult{
		Makespan: makespan,
		Finish:   finish,
		CompBusy: make([]float64, x.n),
		LinkBusy: make([]float64, x.n),
		DNNBusy:  make([]float64, x.n),
		DNNSpans: spans,
	}
	for i := 0; i < x.n; i++ {
		if cfg.Pipeline {
			res.CompBusy[i] = comp[i].BusyTime()
		}
		res.LinkBusy[i] = up[i].BusyTime()
		res.DNNBusy[i] = dnn[i].BusyTime()
	}
	return res
}
