package core

import (
	"sync"
	"sync/atomic"
	"time"

	"hipress/internal/netsim"
	"hipress/internal/telemetry"
)

// This file is the live plane's pipelined send engine, whose lanes are each
// node's communication queue (Q_commu). A sequential send loop resolved one
// send at a time — transmit, wait for the ack, move on — so a round's
// communication floor was the per-node *sum* of serialization plus ack RTT.
// The engine splits every send into two halves:
//
//   stage   — reference the payload bytes (encode output, forwarded frame,
//             or the raw accumulator itself) on the goroutine that completed
//             the send's last dependency, and queue it on its lane;
//   resolve — transmit and wait for acknowledgement on a lane worker, with
//             up to Window transfers of one directed link in flight at once.
//
// Bit-identity needs no copy at staging: a payload is final once its send's
// dependencies clear — no merge follows a send of the same partition
// (live.go, merge) — however long the transfer then sits in a window.
// Resolution is the one delivery loop (scoreboard, RTO, φ-accrual, hedges),
// so health semantics are identical on every lane shape; only the
// concurrency of waiting differs. The ordered barrier merge on the receive
// side already makes result bytes independent of arrival order, which is why
// completion order across a window cannot affect them.
//
// What a round sends from a to b — staged transfers and acks — queues in
// row (a, b) of one link table. Buffer lifetimes need no new machinery: every
// staged payload lives in the round lease or in the caller's gradients, and
// the lease is released only after every goroutine of the round, lane and ack
// workers included, has left the round's one WaitGroup — the "retrying sender
// still references them" discipline simply generalizes to W outstanding
// payloads.

// PipelineConfig tunes the live plane's send pipeline and ack path
// (LiveConfig.Pipeline). The zero value reproduces the sequential engine,
// the one shape an unreliable round runs: Window and AckBatch above 1 are
// settings of reliable rounds (Validate), since what a window overlaps is
// ack waits.
type PipelineConfig struct {
	// Window is the per-directed-link sliding window: how many transfers of
	// one src→dst link may be in flight (transmitted, awaiting ack) at
	// once. ≤ 1 keeps the classic sequential behavior — one send lane per
	// node, one transfer at a time. ≥ 2 gives every directed link its own
	// lane with Window slots, so serialization and ack RTTs overlap both
	// across links and within one link. Result bytes are identical for
	// every Window (see the bit-identity notes above).
	Window int
	// AckBatch bounds receiver-side ack aggregation: when a link's ack
	// worker finds several acknowledgements pending (a backlog the windowed
	// sender creates naturally), up to AckBatch of them coalesce into one
	// frame carrying per-transfer keys. ≤ 1 sends one frame per ack. An
	// idle link still acks immediately — batches only form under backlog,
	// so single-transfer RTT evidence is undistorted.
	AckBatch int
	// OverlapEncode is ignored: staging always runs ahead of the window (a
	// send is staged once its dependencies clear, however full its window).
	// It once chose whether staging waited for a window slot, which bounded
	// staged-but-unsent payload copies; staging copies nothing now, so the
	// wait bounded no memory the round lease does not. The field stays only
	// because bench/ names it — ROADMAP Benchmark v2 (e) deletes it.
	OverlapEncode bool
}

// pendingSend is one staged transfer queued on a lane: the graph task, the
// fully built wire message, and the trace timestamp taken when staging began.
type pendingSend struct {
	t     *Task
	msg   netsim.Message
	start float64
}

// link is one row of a round's link table: everything the round sends from
// src to dst. The table belongs to the round plan and is reset as a round
// takes it (reset), so a row's buffers and wake channel serve every round of
// the plan. Its send lane (queue, head, workers, depth) is guarded by the
// engine mutex; its ack queue (pending, started, wake) by the row's own mu, so
// acking never contends with staging. seq, acks, spare and refs are the ack
// worker's own: the per-link sequence number stamped into batched frames so
// the chaos plane's per-(step, attempt) fault rolls stay fresh, flushAcks'
// scratch, the other half of the pending double buffer, and the slab batched
// frames' refs are carved from.
type link struct {
	queue   []pendingSend // queue[head:] waits; both reset when it empties
	head    int
	workers int // goroutines currently resolving this lane, ≤ window
	depth   int // high-water mark of queued + resolving

	mu      sync.Mutex
	pending []netsim.Message
	started bool
	wake    chan struct{}
	seq     int
	acks    []netsim.Message
	spare   []netsim.Message
	refs    []netsim.AckRef
}

// reset empties the row for the next round on its plan, keeping every buffer's
// capacity and the wake channel: the round that last ran on it may have been
// cut off with sends queued, acks pending and a wake token posted.
func (l *link) reset() {
	clear(l.queue)
	l.queue, l.head, l.workers, l.depth = l.queue[:0], 0, 0, 0
	l.pending, l.started, l.seq = l.pending[:0], false, 0
	select {
	case <-l.wake:
	default:
	}
}

// ackRefSlab is how many batched-ack refs a row's slab holds: a frame's refs
// are carved from it, never reused (ChanTransport hands the slice itself to
// the receiver), and a fresh slab replaces a spent one.
const ackRefSlab = 256

// laneWaiter is what a lane worker of a reliable round waits for acks with:
// one timer, re-armed per wait (deliver), and one one-slot ack rendezvous
// channel, armed per transfer. Both outlive the worker, through laneWaiters.
type laneWaiter struct {
	timer *time.Timer
	ack   chan struct{}
}

// laneWaiters pools lane waiters across workers and rounds. A waiter goes
// back with its channel empty (deliver disarms on every return) and its timer
// possibly expired, which the next wait's stop-and-drain absorbs.
var laneWaiters = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &laneWaiter{timer: t, ack: make(chan struct{}, 1)}
}}

// sendEngine runs one round on its plan's link table and is the only route
// from a ready send task to the wire. Every send is released the same way:
// staged when its dependencies clear, queued on its row, and resolved inside
// that row's window. A send queues on row (Node, Peer) when Window ≥ 2, on
// row (Node, Node) otherwise — no live DAG sends to itself — so the
// sequential configuration keeps exactly the old one-send-at-a-time-per-node
// shape.
type sendEngine struct {
	r        *liveRound
	n        int
	window   int
	ackBatch int

	mu    sync.Mutex // guards every row's send lane
	links []link     // by src·n+dst

	inflight atomic.Int64 // transfers currently resolving, across all lanes
	startNs  atomic.Int64 // engine-relative ns of the first staged send
	endNs    atomic.Int64 // engine-relative ns of the last resolution
	began    time.Time

	gauge *telemetry.Gauge
}

// newSendEngine starts the engine of round r over links, an n·n link table
// whose rows are empty.
func newSendEngine(r *liveRound, n int, links []link, cfg PipelineConfig) *sendEngine {
	e := &sendEngine{
		r:        r,
		n:        n,
		window:   max(cfg.Window, 1),
		ackBatch: max(cfg.AckBatch, 1),
		links:    links,
		began:    time.Now(), //hipress:wallclock engine-relative monotonic base for ack latencies
	}
	if r.met != nil {
		e.gauge = r.met.Gauge(MetricLiveInflight,
			"transfers currently in flight across all live send lanes")
	}
	return e
}

// submit stages a ready send task on the calling goroutine (liveRound.route)
// and queues it on its lane, starting a lane worker when its window has a
// free slot.
func (e *sendEngine) submit(t *Task) error {
	r := e.r
	start := r.trc.Now()
	msg, err := r.stageSend(&r.nodes[t.Node], t)
	if err != nil {
		return err
	}
	dst := t.Node
	if e.window > 1 {
		dst = t.Peer
	}
	l := &e.links[t.Node*e.n+dst]
	e.startNs.CompareAndSwap(0, e.sinceNs())
	e.mu.Lock()
	l.queue = append(l.queue, pendingSend{t: t, msg: msg, start: start})
	waiting := len(l.queue) - l.head
	l.depth = max(l.depth, waiting+l.workers)
	for idle := waiting; idle > 0 && l.workers < e.window; idle-- {
		l.workers++
		r.wg.Add(1)
		go e.drain(l)
	}
	e.mu.Unlock()
	return nil
}

// drain is one window slot's worker: it resolves staged transfers in lane
// FIFO order and exits when the lane empties or the round unwinds. Workers
// per lane never exceed the window, so at most Window transfers of one lane
// are between transmit and ack at any moment.
func (e *sendEngine) drain(l *link) {
	defer e.r.wg.Done()
	r := e.r
	var w *laneWaiter // this worker's ack waiter, reused for every transfer it resolves
	if r.reliable {
		w = laneWaiters.Get().(*laneWaiter)
		defer laneWaiters.Put(w)
	}
	for {
		unwinding := false
		select {
		case <-r.doneCh:
			unwinding = true
		default:
		}
		e.mu.Lock()
		if unwinding || l.head == len(l.queue) {
			l.workers--
			e.mu.Unlock()
			return
		}
		p := l.queue[l.head]
		l.queue[l.head] = pendingSend{}
		if l.head++; l.head == len(l.queue) {
			l.queue, l.head = l.queue[:0], 0
		}
		e.mu.Unlock()

		in := e.inflight.Add(1)
		if e.gauge != nil {
			e.gauge.Set(float64(in))
		}
		err := r.deliver(p.t, p.msg, w)
		in = e.inflight.Add(-1)
		if e.gauge != nil {
			e.gauge.Set(float64(in))
		}
		e.endNs.Store(e.sinceNs())
		if err != nil {
			r.fail(err) // closes doneCh: the next iteration unwinds
			continue
		}
		r.traceTask(p.t, p.start)
		r.completeTask(p.t.ID)
	}
}

// sinceNs is the engine-relative monotonic clock (ns, clamped ≥ 1 so a
// stored value is distinguishable from "never").
func (e *sendEngine) sinceNs() int64 {
	d := time.Since(e.began).Nanoseconds() //hipress:wallclock send-window latency accounting, never serialized
	if d < 1 {
		d = 1
	}
	return d
}

// sendWallNs reports the wall-clock span from the first staged send to the
// last resolution — the round's measured communication floor.
func (e *sendEngine) sendWallNs() int64 {
	s, n := e.startNs.Load(), e.endNs.Load()
	if s == 0 || n < s {
		return 0
	}
	return n - s
}

// maxDepth reports the most transfers one lane ever held queued or
// resolving. Read at teardown, once no worker touches the table.
func (e *sendEngine) maxDepth() int {
	d := 0
	for i := range e.links {
		d = max(d, e.links[i].depth)
	}
	return d
}

// ackQueueCap bounds each row's pending-ack queue. A full queue drops the
// ack: the sender's retransmit plus the receiver's idempotent dedup re-ack
// recover it, exactly like a wire loss.
const ackQueueCap = 1024

// enqueueAck hands an outbound ack or heartbeat echo to its row's ack queue
// — the row of the link it travels, the reverse of the transfer it acks —
// never blocking the calling dispatcher (a blocked ack path could deadlock
// two full inboxes against each other). One worker per row transmits,
// started lazily here and counted in the round's WaitGroup: a dispatcher is
// itself counted there, so its Add cannot race the teardown's Wait.
func (e *sendEngine) enqueueAck(msg netsim.Message) {
	if msg.To < 0 || msg.To >= e.n {
		return // a probe from no node of this round (a foreign TCP peer's frame): no row to answer on
	}
	l := &e.links[msg.From*e.n+msg.To]
	l.mu.Lock()
	if len(l.pending) >= ackQueueCap {
		l.mu.Unlock()
		return // overload: drop, sender-side retry recovers
	}
	l.pending = append(l.pending, msg)
	start := !l.started
	if start {
		l.started = true
		if l.wake == nil {
			l.wake = make(chan struct{}, 1)
		}
	}
	l.mu.Unlock()
	if start {
		e.r.wg.Add(1)
		go e.runAcks(l)
	}
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// runAcks is one row's ack worker: swap out the pending queue, flush it,
// sleep until woken; the flushed slice, kept in the row's spare, is the next
// swap's empty queue. It exits when the round unwinds (unflushed acks are
// then moot — every deliver waiter unblocks on doneCh).
func (e *sendEngine) runAcks(l *link) {
	defer e.r.wg.Done()
	for {
		select {
		case <-e.r.doneCh:
			return
		case <-l.wake:
		}
		for {
			l.mu.Lock()
			batch := l.pending
			l.pending = l.spare[:0]
			l.mu.Unlock()
			l.spare = batch
			if len(batch) == 0 {
				break
			}
			e.flushAcks(l, batch)
		}
	}
}

// flush transmits one swap's worth of pending messages. Heartbeat echoes go
// out individually — their Step is an RTT timestamp that batching must not
// delay behind a blocked data frame's worth of acks. Plain acks coalesce
// into chunks of at most ackBatch: a chunk of one keeps the classic frame
// shape (so AckBatch ≤ 1 is byte-for-byte today's wire behavior), a larger
// chunk rides one frame whose AckBatch field carries the per-transfer keys,
// with the link sequence number in Step and the chunk size in Attempt.
func (e *sendEngine) flushAcks(l *link, msgs []netsim.Message) {
	r := e.r
	acks := l.acks[:0]
	for _, m := range msgs {
		if m.Heartbeat {
			if err := r.tr.Send(m); err != nil {
				r.noteSendError(m, err)
			}
			continue
		}
		acks = append(acks, m)
	}
	l.acks = acks
	for len(acks) > 0 {
		n := len(acks)
		if n > e.ackBatch {
			n = e.ackBatch
		}
		chunk := acks[:n]
		acks = acks[n:]
		if n == 1 {
			if err := r.tr.Send(chunk[0]); err != nil {
				r.noteSendError(chunk[0], err)
			}
			continue
		}
		// Carved, never reused: ChanTransport hands this slice itself to the
		// receiver, which reads it after Send returns.
		if len(l.refs) < n {
			l.refs = make([]netsim.AckRef, max(n, ackRefSlab))
		}
		refs := l.refs[:n:n]
		l.refs = l.refs[n:]
		for i, m := range chunk {
			refs[i] = netsim.AckRef{Gradient: m.Gradient, Step: m.Step, Attempt: m.Attempt}
		}
		l.seq++
		batched := netsim.Message{From: chunk[0].From, To: chunk[0].To, Ack: true,
			Step: l.seq, Attempt: n, AckBatch: refs}
		atomic.AddInt64(&r.rs.ackBatched, int64(n))
		if err := r.tr.Send(batched); err != nil {
			r.noteSendError(batched, err)
		}
	}
}
