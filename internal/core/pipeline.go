package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hipress/internal/netsim"
	"hipress/internal/telemetry"
)

// This file is the live plane's pipelined send engine. Its lanes are the
// paper's communication queue (Q_commu), split per destination: every
// directed link a→b has its own lane. It splits every send in two halves:
//
//   stage   — reference the payload bytes (encode output, forwarded frame,
//             or the raw accumulator itself) on the goroutine that completed
//             the send's last dependency, and queue it on its link's lane;
//   resolve — transmit and wait for acknowledgement on a lane worker, with
//             up to sendWindow batches of the link in flight at once, a batch
//             being the lane's backlog in one frame.
//
// Bit-identity needs no copy at staging: a payload is final once its send's
// dependencies clear (live.go, merge), however long it then waits, and the
// ordered barrier merge on the receive side makes result bytes independent of
// completion order; resolution is the one delivery loop of every lane.
//
// What a round sends from a to b — staged transfers and acks — queues in row
// (a, b) of one link table. Every staged payload lives in the round lease or
// in the caller's gradients, and the lease is released only after every
// goroutine of the round has left the round's one WaitGroup.

// sendWindow is how many batches of one directed link may await their acks
// at once. Lanes per link, at any window, run a raw 4-node PS round over
// 8 MB/s links 2.9× as often as one lane per node; 4 slots over 1 keep a few
// percent on loopback TCP (DESIGN.md, "Window protocol").
const sendWindow = 4

// PipelineConfig is ignored, every field of it: a link's lane always runs
// sendWindow batches (Window), its acks always coalesce up to the frame cap
// (AckBatch, see flushAcks), and staging always runs ahead of the window,
// copying nothing (OverlapEncode). The type stays only because bench/ names
// it — ROADMAP Benchmark v2 (e) deletes it.
type PipelineConfig struct {
	Window        int
	AckBatch      int
	OverlapEncode bool
}

// pendingSend is one staged transfer queued on a lane: the graph task, the
// wire message, when staging began, and its transfer entry.
type pendingSend struct {
	t     *Task
	msg   netsim.Message
	start float64
	x     *transfer
}

// bulkBytes bounds the payloads one bulk frame carries (link.take): about a
// loopback round trip at the stream rate (DESIGN.md, "Bulk rule").
const bulkBytes = 64 << 10

// slab carves disjoint runs from one array, none twice in a round (a transport
// may hand a run itself to the receiver), reused once release clears it; a run
// that does not fit starts a fresh array twice the size.
type slab[T any] struct {
	buf []T
	off int
}

func (s *slab[T]) carve(n int) []T {
	if s.off+n > len(s.buf) {
		s.buf, s.off = make([]T, max(2*len(s.buf), n, 16)), 0
	}
	run := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	return run
}

// release drops what the runs reference and reclaims the array.
func (s *slab[T]) release() {
	clear(s.buf[:s.off])
	s.off = 0
}

// link is one row of a round's link table: everything the round sends from
// src to dst. The table belongs to the round plan and is reset as a round
// takes it. Its send lane (queue to entries) is guarded by the engine mutex,
// its ack queue (pending, started, wake) by the row's own mu. seq, acks,
// spare and refs are the ack worker's own: the sequence number stamped into
// batched frames so chaos fault rolls stay fresh, flushAcks' scratch, the
// pending double buffer's other half and a ref slab; bulkAcks, where src's
// dispatcher gathers a bulk frame's acks, is its own. drainFn and ackFn start
// workers on eng, the round's engine. waiters, guarded by the engine mutex,
// is the lane's free list of ack waiters: one per worker it ever ran at once,
// so at most sendWindow, each put back with its channel empty.
type link struct {
	queue   []pendingSend // queue[head:] waits; both reset when it empties
	head    int
	workers int          // goroutines currently resolving this lane, ≤ sendWindow
	depth   int          // high-water mark of queued + resolving
	wire    atomic.Int64 // payload bytes sent and not yet acked, counted when autotuned (attempt)
	sends   slab[pendingSend]
	entries slab[netsim.BulkEntry]

	mu      sync.Mutex
	pending []netsim.Message
	started bool
	wake    chan struct{}
	seq     int
	acks    []netsim.Message
	spare   []netsim.Message
	refs    slab[netsim.AckRef]

	bulkAcks       []netsim.Message
	waiters        []*laneWaiter
	eng            *sendEngine
	drainFn, ackFn func()
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

// take pops the non-empty lane's next batch — its head and each following
// send (to the same peer: a lane is one link's) while their payloads stay
// within bulkBytes, the count within a frame's u16 and the bulk frame within
// frameCap — and the frame its first attempt transmits (a bulk frame for two
// or more). The caller holds the engine mutex.
func (l *link) take(frameCap int) ([]pendingSend, netsim.Message) {
	q := l.queue[l.head:]
	k, size, names := 1, len(q[0].msg.Payload), len(q[0].msg.Gradient)
	for ; k < len(q) && k < 1<<16-1; k++ {
		m := &q[k].msg
		if size+len(m.Payload) > bulkBytes ||
			netsim.BulkFrameLen(q[0].msg.Gradient, k+1, names+len(m.Gradient), size+len(m.Payload)) > frameCap {
			break
		}
		size, names = size+len(m.Payload), names+len(m.Gradient)
	}
	batch, msg := l.sends.carve(k), q[0].msg
	copy(batch, q[:k])
	clear(q[:k])
	if l.head += k; l.head == len(l.queue) {
		l.queue, l.head = l.queue[:0], 0
	}
	if k > 1 {
		entries := l.entries.carve(k)
		for i := range batch {
			entries[i] = batch[i].msg.Entry()
		}
		msg = netsim.Message{From: msg.From, To: msg.To, Gradient: msg.Gradient, Step: msg.Step, Bulk: entries}
	}
	return batch, msg
}

// laneWaiter is what a lane worker waits for acks with: one timer and one
// one-slot ack rendezvous channel, kept on its lane's free list (link.waiter).
type laneWaiter struct {
	timer *time.Timer
	ack   chan struct{}
}

// waiter takes a waiter off the lane's free list, building one when it is
// empty. The caller holds the engine mutex and hands the waiter back there
// with its channel empty (deliver disarms on every return).
func (l *link) waiter() (w *laneWaiter) {
	if k := len(l.waiters) - 1; k >= 0 {
		w, l.waiters = l.waiters[k], l.waiters[:k]
		return w
	}
	w = &laneWaiter{timer: time.NewTimer(time.Hour), ack: make(chan struct{}, 1)}
	w.timer.Stop()
	return w
}

// sendEngine runs one round on its plan's link table and is the only route
// from a ready send task to the wire: staged when its dependencies clear,
// queued on row (Node, Peer), resolved inside that row's window. No live
// DAG sends to itself, so the diagonal rows stay empty.
type sendEngine struct {
	r        *liveRound
	n        int
	frameCap int // the longest frame the transport carries (link.take, flushAcks)

	mu    sync.Mutex // guards every row's send lane
	links []link     // by src·n+dst

	inflight atomic.Int64 // transfers currently resolving, across all lanes
	startNs  atomic.Int64 // engine-relative ns of the first staged send
	endNs    atomic.Int64 // engine-relative ns of the last resolution
	began    time.Time

	gauge *telemetry.Gauge
}

// newSendEngine starts the engine of round r over links, an n·n link table
// whose rows are empty; frames of any length fit until frameCap is set.
func newSendEngine(r *liveRound, n int, links []link) *sendEngine {
	e := &sendEngine{
		r:        r,
		n:        n,
		frameCap: math.MaxInt,
		links:    links,
		began:    time.Now(), //hipress:wallclock engine-relative monotonic base for ack latencies
	}
	for i := range links {
		l := &links[i]
		l.eng = e
		if l.drainFn == nil {
			l.drainFn = func() { l.eng.drain(l) }
			l.ackFn = func() { l.eng.runAcks(l) }
		}
	}
	if r.met != nil {
		e.gauge = r.met.Gauge(MetricLiveInflight,
			"transfers currently in flight across all live send lanes")
	}
	return e
}

// submit stages a ready send task on the calling goroutine (liveRound.route)
// and queues it on its link's lane, starting a lane worker when the window
// has a free slot.
func (e *sendEngine) submit(t *Task) error {
	r := e.r
	start := r.trc.Now()
	msg, err := r.stageSend(&r.nodes[t.Node], t)
	if err != nil {
		return err
	}
	p := pendingSend{t: t, msg: msg, start: start,
		x: &r.xfer[r.recvIdx[wireKey{t.Grad, msg.Step, msg.To, msg.From}]]}
	l := &e.links[t.Node*e.n+t.Peer]
	e.startNs.CompareAndSwap(0, e.sinceNs())
	e.mu.Lock()
	l.queue = append(l.queue, p)
	waiting := len(l.queue) - l.head
	l.depth = max(l.depth, waiting+l.workers)
	for idle := waiting; idle > 0 && l.workers < sendWindow; idle-- {
		l.workers++
		r.wg.Add(1)
		go l.drainFn()
	}
	e.mu.Unlock()
	return nil
}

// drain is one window slot's worker: it resolves staged transfers in lane
// FIFO order, a batch at a time (link.take), and exits when the lane empties
// or the round unwinds. Workers per lane never exceed sendWindow, so at most
// sendWindow batches of one link are between transmit and ack at any moment.
func (e *sendEngine) drain(l *link) {
	defer e.r.wg.Done()
	r := e.r
	var w *laneWaiter // this worker's ack waiter, reused for every transfer it resolves
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
			if w != nil {
				l.waiters = append(l.waiters, w)
			}
			e.mu.Unlock()
			return
		}
		if w == nil {
			w = l.waiter()
		}
		batch, msg := l.take(e.frameCap)
		e.mu.Unlock()
		if len(msg.Bulk) > 0 {
			atomic.AddInt64(&r.rs.h.BulkFrames, 1)
		}

		in := e.inflight.Add(int64(len(batch)))
		if e.gauge != nil {
			e.gauge.Set(float64(in))
		}
		err := r.deliver(batch, msg, w)
		in = e.inflight.Add(-int64(len(batch)))
		if e.gauge != nil {
			e.gauge.Set(float64(in))
		}
		e.endNs.Store(e.sinceNs())
		if err != nil {
			r.fail(err) // closes doneCh: the next iteration unwinds
			continue
		}
		for i := range batch {
			r.traceTask(batch[i].t, batch[i].start)
			r.completeTask(batch[i].t.ID)
		}
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

// enqueueAck hands outbound acks of one link (a bulk frame's all at once) or
// a heartbeat echo to its row's ack queue — the row of the link they travel,
// the reverse of the transfers they ack — never blocking the calling
// dispatcher (a blocked ack path could deadlock two full inboxes against each
// other). One worker per row transmits, started lazily here and counted in
// the round's WaitGroup: a dispatcher is itself counted there, so its Add
// cannot race the teardown's Wait.
func (e *sendEngine) enqueueAck(msgs ...netsim.Message) {
	if len(msgs) == 0 || msgs[0].To < 0 || msgs[0].To >= e.n {
		return // a probe from no node of this round (a foreign TCP peer's frame): no row to answer on
	}
	l := &e.links[msgs[0].From*e.n+msgs[0].To]
	l.mu.Lock()
	room := ackQueueCap - len(l.pending)
	if room <= 0 {
		l.mu.Unlock()
		return // overload: drop, sender-side retry recovers
	}
	l.pending = append(l.pending, msgs[:min(len(msgs), room)]...)
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
		go l.ackFn()
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

// flushAcks transmits one swap's worth of pending messages. Heartbeat echoes
// go out individually — their Step is an RTT timestamp that batching must not
// delay behind a blocked data frame's worth of acks. Plain acks coalesce, a
// frame's worth at a time: each frame takes refs until the next would push
// it past frameCap. A frame of one keeps the classic ack shape; a larger one
// carries the per-transfer keys in its AckBatch field, with the link
// sequence number in Step and the count in Attempt. An idle link still acks
// at once — frames only grow under backlog, so single-transfer RTT evidence
// is undistorted.
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
		n, names := 1, len(acks[0].Gradient)
		for ; n < len(acks) && netsim.AckFrameLen("", n+1, names+len(acks[n].Gradient)) <= e.frameCap; n++ {
			names += len(acks[n].Gradient)
		}
		chunk := acks[:n]
		acks = acks[n:]
		if n == 1 {
			if err := r.tr.Send(chunk[0]); err != nil {
				r.noteSendError(chunk[0], err)
			}
			continue
		}
		refs := l.refs.carve(n)
		for i, m := range chunk {
			refs[i] = netsim.AckRef{Gradient: m.Gradient, Step: m.Step, Attempt: m.Attempt}
		}
		l.seq++
		batched := netsim.Message{From: chunk[0].From, To: chunk[0].To, Ack: true,
			Step: l.seq, Attempt: n, AckBatch: refs}
		atomic.AddInt64(&r.rs.h.AckBatched, int64(n))
		if err := r.tr.Send(batched); err != nil {
			r.noteSendError(batched, err)
		}
	}
}

// close, after teardown, clears what each row holds of the round — its engine
// and what its slabs reference — so the cached plan keeps no round alive.
func (e *sendEngine) close() {
	for i := range e.links {
		l := &e.links[i]
		l.eng = nil
		l.sends.release()
		l.entries.release()
		l.refs.release()
		clear(l.bulkAcks[:cap(l.bulkAcks)])
	}
}
