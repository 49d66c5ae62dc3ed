package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hipress/internal/netsim"
)

// This file pins bulk synchronization on the live plane: which queued sends a
// lane ships as one frame, and how the transfers of a bulk frame settle when
// its ack comes late.

// TestLaneBulkRule drives take over one link's lane, a queue of payload
// sizes: batches keep FIFO order, stay within bulkBytes, leave an oversized
// payload alone, and a batch of one goes out as its own classic frame,
// unchanged.
func TestLaneBulkRule(t *testing.T) {
	queue := []int{
		100, 200, 10, 40000, // one bulk frame
		30000,              // would pass bulkBytes with the four before: starts a batch
		bulkBytes + 1,      // oversized: alone
		10, bulkBytes - 10, // exactly bulkBytes together
		5, // a lone queued send: its classic frame
	}
	want := [][]int{{0, 1, 2, 3}, {4}, {5}, {6, 7}, {8}}
	var l link
	for id, size := range queue {
		l.queue = append(l.queue, pendingSend{t: &Task{ID: id}, msg: netsim.Message{From: 0, To: 1,
			Gradient: fmt.Sprintf("g%d/p0", id), Step: id, Sum: uint32(id), Payload: make([]byte, size)}})
	}
	msgs := make([]netsim.Message, len(queue))
	for i := range l.queue {
		msgs[i] = l.queue[i].msg
	}
	for b, ids := range want {
		batch, frame := l.take(math.MaxInt)
		got := make([]int, len(batch))
		size := 0
		for i := range batch {
			got[i] = batch[i].t.ID
			size += len(batch[i].msg.Payload)
		}
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("batch %d took sends %v, want %v", b, got, ids)
		}
		if len(batch) > 1 && size > bulkBytes {
			t.Fatalf("batch %d carries %d payload bytes, more than %d", b, size, bulkBytes)
		}
		if len(batch) == 1 {
			if !reflect.DeepEqual(frame, msgs[ids[0]]) {
				t.Fatalf("batch %d of one went out as %+v, want its classic frame %+v", b, frame, msgs[ids[0]])
			}
			continue
		}
		if frame.To != msgs[ids[0]].To || frame.Gradient != msgs[ids[0]].Gradient || frame.Step != msgs[ids[0]].Step ||
			len(frame.Payload) != 0 || len(frame.Bulk) != len(ids) {
			t.Fatalf("batch %d went out as %+v, want a bulk frame of %d entries named by its head", b, frame, len(ids))
		}
		for i, id := range ids {
			if e := frame.Bulk[i]; e.Gradient != msgs[id].Gradient || e.Step != id || e.Sum != uint32(id) ||
				len(e.Payload) != len(msgs[id].Payload) {
				t.Fatalf("batch %d entry %d = %+v, want send %d's transfer", b, i, e, id)
			}
		}
	}
	if len(l.queue) != 0 || l.head != 0 {
		t.Fatalf("lane left %d queued from head %d", len(l.queue)-l.head, l.head)
	}

	// A frame cap: a batch stops where its bulk frame would pass the cap,
	// and a send that no bulk frame under the cap can carry goes alone.
	var c link
	for id, size := range []int{1000, 1000, 1000, 1000, 3000, 10} {
		c.queue = append(c.queue, pendingSend{t: &Task{ID: id}, msg: netsim.Message{From: 0, To: 1,
			Gradient: "g/p0", Payload: make([]byte, size)}})
	}
	frameCap := netsim.BulkFrameLen("g/p0", 2, 8, 2000)
	for b, want := range []int{2, 2, 1, 1} {
		if batch, frame := c.take(frameCap); len(batch) != want || len(batch) > 1 && len(frame.Bulk) != want {
			t.Fatalf("capped batch %d took %d sends (frame of %d entries), want %d", b, len(batch), len(frame.Bulk), want)
		}
	}
}

// TestBulkFrameCap: a TCP MaxFrameLen below what a lane's backlog would
// fill keeps rounds working — no bulk frame passes the cap, so none is
// refused — with digests equal to the uncapped run's, which does form bulk
// frames from the same backlog. The cap holds for ack frames too: an ack
// backlog past one frame's worth leaves over TCP in as many coalesced frames
// as the cap needs, none refused, together acking every transfer.
func TestBulkFrameCap(t *testing.T) {
	const n, rounds = 3, 2
	sizes := map[string]int{"a": 600, "b": 600, "c": 600, "d": 600}
	cfg := tcpParityConfig()
	cfg.Algo, cfg.ErrorFeedback, cfg.Transport = "", false, "tcp"
	want, healths := runSizedDigests(t, cfg, n, rounds, sizes)
	var bulk int64
	for _, h := range healths {
		bulk += h.BulkFrames
	}
	if bulk == 0 {
		t.Fatal("the uncapped rounds formed no bulk frame: the cap below would test nothing")
	}
	// A 1,200-byte partition fits a classic frame; two do not fit one frame.
	cfg.TCP = &netsim.TCPOptions{MaxFrameLen: 2000}
	got, healths := runSizedDigests(t, cfg, n, rounds, sizes)
	for i := range want {
		if got[i] != want[i] || healths[i].BulkFrames != 0 {
			t.Fatalf("round %d: digest %016x (uncapped %016x), %d bulk frames under the cap",
				i, got[i], want[i], healths[i].BulkFrames)
		}
	}

	// The ack plane under the same cap: node 1's ack worker is held inside its
	// first transmission while the acks of 399 more transfers queue behind it.
	tcp, err := netsim.NewTCPTransportOpts(2, 512, *cfg.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	const acks = 400
	ht, held, release := &hookTransport{next: tcp}, make(chan struct{}), make(chan struct{})
	ht.hook = func(netsim.Message) {
		if len(ht.sent) == 1 {
			close(held)
			<-release
		}
	}
	r := &liveRound{tr: ht, rs: &roundState{}, doneCh: make(chan struct{})}
	e := newSendEngine(r, 2, make([]link, 4))
	e.frameCap = tcp.MaxFrameLen()
	go func() { <-r.doneCh; tcp.Close() }() // a refused frame fails the round: end the receive loop below
	for i := 0; i < acks; i++ {
		e.enqueueAck(netsim.Message{From: 1, To: 0, Gradient: fmt.Sprintf("layer%03d/p0", i), Step: i, Ack: true})
		if i == 0 {
			<-held
		}
	}
	close(release)
	acked := map[int]bool{}
	for len(acked) < acks {
		m, ok := tcp.Recv(0)
		if !ok {
			t.Fatalf("transport closed with %d of %d transfers acked: %v", len(acked), acks, r.runErr)
		}
		if len(m.AckBatch) == 0 {
			m.AckBatch = []netsim.AckRef{{Gradient: m.Gradient, Step: m.Step}}
		}
		for _, ref := range m.AckBatch {
			if ref.Gradient != fmt.Sprintf("layer%03d/p0", ref.Step) || acked[ref.Step] {
				t.Fatalf("ack ref %+v names no transfer, or one acked before", ref)
			}
			acked[ref.Step] = true
		}
	}
	r.finish()
	r.wg.Wait()
	batched := 0
	for _, m := range ht.sent[1:] {
		names := 0
		for _, ref := range m.AckBatch {
			names += len(ref.Gradient)
		}
		if n := netsim.AckFrameLen(m.Gradient, len(m.AckBatch), names); len(m.AckBatch) < 2 || n > cfg.TCP.MaxFrameLen {
			t.Fatalf("backlog frame of %d refs, %d bytes: want coalesced frames within the %d-byte cap", len(m.AckBatch), n, cfg.TCP.MaxFrameLen)
		}
		batched++
	}
	if r.runErr != nil || batched < 2 || r.rs.ackBatched != acks-1 {
		t.Fatalf("round error %v, %d coalesced frames acking %d: want none, ≥ 2 frames acking the %d queued",
			r.runErr, batched, r.rs.ackBatched, acks-1)
	}
}

// bulkLink returns a reliable round over a built two-node PS graph whose link
// 0→1 carries at least three transfers, and those transfers as one lane
// batch, each staged with a payload and armed at its recv task.
func bulkLink(t *testing.T, tr netsim.Transport) (*liveRound, []pendingSend) {
	t.Helper()
	const n = 2
	g, lay := NewGraph(), newRoundLayout(4)
	for _, name := range []string{"a", "b", "c", "d"} {
		if _, err := BuildPS(g, topoFor(StrategyPS, n), lay.add(name, 96, 1, "")); err != nil {
			t.Fatal(err)
		}
	}
	recvIdx, err := indexRecvs(g)
	if err != nil {
		t.Fatal(err)
	}
	r := &liveRound{roundPlan: &roundPlan{g: g, recvIdx: recvIdx, xfer: make([]transfer, len(g.Tasks))},
		lc: &LiveCluster{}, rs: newRoundState(n), tr: tr, doneCh: make(chan struct{}),
		hp: newHealthPlane(n, nil, RetryPolicy{MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond,
			MaxBackoff: 5 * time.Millisecond}.withDefaults(), false, nil)}
	var batch []pendingSend
	for _, tk := range g.Tasks {
		if tk.Kind != KSend || tk.Node != 0 || tk.Peer != 1 {
			continue
		}
		msg := netsim.Message{From: 0, To: 1, Gradient: tk.Grad, Step: packStep(tk.Step, tk.Part), Payload: []byte(tk.Grad)}
		x := &r.xfer[recvIdx[wireKey{tk.Grad, msg.Step, 1, 0}]]
		batch = append(batch, pendingSend{t: tk, msg: msg, x: x})
	}
	if len(batch) < 3 {
		t.Fatalf("link 0→1 carries %d transfers, want ≥ 3", len(batch))
	}
	return r, batch[:3]
}

// hookTransport records every frame sent and hands it to hook, on the
// sender's goroutine, before Send returns — and then to next, when set,
// returning what its Send does.
type hookTransport struct {
	mu   sync.Mutex
	sent []netsim.Message
	hook func(netsim.Message)
	next netsim.Transport
}

func (h *hookTransport) Send(m netsim.Message) error {
	h.mu.Lock()
	h.sent = append(h.sent, m)
	h.mu.Unlock()
	if h.hook != nil {
		h.hook(m)
	}
	if h.next != nil {
		return h.next.Send(m)
	}
	return nil
}

func (h *hookTransport) Recv(int) (netsim.Message, bool) { return netsim.Message{}, false }
func (h *hookTransport) Close()                          {}

// TestBulkLateAckSettlesBatchMates: a bulk frame's ack that lands after the
// frame's deadline settles the transfers it names — they are not resent —
// without ending the wait of the batch-mate being retried alone, and each
// transfer is credited once on the scoreboard however many acks name it.
func TestBulkLateAckSettlesBatchMates(t *testing.T) {
	lateAck := func(r *liveRound, batch []pendingSend) {
		late := netsim.Message{From: 1, To: 0, Ack: true, AckBatch: []netsim.AckRef{
			{Gradient: batch[1].msg.Gradient, Step: batch[1].msg.Step},
			{Gradient: batch[2].msg.Gradient, Step: batch[2].msg.Step}}}
		r.dispatchMsg(&nodeRT{id: 0}, &late)
	}
	// run delivers bulkLink's batch of three through hook and checks the
	// frames sent (the bulk frame, then the head transfer alone at each
	// attempt in retried), the retry count and the scoreboard.
	run := func(t *testing.T, hook func(r *liveRound, batch []pendingSend, m netsim.Message), retried ...int) {
		t.Helper()
		ht := &hookTransport{}
		r, batch := bulkLink(t, ht)
		w := &laneWaiter{timer: time.NewTimer(time.Hour), ack: make(chan struct{}, 1)}
		defer w.timer.Stop()
		ht.hook = func(m netsim.Message) { hook(r, batch, m) }
		l := link{queue: batch}
		batch, frame := l.take(math.MaxInt)
		if err := r.deliver(batch, frame, w); err != nil {
			t.Fatal(err)
		}
		ok := len(ht.sent) == 1+len(retried) && len(ht.sent[0].Bulk) == 3 && ht.sent[0].Attempt == 0
		for i, attempt := range retried {
			m := ht.sent[min(1+i, len(ht.sent)-1)]
			ok = ok && m.Gradient == batch[0].msg.Gradient && m.Attempt == attempt && len(m.Bulk) == 0
		}
		if !ok {
			t.Fatalf("sent %+v, want the bulk frame and then the head transfer alone at attempts %v, nothing more",
				ht.sent, retried)
		}
		if r.rs.retries != int64(len(retried)) || r.rs.succ[0] != 3 || r.rs.succ[1] != 3 || len(w.ack) != 0 {
			t.Fatalf("%d retries, scoreboard %v, %d tokens left: want %d retries, each transfer credited once, none",
				r.rs.retries, r.rs.succ, len(w.ack), len(retried))
		}
	}

	// deliver sends the bulk frame and waits out its deadline; while the
	// head's retry is on the wire the late bulk ack settles the other two,
	// then the head's own ack lands. A duplicate of the late ack credits
	// nothing.
	t.Run("deliver", func(t *testing.T) {
		run(t, func(r *liveRound, batch []pendingSend, m netsim.Message) {
			if len(m.Bulk) == 0 && m.Attempt == 1 {
				lateAck(r, batch)
				r.rs.settle(batch[0].x, 0, 1)
				lateAck(r, batch)
			}
		}, 1)
	})

	// The late bulk ack lands while the head's retry waits, and the head's
	// own ack does not: that ack ends no wait of the head, which is retried
	// again at the next deadline, where its ack lands.
	t.Run("batch-mate", func(t *testing.T) {
		run(t, func(r *liveRound, batch []pendingSend, m netsim.Message) {
			switch {
			case len(m.Bulk) == 0 && m.Attempt == 1:
				go lateAck(r, batch) // lands during the wait
			case len(m.Bulk) == 0 && m.Attempt == 2:
				r.rs.settle(batch[0].x, 0, 1)
			}
		}, 1, 2)
	})

	// A bulk ack that settles part of the frame in time: the wait runs on to
	// the deadline, and only the rest is retried alone.
	t.Run("partial", func(t *testing.T) {
		ht := &hookTransport{}
		r, batch := bulkLink(t, ht)
		w := &laneWaiter{timer: time.NewTimer(time.Hour), ack: make(chan struct{}, 1)}
		defer w.timer.Stop()
		ht.hook = func(m netsim.Message) {
			for i := range batch {
				if len(m.Bulk) > 0 && i == 1 || len(m.Bulk) == 0 && m.Gradient == batch[i].msg.Gradient {
					r.rs.settle(batch[i].x, 0, 1)
				}
			}
		}
		l := link{queue: batch}
		batch, frame := l.take(math.MaxInt)
		if err := r.deliver(batch, frame, w); err != nil {
			t.Fatal(err)
		}
		if len(ht.sent) != 3 || ht.sent[1].Gradient != batch[0].msg.Gradient || ht.sent[2].Gradient != batch[2].msg.Gradient {
			t.Fatalf("sent %+v, want the bulk frame, then transfers 0 and 2 alone", ht.sent)
		}
		if r.rs.retries != 2 || r.rs.succ[0] != 3 || r.rs.succ[1] != 3 {
			t.Fatalf("%d retries, scoreboard %v: want 2 retries, each transfer credited once", r.rs.retries, r.rs.succ)
		}
	})

	// Settlers race a worker cycling through batches of three on one channel,
	// settling the current batch's transfers and the batch before's (late
	// acks) over and over. The worker waits on the bulk frame a few spins,
	// then on each unsettled transfer alone, as deliver does: a token counts
	// only once the transfer it waits for has settled. Whenever it finds one
	// settled, that transfer has been credited; after every batch the channel
	// is empty; no transfer is credited twice.
	t.Run("concurrent", func(t *testing.T) {
		const batches, settlers = 200, 3
		rs := newRoundState(3*batches + 1)
		x := make([]transfer, 3*batches)
		ch := make(chan struct{}, 1)
		credited := func(i int) int {
			rs.mu.Lock()
			defer rs.mu.Unlock()
			return rs.succ[i+1]
		}
		var cur atomic.Int64
		done := make(chan struct{})
		var wg sync.WaitGroup
		for s := 0; s < settlers; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := s; ; k++ {
					select {
					case <-done:
						return
					default:
					}
					b := int(cur.Load())
					j := max(3*b-3+k%6, 0)
					rs.settle(&x[j], 0, j+1)
					runtime.Gosched()
				}
			}()
		}
		// wait spins on ch until batch has settled, reporting whether it has.
		wait := func(batch []pendingSend, spins int) bool {
			for ; spins > 0; spins-- {
				select {
				case <-ch:
					if rs.settled(batch) {
						return true
					}
				default:
					runtime.Gosched()
				}
			}
			return rs.settled(batch)
		}
		for b := 0; b < batches; b++ {
			cur.Store(int64(b))
			batch := []pendingSend{{x: &x[3*b]}, {x: &x[3*b+1]}, {x: &x[3*b+2]}}
			for i := range batch {
				rs.arm(batch[i].x, ch)
			}
			if !wait(batch, 30) {
				for i := range batch {
					if rs.settled(batch[i : i+1]) {
						continue
					}
					if wait(batch[i:i+1], 100) && credited(3*b+i) != 1 {
						t.Errorf("transfer %d settled its lone wait with %d credits", 3*b+i, credited(3*b+i))
					}
				}
			}
			for i := range batch {
				rs.disarm(batch[i].x, ch)
			}
			if len(ch) != 0 {
				t.Fatalf("batch %d left a token for the next", b)
			}
		}
		close(done)
		wg.Wait()
		total := 0
		for i := range x {
			if c := credited(i); c > 1 {
				t.Fatalf("transfer %d credited %d times", i, c)
			}
			total += credited(i)
		}
		if rs.succ[0] != total {
			t.Fatalf("sender credited %d, transfers %d", rs.succ[0], total)
		}
		t.Logf("%d of %d transfers credited", total, len(x))
	})
}
