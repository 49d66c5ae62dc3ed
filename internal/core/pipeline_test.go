package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"hipress/internal/netsim"
)

// This file pins the pipelined send engine's contract: windowed per-link
// sends and batched acks change when bytes move, never which bytes a round
// produces; the per-link ack workers leave nothing running after teardown;
// and the coalescing path emits exactly the frames its spec describes.

// wireChaosTCP returns the socket options the wire-chaos parity tests use:
// aggressive mid-stream cuts plus one corrupted byte per connection.
func wireChaosTCP() *netsim.TCPOptions {
	return &netsim.TCPOptions{
		RedialAttempts:  6,
		IdleReadTimeout: 40 * time.Millisecond,
		Chaos: &netsim.WireChaosConfig{
			Seed:          77,
			CutProb:       0.9,
			CutAfterMax:   600,
			CorruptProb:   1,
			CorruptWindow: 64,
		},
	}
}

// TestPipelineWindowBitIdentity is the send engine's acceptance table: for
// each strategy and algorithm, every transport arm — including real TCP and
// TCP under wire chaos — must produce per-round digests byte-identical to
// the one engine on the chan transport, and the chan and TCP arms must do
// so with bulk frames on the wire. Result bytes are a pure function of the
// plan epoch; ack batching and completion order never leak into them — nor,
// for the stochastic compressors (terngrad, graddrop), into the random
// draws: each encode's stream is keyed by (round, node, pipeline position),
// so these arms are also the schedule perturbation that would expose a draw
// taken in execution order. The wN arms set the ignored
// PipelineConfig.Window to N: no value of it may change a byte, and each
// arm runs its row once more under another schedule.
func TestPipelineWindowBitIdentity(t *testing.T) {
	const n, rounds = 3, 2
	transports := []struct {
		name   string
		mutate func(*LiveConfig)
	}{
		{"chan", func(c *LiveConfig) {}},
		{"tcp", func(c *LiveConfig) { c.Transport = "tcp" }},
		{"tcpchaos", func(c *LiveConfig) {
			c.Transport = "tcp"
			c.TCP = wireChaosTCP()
		}},
	}
	for _, strat := range []Strategy{StrategyPS, StrategyRing} {
		for _, algo := range []string{"onebit", "dgc", "terngrad", "graddrop"} {
			sizes := map[string]int{"w1": 700, "w2": 64}
			if algo == "graddrop" {
				// GradDrop samples (draws) only above 1000 elements per
				// partition; at Parts 2 the default sizes would draw nothing.
				// Not larger than needed: wireChaosTCP cuts a connection
				// within 600 bytes, and payloads much above the others'
				// get a hop convicted before they get through.
				sizes["w1"] = 2200
			}
			// Reference: the one engine on the chan transport.
			ref := tcpParityConfig()
			ref.Strategy, ref.Algo = strat, algo
			want, _ := runSizedDigests(t, ref, n, rounds, sizes)
			for _, tr := range transports {
				if strat == StrategyRing && tr.name == "tcpchaos" {
					// Not a property of the engine: on a ring each node acks
					// one neighbour only, and under this cut rate the static
					// scoreboard convicts an innocent hop (policy abort) at
					// every run.
					continue
				}
				for _, window := range []int{1, 2, 4, 8} {
					t.Run(fmt.Sprintf("%v/%s/%s/w%d", strat, algo, tr.name, window), func(t *testing.T) {
						cfg := tcpParityConfig()
						cfg.Strategy, cfg.Algo = strat, algo
						cfg.Pipeline = PipelineConfig{Window: window}
						tr.mutate(&cfg)
						got, healths := runSizedDigests(t, cfg, n, rounds, sizes)
						health := healths[len(healths)-1]
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("round %d: digest %016x != chan reference %016x (health %+v)",
									i, got[i], want[i], health)
							}
						}
						// The engine's health surface must carry evidence of the
						// send span on every configuration.
						if health.SendWallNs <= 0 {
							t.Fatalf("round reported no send-wall span: %+v", health)
						}
						if health.MaxLinkQueueDepth < 1 {
							t.Fatalf("round reported no lane occupancy: %+v", health)
						}
						// Staging outruns the wire: a node's encodes queue
						// sends behind the transfer its lane is resolving,
						// and the lane ships such a backlog to one peer as
						// one bulk frame.
						var bulk int64
						for _, h := range healths {
							bulk += h.BulkFrames
						}
						if tr.name != "tcpchaos" && bulk == 0 {
							t.Fatalf("no bulk frame formed in %d backlogged rounds", rounds)
						}
					})
				}
			}
		}
	}
}

// TestPipelineAckWorkersExitCleanly: the per-link ack workers (and the lane
// workers) registered during pipelined rounds must all be gone once the
// rounds complete — the regression test for the goroutine-per-ack path this
// plane replaced.
func TestPipelineAckWorkersExitCleanly(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := tcpParityConfig()
	_, health := runDigests(t, cfg, 3, 3)
	if health.SendWallNs <= 0 || health.MaxLinkQueueDepth < 1 {
		t.Fatalf("pipelined round missing engine health evidence: %+v", health)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after pipelined rounds: %d > %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// gatedTransport is a Transport stub whose Send records the frame, announces
// it, then blocks until released — letting a test hold an ack worker inside
// one transmission while a backlog builds behind it.
type gatedTransport struct {
	mu      sync.Mutex
	sent    []netsim.Message
	arrived chan struct{}
	proceed chan struct{}
}

func newGatedTransport() *gatedTransport {
	return &gatedTransport{arrived: make(chan struct{}), proceed: make(chan struct{})}
}

func (g *gatedTransport) Send(m netsim.Message) error {
	g.mu.Lock()
	g.sent = append(g.sent, m)
	g.mu.Unlock()
	g.arrived <- struct{}{}
	<-g.proceed
	return nil
}

func (g *gatedTransport) Recv(int) (netsim.Message, bool) { return netsim.Message{}, false }
func (g *gatedTransport) Close()                          {}

// release lets exactly one blocked Send complete and waits for the next one
// to arrive (or returns after none shows up, for the final frame).
func (g *gatedTransport) frames() []netsim.Message {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]netsim.Message, len(g.sent))
	copy(out, g.sent)
	return out
}

// TestAckPlaneCoalescesBacklog drives the ack plane of the zero
// PipelineConfig directly: with the link's worker held inside its first
// transmission, five more acks and a heartbeat echo queue behind it. On
// release the worker must flush the backlog as (heartbeat individually) +
// (one batched frame of all five keys), exactly — and account the five
// coalesced acks on the round's counter.
func TestAckPlaneCoalescesBacklog(t *testing.T) {
	gt := newGatedTransport()
	r := &liveRound{tr: gt, rs: &roundState{}, doneCh: make(chan struct{})}
	a := newSendEngine(r, 2, make([]link, 4))

	ack := func(grad string, step int) netsim.Message {
		return netsim.Message{From: 1, To: 0, Gradient: grad, Step: step, Attempt: 1, Ack: true}
	}
	a.enqueueAck(ack("g/p0", 10))
	<-gt.arrived // worker now blocked inside the first ack's Send
	for i := 1; i <= 5; i++ {
		a.enqueueAck(ack(fmt.Sprintf("g/p%d", i), 10+i))
	}
	a.enqueueAck(netsim.Message{From: 1, To: 0, Gradient: "hb", Step: 999, Heartbeat: true})
	gt.proceed <- struct{}{} // release; worker swaps the 6-deep backlog
	for i := 0; i < 2; i++ { // heartbeat, batch
		<-gt.arrived
		gt.proceed <- struct{}{}
	}

	frames := gt.frames()
	if len(frames) != 3 {
		t.Fatalf("ack plane sent %d frames, want 3: %+v", len(frames), frames)
	}
	if frames[0].Gradient != "g/p0" || len(frames[0].AckBatch) != 0 {
		t.Fatalf("first ack not a classic single frame: %+v", frames[0])
	}
	if !frames[1].Heartbeat || frames[1].Step != 999 {
		t.Fatalf("heartbeat echo not transmitted individually: %+v", frames[1])
	}
	batch := frames[2]
	if !batch.Ack || len(batch.AckBatch) != 5 || batch.Attempt != 5 || batch.Step != 1 {
		t.Fatalf("backlog did not coalesce into one 5-key frame: %+v", batch)
	}
	for i, ref := range batch.AckBatch {
		want := netsim.AckRef{Gradient: fmt.Sprintf("g/p%d", i+1), Step: 11 + i, Attempt: 1}
		if ref != want {
			t.Fatalf("batched key %d = %+v, want %+v", i, ref, want)
		}
	}
	if got := r.rs.ackBatched; got != 5 {
		t.Fatalf("ackBatched counter = %d, want 5 (only coalesced acks count)", got)
	}

	// Teardown contract: closing doneCh must stop the worker.
	close(r.doneCh)
	done := make(chan struct{})
	go func() { r.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("ack worker did not exit on doneCh")
	}
}

// TestAckPlaneDispatchRoundTrip: a batched ack frame arriving at a reliable
// sender must resolve every referenced transfer on the scoreboard — the
// receive half of the coalescing path, driven through a real pipelined
// round with a batching-friendly window so end-to-end rounds actually
// exercise it. Gated on the counter so the test fails if batching silently
// stops happening.
func TestAckPlaneDispatchRoundTrip(t *testing.T) {
	cfg := tcpParityConfig()
	// A modest bandwidth cap holds data frames on the wire long enough for
	// ack backlogs to form deterministically behind them.
	cfg.Chaos = &netsim.ChaosConfig{Seed: 3,
		Default: netsim.LinkFaults{Bandwidth: 4 << 20}}
	lc, err := NewLiveCluster(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{"w1": 30 << 10, "w2": 20 << 10, "w3": 10 << 10}
	var batched int64
	for round := 0; round < 3; round++ {
		grads, _ := makeGrads(uint64(300+round), 3, sizes)
		_, health, err := lc.SyncRoundContext(context.Background(), grads)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		batched += health.AckBatched
	}
	if batched == 0 {
		t.Fatal("no acks coalesced across 3 backlogged pipelined rounds; batching is dead")
	}
}

// buildRound builds lc's plan for a round over grads under its current epoch,
// with the constructor SyncRoundContext uses.
func buildRound(t *testing.T, lc *LiveCluster, grads []map[string][]float32) *roundPlan {
	t.Helper()
	names := make([]string, 0, len(grads[0]))
	for name := range grads[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	p, err := lc.planRound(nil, lc.Epoch(), names, grads[0])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLinkTableRows pins what one round leaves in its link table, whatever
// the ignored PipelineConfig says: staged sends queued on exactly the DAG's
// send links (Node, Peer); acks queued on exactly the reversed links of acked
// transfers, never on the diagonal; and, after teardown, every queue empty,
// no worker counted and no engine kept on any row.
func TestLinkTableRows(t *testing.T) {
	const n = 3
	// No retransmit can fire in these clean rounds, so no duplicate re-ack
	// is left queued when the round ends.
	retry := RetryPolicy{MaxAttempts: 8, BaseBackoff: 200 * time.Millisecond, MaxBackoff: time.Second}
	configs := []struct {
		name string
		cfg  LiveConfig
	}{
		{"w0", LiveConfig{Retry: retry}},
		{"w4-ackbatch4", LiveConfig{Retry: retry, Pipeline: PipelineConfig{Window: 4}}},
	}
	sizes := map[string]int{"a": 96, "b": 300}
	for _, strat := range []Strategy{StrategyPS, StrategyRing} {
		for _, c := range configs {
			t.Run(fmt.Sprintf("%v/%s", strat, c.name), func(t *testing.T) {
				cfg := c.cfg
				cfg.Strategy, cfg.Parts = strat, 2
				lc, err := NewLiveCluster(n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				grads, _ := makeGrads(9, n, sizes)
				p := buildRound(t, lc, grads)
				g := p.g
				r, _, err := lc.run(context.Background(), p, grads, nil, 0)
				if r != nil {
					defer r.release()
				}
				if err != nil {
					t.Fatal(err)
				}

				sends := map[LinkKey]bool{}
				for _, tk := range g.Tasks {
					if tk.Kind == KSend {
						sends[LinkKey{Src: tk.Node, Dst: tk.Peer}] = true
					}
				}
				for i := range r.pipe.links {
					l, key := &r.pipe.links[i], LinkKey{Src: i / n, Dst: i % n}
					wantSends := sends[key]
					if got := l.depth > 0; got != wantSends {
						t.Errorf("row %v carried sends = %v, want %v", key, got, wantSends)
					}
					wantAcks := sends[LinkKey{Src: key.Dst, Dst: key.Src}]
					if l.started != wantAcks || (key.Src == key.Dst && l.started) {
						t.Errorf("row %v carried acks = %v, want %v", key, l.started, wantAcks)
					}
					if len(l.queue) != 0 || l.workers != 0 || len(l.pending) != 0 || l.eng != nil {
						t.Errorf("row %v after teardown: %d queued, %d workers, %d acks pending, engine kept %v",
							key, len(l.queue), l.workers, len(l.pending), l.eng != nil)
					}
				}
			})
		}
	}
}

// TestHeartbeatFromUnknownNodeIgnored: a heartbeat probe naming a sender
// outside the round — a checksum-valid frame only a foreign TCP peer could
// send — is not echoed, and no ack worker starts for it.
func TestHeartbeatFromUnknownNodeIgnored(t *testing.T) {
	gt := newGatedTransport()
	r := &liveRound{tr: gt, rs: &roundState{}, doneCh: make(chan struct{})}
	r.pipe = newSendEngine(r, 2, make([]link, 4))
	for _, from := range []int{-1, 2, 1 << 20} {
		r.dispatchMsg(&nodeRT{id: 0}, &netsim.Message{From: from, To: 0, Gradient: "hb", Heartbeat: true})
	}
	for i := range r.pipe.links {
		if r.pipe.links[i].started {
			t.Fatalf("row %d started an ack worker for a probe from outside the round", i)
		}
	}
	if f := gt.frames(); len(f) != 0 {
		t.Fatalf("echoed %d probes from outside the round: %+v", len(f), f)
	}
}
