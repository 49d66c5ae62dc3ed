package netsim

import (
	"errors"
	"net"
	"testing"
	"time"
)

// TestWireChaosPlanDeterminism: the fault plan is a pure function of
// (seed, link, generation) — two injectors configured identically plan
// identically, and a different seed plans differently somewhere.
func TestWireChaosPlanDeterminism(t *testing.T) {
	cfg := &WireChaosConfig{Seed: 42, CutProb: 0.5, CorruptProb: 0.5, StallProb: 0.5}
	a, b := newWireChaos(cfg), newWireChaos(cfg)
	diff := false
	other := newWireChaos(&WireChaosConfig{Seed: 43, CutProb: 0.5, CorruptProb: 0.5, StallProb: 0.5})
	for gen := uint32(1); gen <= 32; gen++ {
		l := Link{Src: int(gen % 3), Dst: int(gen % 5)}
		pa := planOf(a, l, gen)
		pb := planOf(b, l, gen)
		if pa != pb {
			t.Fatalf("gen %d: identical configs planned differently: %+v vs %+v", gen, pa, pb)
		}
		if pa != planOf(other, l, gen) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("reseeded injector planned identically across 32 generations")
	}
}

type wirePlan struct {
	cutAt, corruptAt int
	stall, oneway    bool
}

// planOf extracts the fault plan wrap would install, via a pipe-backed conn.
func planOf(w *wireChaos, l Link, gen uint32) wirePlan {
	c := w.wrap(fakeConn{}, l, gen)
	if wc, ok := c.(*wireConn); ok {
		return wirePlan{cutAt: wc.cutAt, corruptAt: wc.corruptAt, stall: wc.stallAt, oneway: wc.oneway}
	}
	return wirePlan{}
}

// fakeConn is a no-op net.Conn for plan extraction.
type fakeConn struct{}

func (fakeConn) Read(b []byte) (int, error)       { return 0, nil }
func (fakeConn) Write(b []byte) (int, error)      { return len(b), nil }
func (fakeConn) Close() error                     { return nil }
func (fakeConn) LocalAddr() net.Addr              { return nil }
func (fakeConn) RemoteAddr() net.Addr             { return nil }
func (fakeConn) SetDeadline(time.Time) error      { return nil }
func (fakeConn) SetReadDeadline(time.Time) error  { return nil }
func (fakeConn) SetWriteDeadline(time.Time) error { return nil }

// TestWireChaosCutSurfacesConnError: with every connection cut mid-frame
// and no redial budget, Send must fail with the typed *ConnError and the
// injector must account the cut.
func TestWireChaosCutSurfacesConnError(t *testing.T) {
	tr, err := NewTCPTransportOpts(2, 4, TCPOptions{
		RedialAttempts: -1, // disable redial: surface the first failure
		Chaos: &WireChaosConfig{Seed: 7, CutProb: 1,
			CutAfterMin: helloLen + 5, CutAfterMax: helloLen + 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	err = tr.Send(Message{From: 0, To: 1, Gradient: "g", Payload: make([]byte, 256)})
	if err == nil {
		t.Fatal("send over a cut wire succeeded")
	}
	var cerr *ConnError
	if !errors.As(err, &cerr) {
		t.Fatalf("expected *ConnError, got %v", err)
	}
	ws := tr.WireStats()
	if ws == nil || ws.Cuts != 1 {
		t.Fatalf("WireStats = %+v, want 1 cut", ws)
	}
	if tr.Stats().Redials != 0 {
		t.Fatalf("redials spent with RedialAttempts disabled: %+v", tr.Stats())
	}
}

// TestWireChaosRedialRecoversFromCut: with a redial budget, a mid-frame cut
// on one generation is absorbed — a later generation's connection draws a
// cut point beyond the frame and the message lands, with the resync
// counted.
func TestWireChaosRedialRecoversFromCut(t *testing.T) {
	// Seed 1 at CutProb 0.5 plans a cut for link 0→1's generation 1 and
	// none for generation 2 (fault plans are a pure function of seed, link,
	// generation — see TestWireChaosPlanDeterminism), so this passes or
	// fails deterministically, never flakes.
	tr, err := NewTCPTransportOpts(2, 4, TCPOptions{
		RedialAttempts: 6,
		Chaos: &WireChaosConfig{Seed: 1, CutProb: 0.5,
			CutAfterMin: helloLen + 5, CutAfterMax: helloLen + 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(Message{From: 0, To: 1, Gradient: "g", Step: 5, Payload: []byte{1, 2, 3}}); err != nil {
		t.Fatalf("send never recovered across redials: %v (stats %+v, wire %+v)",
			err, tr.Stats(), tr.WireStats())
	}
	got, ok := tr.Recv(1)
	if !ok || got.Step != 5 {
		t.Fatalf("delivery after cut recovery = %+v ok=%v", got, ok)
	}
	st := tr.Stats()
	ws := tr.WireStats()
	if ws.Cuts == 0 || st.Redials == 0 {
		t.Fatalf("recovery happened without any injected cut? stats %+v wire %+v", st, ws)
	}
}

// TestWireChaosOneWayPartition: writes on the partitioned direction claim
// success but never arrive; the reverse direction still works.
func TestWireChaosOneWayPartition(t *testing.T) {
	tr, err := NewTCPTransportOpts(2, 4, TCPOptions{
		Chaos: &WireChaosConfig{Seed: 3, OneWay: map[Link]bool{{Src: 0, Dst: 1}: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(Message{From: 0, To: 1, Gradient: "void"}); err != nil {
		t.Fatalf("one-way blackhole surfaced a write error: %v", err)
	}
	if err := tr.Send(Message{From: 1, To: 0, Gradient: "back"}); err != nil {
		t.Fatal(err)
	}
	if got, ok := tr.Recv(0); !ok || got.Gradient != "back" {
		t.Fatalf("reverse direction broken: %+v ok=%v", got, ok)
	}
	select {
	case m := <-tr.ch[1]:
		t.Fatalf("blackholed frame arrived: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	if ws := tr.WireStats(); ws.BlackholedWrites < 2 { // HELLO + frame
		t.Fatalf("WireStats = %+v, want >= 2 blackholed writes", ws)
	}
}

// TestWireChaosCorruptionDetected: one flipped wire byte inside the length
// prefix must be caught by frame validation, never decoded as data.
func TestWireChaosCorruptionDetected(t *testing.T) {
	tr, err := NewTCPTransportOpts(2, 4, TCPOptions{
		RedialAttempts: -1,
		Chaos: &WireChaosConfig{Seed: 5, CorruptProb: 1,
			CorruptWindow: 1}, // corrupt exactly the first byte after the HELLO: the length prefix
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Under the chaos wrapper a frame is two writes (head, then payload). The
	// receiver rejects the mangled length prefix and resets the stream as
	// soon as the head lands, so the payload write can lose that race and
	// fail; with redial disabled the failure surfaces as the typed
	// *ConnError. Both outcomes are the wire plane working.
	if err := tr.Send(Message{From: 0, To: 1, Gradient: "g", Payload: []byte{9}}); err != nil {
		var cerr *ConnError
		if !errors.As(err, &cerr) {
			t.Fatalf("send over a corrupting wire failed with %v, want success or *ConnError", err)
		}
	}
	if ws := tr.WireStats(); ws.CorruptedBytes != 1 {
		t.Fatalf("WireStats = %+v, want exactly 1 corrupted byte", ws)
	}
	// The mangled length prefix must trip validation (a tiny frame's low
	// length byte XOR 0x20 claims a length the stream does not carry).
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().CorruptFrames == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("corrupted frame never rejected: %+v", tr.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// The stream died at the rejected frame, so nothing can follow it.
	select {
	case m := <-tr.ch[1]:
		t.Fatalf("corrupted frame delivered as data: %+v", m)
	default:
	}
}

// TestWireChaosAcceptBlackout: the first accepted connection on the target
// node dies post-handshake; the dialer's redial budget rides it out.
func TestWireChaosAcceptBlackout(t *testing.T) {
	tr, err := NewTCPTransportOpts(2, 4, TCPOptions{
		RedialAttempts: 3,
		Chaos:          &WireChaosConfig{Seed: 9, AcceptBlackout: map[int]int{1: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// First Send dials into the blackout: the connection is established,
	// then closed unserviced. The write may land in kernel buffers (and be
	// RST-discarded) or fail; either way the frame is not guaranteed
	// delivered — the live plane's reliable layer re-sends. Here we just
	// need eventual delivery within the redial budget.
	deadline := time.Now().Add(10 * time.Second)
	step := 0
	for {
		if time.Now().After(deadline) {
			t.Fatalf("delivery never recovered from accept blackout: %+v", tr.Stats())
		}
		if err := tr.Send(Message{From: 0, To: 1, Gradient: "g", Step: step}); err == nil {
			if tr.Stats().AcceptDrops > 0 {
				break
			}
		}
		step++
		time.Sleep(time.Millisecond)
	}
	if ws := tr.WireStats(); ws.AcceptDrops != 1 {
		t.Fatalf("WireStats = %+v, want exactly 1 accept drop", ws)
	}
}
