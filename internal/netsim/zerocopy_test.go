package netsim

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"hipress/internal/kernels"
	"hipress/internal/telemetry"
)

// goldenFrames pins frame v2's wire bytes: each hex string is what the
// copying encoder this data path replaced produced for the message, length
// prefix included. The zero-copy path must put exactly these bytes on the
// wire.
var goldenFrames = []struct {
	msg Message
	gen uint32
	hex string
}{
	{Message{From: 1, To: 2, Gradient: "layer3.weight/p2", Step: 7 | 2<<20, Attempt: 1, Sum: 0xdeadbeef,
		Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}}, 1,
		"3a00000018712f6a020100000001000000020000000700200000000000efbeadde01000010006c61796572332e7765696768742f70320102030405060708"},
	{Message{From: 2, To: 1, Gradient: "layer3.weight/p2", Step: 7, Attempt: 4097, Ack: true}, 0xfffffffe,
		"3200000006b9f56f02feffffff020000000100000007000000000000000000000001100110006c61796572332e7765696768742f7032"},
	{Message{From: 3, To: 0, Gradient: "hb", Step: 123456789, Attempt: 12, Ack: true, Heartbeat: true}, 3,
		"24000000a08a036d0203000000030000000000000015cd5b0700000000000000000c000302006862"},
	{Message{From: 2, To: 1, Ack: true, Step: 5, Attempt: 2,
		AckBatch: []AckRef{{Gradient: "g/p0", Step: 7, Attempt: 1}, {Gradient: "", Step: -1}}}, 4,
		"40000000a1da36fd0204000000020000000100000005000000000000000000000002000500000200070000000000000001000400672f7030ffffffffffffffff00000000"},
	{Message{From: -1, To: 0, Step: -9}, 9,
		"22000000f2eda5830209000000ffffffff00000000f7ffffffffffffff000000000000000000"},
	{Message{From: 1, To: 2, Gradient: "a/p0", Step: 3, Bulk: []BulkEntry{
		{Gradient: "a/p0", Step: 3, Sum: 0x01020304, Payload: []byte{1, 2, 3}},
		{Gradient: "b", Step: -1, Sum: 0xffffffff},
		{Gradient: "c/p1", Step: 5 | 1<<20, Sum: 0xdeadbeef, Payload: []byte{9}}}}, 6,
		"6f0000000a11133e020600000001000000020000000300000000000000000000000000080400612f7030410000000300030000000000000004030201030000000400612f7030ffffffffffffffffffffffff000000000100620500100000000000efbeadde010000000400632f703101020309"},
}

// TestFrameGoldenBytes holds the wire format still: the frame head builder
// alone, and writeFrame's vectored write over a real TCP socket, both
// reproduce the golden bytes.
func TestFrameGoldenBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	tr := &TCPTransport{}
	for i, g := range goldenFrames {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeFrame(g.msg, g.gen); !bytes.Equal(got, want) {
			t.Errorf("frame %d: head+payload bytes differ from the golden frame:\n got %x\nwant %x", i, got, want)
		}
		tc := &tcpConn{c: c, gen: g.gen}
		for rep := 0; rep < 2; rep++ { // second pass reuses the connection's head buffer
			if err := tr.writeFrame(tc, g.msg); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			peer.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.ReadFull(peer, got); err != nil {
				t.Fatalf("frame %d: reading the written frame back: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("frame %d: bytes on the socket differ from the golden frame:\n got %x\nwant %x", i, got, want)
			}
		}
	}
}

// TestTCPLoopbackAllocGate is the zero-copy gate: at steady state a 1 MiB
// message crosses loopback TCP — frame build, vectored send, leased
// receive, delivery — allocating at most one object and 1.1 MiB, provided
// the receiver hands the payload buffer back; so does a bulk frame of three
// 16 KiB payloads alongside it.
func TestTCPLoopbackAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses caches under -race; alloc assertion only valid without it")
	}
	tr, err := NewTCPTransport(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	payload := bytes.Repeat([]byte{0x5a}, 1<<20)
	bulk := Message{From: 0, To: 1, Gradient: "conv1.weight/p0", Bulk: []BulkEntry{
		{Gradient: "conv1.weight/p0", Payload: payload[:16<<10]},
		{Gradient: "conv2.weight/p0", Step: 1, Payload: payload[16<<10 : 32<<10]},
		{Gradient: "conv3.weight/p0", Step: 2, Payload: payload[32<<10 : 48<<10]}}}
	pass := func() {
		if err := tr.Send(Message{From: 0, To: 1, Gradient: "fc6.weight/p0", Step: 3, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		msg, ok := tr.Recv(1)
		if !ok || len(msg.Payload) != len(payload) {
			t.Fatalf("delivery: %d bytes ok=%v", len(msg.Payload), ok)
		}
		msg.Lease.Release()
		if err := tr.Send(bulk); err != nil {
			t.Fatal(err)
		}
		if msg, ok = tr.Recv(1); !ok || len(msg.Bulk) != 3 || len(msg.Bulk[2].Payload) != 16<<10 {
			t.Fatalf("bulk delivery: %d entries ok=%v", len(msg.Bulk), ok)
		}
		msg.Lease.Release()
	}
	for i := 0; i < 16; i++ { // dial the link, fill the arena class and the name table
		pass()
	}
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / n
	kib := float64(after.TotalAlloc-before.TotalAlloc) / n / 1024
	t.Logf("per 1 MiB message and bulk frame: %.2f objects, %.1f KiB allocated", objects, kib)
	if objects > 1 || kib > 1.1*1024 {
		t.Fatalf("per 1 MiB message and bulk frame: %.2f objects and %.1f KiB allocated, want <= 1 object and <= %.0f KiB",
			objects, kib, 1.1*1024)
	}
}

// TestTCPPayloadStableWhileFramesArrive holds received payloads — never
// releasing them — while hundreds of further frames of the same size class
// arrive on the same connection, some released at once (so their buffers
// recycle into later frames) and some not. A held payload must not change:
// the transport never reuses a buffer under a live payload.
func TestTCPPayloadStableWhileFramesArrive(t *testing.T) {
	tr, err := NewTCPTransport(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const size, frames = 4096, 300
	fill := func(i int) []byte {
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i*131 + j*7)
		}
		return p
	}
	held := map[int][]byte{}
	for i := 0; i < frames; i++ {
		if err := tr.Send(Message{From: 0, To: 1, Gradient: "g", Step: i, Payload: fill(i)}); err != nil {
			t.Fatal(err)
		}
		msg, ok := tr.Recv(1)
		if !ok || msg.Step != i {
			t.Fatalf("frame %d: got %+v ok=%v", i, msg.Step, ok)
		}
		if i == 0 || i%50 == 7 {
			held[i] = msg.Payload // keep the bytes, keep the lease
			continue
		}
		if !bytes.Equal(msg.Payload, fill(i)) {
			t.Fatalf("frame %d arrived damaged", i)
		}
		msg.Lease.Release()
	}
	for i, p := range held {
		if !bytes.Equal(p, fill(i)) {
			t.Fatalf("payload of frame %d changed while %d later frames arrived", i, frames-1-i)
		}
	}
}

// TestWireChaosCorruptRedialKeepsCallerPayload drives the zero-copy send
// through the worst case for an aliasing bug: the first connection flips a
// payload byte in flight and is then cut mid-payload, so Send redials and
// retransmits straight from the caller's buffer. The retransmission must
// arrive intact and the caller's buffer must be untouched — the injector
// corrupts a copy, never the bytes being sent.
func TestWireChaosCorruptRedialKeepsCallerPayload(t *testing.T) {
	const size = 4096
	grad := "g"
	payloadOff := helloLen + 4 + frameHdrLen + len(grad)
	cutAt := payloadOff + size - 40
	// Fault plans are a pure function of (seed, link, generation): pick the
	// first seed that corrupts and cuts generation 1 inside the payload and
	// leaves generation 2 alone, so the test cannot flake.
	var cfg *WireChaosConfig
	for seed := uint64(1); seed < 10000; seed++ {
		c := &WireChaosConfig{Seed: seed, CutProb: 0.5, CorruptProb: 0.5,
			CutAfterMin: cutAt, CutAfterMax: cutAt}
		w := newWireChaos(c)
		l := Link{Src: 0, Dst: 1}
		p1, p2 := planOf(w, l, 1), planOf(w, l, 2)
		if p1.cutAt > 0 && p1.corruptAt >= payloadOff && p1.corruptAt < p1.cutAt && p2 == (wirePlan{}) {
			cfg = c
			break
		}
	}
	if cfg == nil {
		t.Fatal("no seed plans corrupt+cut on generation 1 and a clean generation 2")
	}
	tr, err := NewTCPTransportOpts(2, 4, TCPOptions{RedialAttempts: 2, Chaos: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	pristine := append([]byte(nil), payload...)
	if err := tr.Send(Message{From: 0, To: 1, Gradient: grad, Step: 9, Payload: payload}); err != nil {
		t.Fatalf("send never recovered: %v (stats %+v, wire %+v)", err, tr.Stats(), tr.WireStats())
	}
	if !bytes.Equal(payload, pristine) {
		t.Fatal("Send modified the caller's payload buffer")
	}
	got, ok := tr.Recv(1)
	if !ok || got.Step != 9 || !bytes.Equal(got.Payload, pristine) {
		t.Fatalf("retransmitted payload damaged: step %d ok=%v equal=%v", got.Step, ok, bytes.Equal(got.Payload, pristine))
	}
	got.Lease.Release()
	ws, st := tr.WireStats(), tr.Stats()
	if ws.CorruptedBytes != 1 || ws.Cuts != 1 || st.Redials != 1 {
		t.Fatalf("expected one corrupted byte, one cut, one redial; wire %+v stats %+v", ws, st)
	}
}

// TestTCPSendRejectsUnsendable: a message that overflows a frame field is
// refused by its sender with a typed, non-retryable error before a single
// byte — or even a dial — leaves, where it used to be truncated on the wire
// or to kill the receiving stream.
func TestTCPSendRejectsUnsendable(t *testing.T) {
	tr, err := NewTCPTransportOpts(2, 4, TCPOptions{MaxFrameLen: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cases := []struct {
		field string
		msg   Message
	}{
		{"gradient name length", Message{From: 0, To: 1, Gradient: strings.Repeat("x", 1<<16)}},
		{"attempt", Message{From: 0, To: 1, Gradient: "g", Attempt: 1 << 16}},
		{"attempt", Message{From: 0, To: 1, Gradient: "g", Attempt: -1}},
		{"frame length", Message{From: 0, To: 1, Gradient: "g", Payload: make([]byte, 1<<10)}},
		{"attempt", Message{From: 0, To: 1, Ack: true, AckBatch: []AckRef{{Gradient: "g", Attempt: 1 << 16}}}},
		{"frame length", Message{From: 0, To: 1, Ack: true, AckBatch: make([]AckRef, 100)}},
	}
	for _, c := range cases {
		err := tr.Send(c.msg)
		var lim *FrameLimitError
		if !errors.As(err, &lim) || lim.Field != c.field || !errors.Is(err, ErrUnsendable) {
			t.Errorf("%s overflow: Send = %v, want *FrameLimitError on that field wrapping ErrUnsendable", c.field, err)
		}
	}
	if st := tr.Stats(); st.Dials != 0 || st.Redials != 0 {
		t.Fatalf("rejected sends reached the network: %+v", st)
	}
	// The largest frame the cap admits still goes through.
	fit := Message{From: 0, To: 1, Gradient: "g", Payload: make([]byte, 1<<10-frameHdrLen-1)}
	if err := tr.Send(fit); err != nil {
		t.Fatalf("frame of exactly MaxFrameLen rejected: %v", err)
	}
	if got, ok := tr.Recv(1); !ok || len(got.Payload) != len(fit.Payload) {
		t.Fatalf("cap-sized frame not delivered: %d bytes ok=%v", len(got.Payload), ok)
	}
}

// rawPeer dials node's listener as an external peer and completes the HELLO
// for link src→node at generation gen.
func rawPeer(t *testing.T, tr *TCPTransport, src, node int, gen uint32) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", tr.Addr(node).String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(encodeHello(src, gen)); err != nil {
		t.Fatal(err)
	}
	return c
}

// waitStats polls the transport's counters until cond holds.
func waitStats(t *testing.T, tr *TCPTransport, what string, cond func(TCPStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(tr.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never observed (stats %+v)", what, tr.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPStaleFrameCounted: a frame stamped with another generation than
// its stream's HELLO is a stale *frame* — counted and exported as such, not
// under the stale-handshake family.
func TestTCPStaleFrameCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr, err := NewTCPTransportOpts(2, 4, TCPOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := rawPeer(t, tr, 0, 1, 1)
	defer c.Close()
	c.Write(encodeFrame(Message{From: 0, To: 1, Gradient: "g", Payload: []byte("from the future")}, 2))
	waitStats(t, tr, "stale frame", func(st TCPStats) bool { return st.StaleFrames == 1 })
	if got := reg.Counter(MetricTCPStaleFrames, "").Value(); got != 1 {
		t.Errorf("%s = %v, want 1", MetricTCPStaleFrames, got)
	}
	if got := reg.Counter(MetricTCPStaleConns, "").Value(); got != 0 {
		t.Errorf("%s = %v, want 0: no handshake was rejected", MetricTCPStaleConns, got)
	}
}

// TestTCPReadLoopSettlesEveryLease is the transport half of the lease
// accounting: every payload buffer the read loop checks out is either
// delivered with its message or back in the arena — on the corrupt-frame,
// misrouted-frame, stale-generation and mid-payload-disconnect paths too.
func TestTCPReadLoopSettlesEveryLease(t *testing.T) {
	before := kernels.DefaultArenaStats()
	tr, err := NewTCPTransport(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 2000)
	frame := func(to int, gen uint32) []byte {
		return encodeFrame(Message{From: 0, To: to, Gradient: "g", Payload: payload}, gen)
	}

	c := rawPeer(t, tr, 0, 1, 1)
	defer c.Close()
	bad := frame(1, 1)
	bad[len(bad)-1] ^= 0x20 // payload bit flip: frame checksum fails, buffer goes back
	c.Write(bad)
	c.Write(frame(2, 1)) // misrouted: decoded, dropped, buffer goes back
	c.Write(frame(1, 1)) // delivered
	c.Write(frame(1, 5)) // wrong generation: stream killed, buffer goes back
	waitStats(t, tr, "corrupt, misrouted and stale frames", func(st TCPStats) bool {
		return st.CorruptFrames == 1 && st.DroppedFrames == 1 && st.StaleFrames == 1
	})

	c2 := rawPeer(t, tr, 0, 2, 1)
	cut := frame(2, 1)
	c2.Write(cut[:len(cut)-100]) // dies mid-payload: the partly filled buffer goes back
	c2.Close()
	waitStats(t, tr, "fifth checkout and mid-payload disconnect", func(st TCPStats) bool {
		return kernels.DefaultArenaStats().Gets-before.Gets == 5 && st.ActiveConns == 0
	})

	got, ok := tr.Recv(1)
	if !ok || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("the one good frame was not delivered intact (ok=%v)", ok)
	}
	got.Lease.Release()
	tr.Close()
	after := kernels.DefaultArenaStats()
	gets, puts := after.Gets-before.Gets, after.Puts-before.Puts
	if gets != 5 || puts != gets {
		t.Fatalf("read loop checked out %d payload buffers (want 5) and %d came back", gets, puts)
	}
}
