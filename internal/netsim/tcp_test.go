package netsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// encodeFrame renders msg's whole frame — length prefix, head, payloads — as
// the contiguous bytes writeFrame's vectored write puts on the wire.
func encodeFrame(msg Message, gen uint32) []byte {
	head, payload := appendFrameHead(nil, msg, gen)
	frame := append(head, payload...)
	for _, e := range msg.Bulk {
		frame = append(frame, e.Payload...)
	}
	return frame
}

// decodeFrame runs one whole frame body (no length prefix) through the read
// loop's split decoder, exactly as it would come off a socket.
func decodeFrame(body []byte) (Message, uint32, error) {
	wire := append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
	fr := frameReader{r: bytes.NewReader(wire), maxLen: defaultMaxFrameLen}
	return fr.next()
}

func TestTCPTransportRoundTrip(t *testing.T) {
	tr, err := NewTCPTransport(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Nodes() != 3 {
		t.Fatalf("Nodes = %d", tr.Nodes())
	}
	want := Message{From: 0, To: 2, Gradient: "layer7/p3", Step: 42, Payload: []byte{9, 8, 7, 6}}
	if err := tr.Send(want); err != nil {
		t.Fatal(err)
	}
	got, ok := tr.Recv(2)
	if !ok {
		t.Fatal("Recv returned !ok")
	}
	if got.From != 0 || got.To != 2 || got.Gradient != want.Gradient || got.Step != 42 ||
		string(got.Payload) != string(want.Payload) {
		t.Fatalf("Recv = %+v", got)
	}
}

func TestTCPTransportEmptyPayloadAndGradient(t *testing.T) {
	tr, err := NewTCPTransport(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(Message{From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	got, ok := tr.Recv(1)
	if !ok || got.Gradient != "" || len(got.Payload) != 0 {
		t.Fatalf("empty message mangled: %+v ok=%v", got, ok)
	}
}

func TestTCPTransportFIFOPerPair(t *testing.T) {
	tr, err := NewTCPTransport(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 32; i++ {
		if err := tr.Send(Message{From: 0, To: 1, Step: i, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		m, ok := tr.Recv(1)
		if !ok || m.Step != i {
			t.Fatalf("out of order at %d: %+v ok=%v", i, m, ok)
		}
	}
}

func TestTCPTransportConcurrentMesh(t *testing.T) {
	const n, per = 4, 25
	tr, err := NewTCPTransport(n, n*per)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var wg sync.WaitGroup
	for src := 0; src < n; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				for dst := 0; dst < n; dst++ {
					msg := Message{From: src, To: dst, Gradient: fmt.Sprintf("g%d", src), Step: k,
						Payload: []byte{byte(src), byte(k)}}
					if err := tr.Send(msg); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}
		}(src)
	}
	counts := make([]int, n)
	var rg sync.WaitGroup
	for node := 0; node < n; node++ {
		rg.Add(1)
		go func(node int) {
			defer rg.Done()
			for i := 0; i < n*per; i++ {
				m, ok := tr.Recv(node)
				if !ok {
					t.Errorf("node %d closed early", node)
					return
				}
				if m.To != node {
					t.Errorf("node %d got message for %d", node, m.To)
					return
				}
				counts[node]++
			}
		}(node)
	}
	wg.Wait()
	rg.Wait()
	for node, c := range counts {
		if c != n*per {
			t.Fatalf("node %d got %d messages, want %d", node, c, n*per)
		}
	}
}

func TestTCPTransportInvalidAddressAndClose(t *testing.T) {
	tr, err := NewTCPTransport(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(Message{From: 0, To: 9}); err == nil {
		t.Fatal("send to invalid node accepted")
	}
	if _, ok := tr.Recv(-1); ok {
		t.Fatal("recv on invalid node returned ok")
	}
	tr.Close()
	tr.Close() // double close must be safe
	if err := tr.Send(Message{From: 0, To: 1}); err == nil {
		t.Fatal("send after close accepted")
	}
	if _, ok := tr.Recv(0); ok {
		t.Fatal("recv after close with empty inbox returned ok")
	}
}

func TestTCPTransportLargePayload(t *testing.T) {
	tr, err := NewTCPTransport(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := tr.Send(Message{From: 0, To: 1, Gradient: "big", Payload: payload}); err != nil {
		t.Fatal(err)
	}
	got, ok := tr.Recv(1)
	if !ok || len(got.Payload) != len(payload) {
		t.Fatalf("large payload: len=%d ok=%v", len(got.Payload), ok)
	}
	for i := range payload {
		if got.Payload[i] != payload[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

func TestFrameCodecProperties(t *testing.T) {
	cases := []struct {
		msg Message
		gen uint32
	}{
		{Message{From: 0, To: 1}, 1},
		{Message{From: 3, To: 2, Gradient: "w", Step: 1 << 30, Payload: []byte{1}}, 7},
		{Message{From: 15, To: 0, Gradient: string(make([]byte, 300)), Payload: make([]byte, 5000)}, 0xffffffff},
		{Message{From: 1, To: 0, Gradient: "g", Step: 7, Attempt: 3, Ack: true, Sum: 0xdeadbeef}, 2},
	}
	for i, tc := range cases {
		frame := encodeFrame(tc.msg, tc.gen)
		dec, gen, err := decodeFrame(frame[4:])
		if err != nil {
			t.Fatalf("case %d: decode failed: %v", i, err)
		}
		if gen != tc.gen {
			t.Fatalf("case %d: generation %d != %d", i, gen, tc.gen)
		}
		if dec.From != tc.msg.From || dec.To != tc.msg.To || dec.Step != tc.msg.Step ||
			dec.Gradient != tc.msg.Gradient || string(dec.Payload) != string(tc.msg.Payload) ||
			dec.Attempt != tc.msg.Attempt || dec.Ack != tc.msg.Ack || dec.Sum != tc.msg.Sum {
			t.Fatalf("case %d: round trip mismatch: %+v vs %+v", i, dec, tc.msg)
		}
	}
	if _, _, err := decodeFrame([]byte{1, 2}); err == nil {
		t.Fatal("short frame accepted")
	}
	// restamp recomputes the frame checksum after a deliberate field mangle,
	// so each test below exercises its specific validator rather than the
	// blanket corruption check.
	restamp := func(frame []byte) []byte {
		binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[8:]))
		return frame
	}
	// Any single flipped bit — here the version byte, without restamping —
	// must fail the frame checksum.
	flip := encodeFrame(Message{From: 0, To: 1, Gradient: "abc"}, 1)
	flip[8] ^= 0x20
	if _, _, err := decodeFrame(flip[4:]); err == nil {
		t.Fatal("bit-flipped frame passed the frame checksum")
	}
	// Header claiming a longer gradient than the frame holds.
	bad := encodeFrame(Message{From: 0, To: 1, Gradient: "abc"}, 1)
	bad[4+32] = 0xFF // corrupt gradLen (gradLen sits at body offset 32)
	if _, _, err := decodeFrame(restamp(bad)[4:]); err == nil {
		t.Fatal("corrupt gradLen accepted")
	}
	// Unknown flag bits must be rejected, not silently ignored.
	bad2 := encodeFrame(Message{From: 0, To: 1, Gradient: "x"}, 1)
	bad2[4+31] = 0x80
	if _, _, err := decodeFrame(restamp(bad2)[4:]); err == nil {
		t.Fatal("unknown flags accepted")
	}
	// A v1-era frame (wrong version byte) must be rejected up front.
	bad3 := encodeFrame(Message{From: 0, To: 1, Gradient: "x"}, 1)
	bad3[8] = 1
	if _, _, err := decodeFrame(restamp(bad3)[4:]); err == nil {
		t.Fatal("wrong frame version accepted")
	}
}

func TestFrameCodecAckBatch(t *testing.T) {
	refs := []AckRef{
		{Gradient: "layer3.weight/p0", Step: 1<<20 | 3, Attempt: 1},
		{Gradient: "layer3.weight/p1", Step: 2<<20 | 3},
		{Gradient: "", Step: -1, Attempt: 4097}, // attempt past 4096, empty gradient
	}
	msg := Message{From: 2, To: 1, Ack: true, Step: 42, Attempt: len(refs), AckBatch: refs}
	frame := encodeFrame(msg, 9)
	dec, gen, err := decodeFrame(frame[4:])
	if err != nil {
		t.Fatalf("batched ack frame rejected: %v", err)
	}
	if gen != 9 || !dec.Ack || dec.From != 2 || dec.To != 1 || dec.Step != 42 || dec.Attempt != len(refs) {
		t.Fatalf("batched ack header mismatch: %+v gen=%d", dec, gen)
	}
	if len(dec.Payload) != 0 {
		t.Fatalf("batched ack decoded with %d payload bytes", len(dec.Payload))
	}
	if len(dec.AckBatch) != len(refs) {
		t.Fatalf("AckBatch has %d entries, want %d", len(dec.AckBatch), len(refs))
	}
	for i, ref := range refs {
		if dec.AckBatch[i] != ref {
			t.Fatalf("AckBatch[%d] = %+v, want %+v", i, dec.AckBatch[i], ref)
		}
	}
	// Byte-level round trip: re-encoding the decoded message must reproduce
	// the frame exactly (the fuzz invariant, pinned here deterministically).
	if re := encodeFrame(dec, gen); !bytes.Equal(re, frame) {
		t.Fatalf("batched ack does not round-trip:\n in: %x\nout: %x", frame, re)
	}

	restamp := func(frame []byte) []byte {
		binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[8:]))
		return frame
	}
	// Non-canonical batches must be rejected, or decode→encode would not be
	// an identity: an empty batch (flag set, count 0) ...
	empty := encodeFrame(Message{From: 1, To: 0, Ack: true, AckBatch: []AckRef{{Gradient: "g"}}}, 1)
	binary.LittleEndian.PutUint16(empty[4+frameHdrLen:], 0) // count = 0
	if _, _, err := decodeFrame(restamp(empty)[4:]); err == nil {
		t.Fatal("empty ack batch accepted")
	}
	// ... trailing bytes past the last entry ...
	long := encodeFrame(Message{From: 1, To: 0, Ack: true, AckBatch: []AckRef{{Gradient: "g", Step: 1}}}, 1)
	long = append(long, 0xee)
	if _, _, err := decodeFrame(restamp(long)[4:]); err == nil {
		t.Fatal("ack batch with trailing bytes accepted")
	}
	// ... and a truncated entry (count claims more than the bytes hold).
	trunc := encodeFrame(Message{From: 1, To: 0, Ack: true, AckBatch: []AckRef{{Gradient: "g", Step: 1}}}, 1)
	binary.LittleEndian.PutUint16(trunc[4+frameHdrLen:], 2)
	if _, _, err := decodeFrame(restamp(trunc)[4:]); err == nil {
		t.Fatal("truncated ack batch accepted")
	}
}

// hostileAckBatch is a batched-ack frame body (no length prefix) with a valid
// checksum whose count claims 65,535 refs in a 14-byte batch — room for one.
func hostileAckBatch() []byte {
	body := encodeFrame(Message{From: 2, To: 1, Ack: true, AckBatch: []AckRef{{Step: 7}}}, 1)[4:]
	binary.LittleEndian.PutUint16(body[frameHdrLen:], 0xffff)
	binary.LittleEndian.PutUint32(body[0:], crc32.ChecksumIEEE(body[4:]))
	return body
}

// TestAckBatchCountCheckedBeforeReserve: a batch's count is validated
// against the bytes left before any ref is reserved, so the hostile frame is
// rejected at no cost — no slab, no allocation at all in the batch decoder.
func TestAckBatchCountCheckedBeforeReserve(t *testing.T) {
	body := hostileAckBatch()
	if batch := body[frameHdrLen:]; len(batch) != 14 {
		t.Fatalf("hostile batch is %d bytes, want 14", len(batch))
	}
	if _, _, err := decodeFrame(body); !errors.Is(err, errAckBatchCount) {
		t.Fatalf("hostile ack batch: err = %v, want %v", err, errAckBatchCount)
	}
	names := nameTable{m: map[string]string{}}
	var slab []AckRef
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeAckBatch(body[frameHdrLen:], &names, &slab); err != errAckBatchCount {
			t.Fatalf("hostile ack batch: err = %v, want %v", err, errAckBatchCount)
		}
	})
	if allocs != 0 || slab != nil {
		t.Fatalf("rejecting the hostile batch cost %.0f allocations and a %d-ref slab, want none", allocs, cap(slab))
	}
}

func TestHelloCodecProperties(t *testing.T) {
	for _, tc := range []struct {
		src int
		gen uint32
	}{{0, 1}, {3, 2}, {1023, 0xffffffff}} {
		src, gen, err := decodeHello(encodeHello(tc.src, tc.gen))
		if err != nil || src != tc.src || gen != tc.gen {
			t.Fatalf("hello round trip (%d, %d) = (%d, %d, %v)", tc.src, tc.gen, src, gen, err)
		}
	}
	good := encodeHello(1, 1)
	for name, mangle := range map[string]func([]byte) []byte{
		"short":        func(b []byte) []byte { return b[:len(b)-1] },
		"bad-magic":    func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"bad-version":  func(b []byte) []byte { b[4] = 1; return b },
		"negative-src": func(b []byte) []byte { b[8] = 0x80; return b },
		"zero-gen":     func(b []byte) []byte { b[9], b[10], b[11], b[12] = 0, 0, 0, 0; return b },
	} {
		b := mangle(append([]byte(nil), good...))
		if _, _, err := decodeHello(b); err == nil {
			t.Fatalf("%s hello accepted", name)
		}
	}
}

// TestTCPFrameLenCapBeforeAlloc drives corrupt length prefixes — including
// the classic 1 GiB claim — at a live listener and proves the frame is
// rejected by the configured cap before any allocation happens.
func TestTCPFrameLenCapBeforeAlloc(t *testing.T) {
	cases := []struct {
		name     string
		claim    uint32
		maxFrame int // 0 = default 64 MiB
	}{
		{"one-gib-claim", 1 << 30, 0},
		{"max-uint32-claim", 0xFFFFFFFF, 0},
		{"just-over-default-cap", defaultMaxFrameLen + 1, 0},
		{"below-header", frameHdrLen - 1, 0},
		{"zero-length", 0, 0},
		{"just-over-configured-cap", 1<<16 + 1, 1 << 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := NewTCPTransportOpts(2, 2, TCPOptions{MaxFrameLen: tc.maxFrame})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			c, err := net.Dial("tcp", tr.Addr(1).String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(encodeHello(0, 1)); err != nil {
				t.Fatal(err)
			}
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], tc.claim)
			if _, err := c.Write(hdr[:]); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for tr.Stats().CorruptFrames == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("corrupt %d-byte length claim never rejected", tc.claim)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestTCPPartialWriteResyncViaGeneration breaks a connection mid-frame —
// the silent-desync scenario — and proves the generation handshake brings
// the link back: the redial's fresh generation supersedes the broken
// stream at a clean frame boundary, counted in Resyncs.
func TestTCPPartialWriteResyncViaGeneration(t *testing.T) {
	tr, err := NewTCPTransport(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Establish generation 1, then die ten bytes into a frame: the peer's
	// read loop is now mid-frame with no way to find the next boundary.
	tc, err := tr.connTo(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeFrame(Message{From: 0, To: 1, Gradient: "doomed", Step: 1,
		Payload: make([]byte, 64)}, tc.gen)
	if _, err := tc.c.Write(frame[:10]); err != nil {
		t.Fatal(err)
	}
	// Wait for the receiver to admit generation 1 before breaking the
	// connection, so the redial below is an observable supersession rather
	// than racing the first handshake.
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr.mu.Lock()
		g := tr.lastGen[[2]int{0, 1}]
		tr.mu.Unlock()
		if g == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("generation 1 never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	tr.dropConn(0, 1, tc) // what Send's error path does after a failed write
	// The next Send redials with generation 2; the receiver must resync
	// onto it and deliver cleanly.
	if err := tr.Send(Message{From: 0, To: 1, Gradient: "after", Step: 2}); err != nil {
		t.Fatalf("send after partial-write drop: %v", err)
	}
	got, ok := tr.Recv(1)
	if !ok || got.Gradient != "after" || got.Step != 2 {
		t.Fatalf("resynced delivery = %+v ok=%v", got, ok)
	}
	st := tr.Stats()
	if st.Resyncs != 1 {
		t.Fatalf("Resyncs = %d, want 1 (stats %+v)", st.Resyncs, st)
	}
	if st.Dials != 2 {
		t.Fatalf("Dials = %d, want 2", st.Dials)
	}
}

// TestTCPStaleGenerationRejected replays an already-used generation from an
// impostor connection: the handshake must reject it without disturbing the
// live stream.
func TestTCPStaleGenerationRejected(t *testing.T) {
	tr, err := NewTCPTransport(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(Message{From: 0, To: 1, Gradient: "live", Step: 1}); err != nil {
		t.Fatal(err)
	}
	if got, ok := tr.Recv(1); !ok || got.Gradient != "live" {
		t.Fatalf("live delivery = %+v ok=%v", got, ok)
	}
	// Impostor replays generation 1 on link 0→1 and tries to inject.
	c, err := net.Dial("tcp", tr.Addr(1).String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write(encodeHello(0, 1))
	c.Write(encodeFrame(Message{From: 0, To: 1, Gradient: "stale", Step: 99}, 1))
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().StaleConns == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stale-generation handshake never rejected")
		}
		time.Sleep(time.Millisecond)
	}
	// The original generation-1 stream still works and the injected frame
	// never surfaces.
	if err := tr.Send(Message{From: 0, To: 1, Gradient: "live2", Step: 2}); err != nil {
		t.Fatal(err)
	}
	got, ok := tr.Recv(1)
	if !ok || got.Gradient != "live2" {
		t.Fatalf("post-replay delivery = %+v ok=%v (stale frame leaked?)", got, ok)
	}
}

// TestTCPHalfOpenIdleReadDeadline covers the half-open failure: a peer that
// completes TCP and the HELLO but never sends a frame must be killed by the
// idle read deadline, not wedge a read goroutine forever.
func TestTCPHalfOpenIdleReadDeadline(t *testing.T) {
	tr, err := NewTCPTransportOpts(2, 2, TCPOptions{
		IdleReadTimeout: 80 * time.Millisecond, HandshakeTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c, err := net.Dial("tcp", tr.Addr(0).String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(encodeHello(1, 1)); err != nil {
		t.Fatal(err)
	}
	// ...and now hold the socket open in silence.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := tr.Stats()
		if st.IdleDrops == 1 && st.ActiveConns == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("half-open connection never idle-dropped: %+v", tr.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPHandshakeTimeout covers the pre-HELLO variant: a connection that
// never says hello is dropped by the handshake deadline.
func TestTCPHandshakeTimeout(t *testing.T) {
	tr, err := NewTCPTransportOpts(2, 2, TCPOptions{HandshakeTimeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c, err := net.Dial("tcp", tr.Addr(0).String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().HandshakeRejects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("mute connection never handshake-rejected")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPTransportCloseLeaksNoGoroutines is the goleak-style accounting:
// after Close returns, every transport goroutine — accept loops, read
// loops, even one servicing a half-open external peer — must be gone.
func TestTCPTransportCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	tr, err := NewTCPTransportOpts(3, 8, TCPOptions{IdleReadTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := tr.Send(Message{From: 0, To: 1, Gradient: "g", Step: i}); err != nil {
			t.Fatal(err)
		}
		if _, ok := tr.Recv(1); !ok {
			t.Fatal("recv failed")
		}
	}
	// A half-open external peer that will never FIN: Close must force it.
	c, err := net.Dial("tcp", tr.Addr(2).String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(encodeHello(9, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().ActiveConns < 2 { // 0→1 traffic conn + the half-open one
		if time.Now().After(deadline) {
			t.Fatalf("connections never registered: %+v", tr.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	tr.Close()
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after Close: %d > %d\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTCPCloseDrainForceClosesHalfOpen: a peer that completes the HELLO and
// then neither sends nor FINs never leaves the accepted set on its own, so
// Close's graceful drain cannot finish; Close must still return, through the
// force-close after closeDrainTimeout, with no connection left open.
func TestTCPCloseDrainForceClosesHalfOpen(t *testing.T) {
	tr, err := NewTCPTransportOpts(2, 2, TCPOptions{IdleReadTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", tr.Addr(0).String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(encodeHello(1, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().ActiveConns != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("half-open connection never registered: %+v", tr.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	closed := make(chan struct{})
	go func() {
		tr.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned with a half-open peer connected")
	}
	if took := time.Since(start); took < closeDrainTimeout {
		t.Fatalf("Close returned after %v, before the %v drain could have expired: the half-open connection was not force-closed", took, closeDrainTimeout)
	}
	if st := tr.Stats(); st.ActiveConns != 0 {
		t.Fatalf("%d connections still open after Close", st.ActiveConns)
	}
}

// TestTCPTransportStalledPeer proves Send does not wedge forever when the
// destination never drains its inbox or socket: once the kernel buffers
// fill, Send must surface a typed ConnError that still unwraps to a
// net.Error timeout. Redial is disabled because every redial gets a fresh
// pair of kernel socket buffers, which would keep absorbing writes for an
// app-level-stalled (but kernel-healthy) peer.
func TestTCPTransportStalledPeer(t *testing.T) {
	tr, err := NewTCPTransportOpts(2, 1, TCPOptions{RedialAttempts: -1, WriteTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	payload := make([]byte, 4<<20)
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; ; i++ {
		if time.Now().After(deadline) {
			t.Fatal("Send never timed out against a stalled peer")
		}
		err := tr.Send(Message{From: 0, To: 1, Gradient: "big", Step: i, Payload: payload})
		if err == nil {
			continue // kernel buffers still absorbing
		}
		var cerr *ConnError
		if !errors.As(err, &cerr) || !cerr.Timeout {
			t.Fatalf("expected *ConnError with Timeout, got %v", err)
		}
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("ConnError does not unwrap to a net.Error timeout: %v", err)
		}
		break
	}
	// The wedged connection was dropped; after the peer starts draining, a
	// fresh Send must succeed over a redialed connection.
	go func() {
		for {
			if _, ok := tr.Recv(1); !ok {
				return
			}
		}
	}()
	if err := tr.Send(Message{From: 0, To: 1, Gradient: "after", Payload: []byte{1}}); err != nil {
		t.Fatalf("send after redial: %v", err)
	}
}

// TestTCPTransportCloseRacesSend exercises Close concurrent with in-flight
// Sends: no panics, no deadlocks, and double Close stays safe.
func TestTCPTransportCloseRacesSend(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		tr, err := NewTCPTransport(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for src := 0; src < 3; src++ {
			wg.Add(1)
			go func(src int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					_ = tr.Send(Message{From: src, To: (src + 1) % 3, Gradient: "g", Step: i,
						Payload: []byte{byte(i)}})
				}
			}(src)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Close()
			tr.Close()
		}()
		wg.Wait()
	}
}
