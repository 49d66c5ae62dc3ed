package netsim

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"
)

// FuzzFrameDecode drives frameReader.next — the TCP transport's wire-format
// parser, the first code that touches bytes off the network — with arbitrary
// whole-frame bodies, split into header, gradient name and payload exactly
// as the read loop splits them off a socket. The contract under fuzzing:
//
//  1. the reader never panics, whatever the bytes (the read loop feeds it
//     attacker-shaped data whenever chaos corrupts a stream);
//  2. any frame it accepts round-trips: re-encoding the decoded Message
//     under the decoded generation (frame head + payload, as writeFrame
//     sends them) reproduces the input bytes exactly, so the split decoder
//     is a true inverse of the encoder over whole-frame bytes and no
//     accepted frame is ambiguous;
//  3. a reader that has already decoded another frame — warm scratch buffer
//     and name table — decodes the same bytes to the same message.
func FuzzFrameDecode(f *testing.F) {
	// Well-formed seeds: a data frame, an ack, a negative From (int32
	// casts), an empty-everything frame, the shapes where the split falls
	// differently (payload without a name, name without a payload, a
	// size-class-exact payload, a batch carrying a name of its own, bulk
	// frames with empty payloads and with one past crcCombineMin) — plus
	// malformed ones (empty, truncated header, bad version, bad flags,
	// gradient length past the body, a data frame with the batch bit forced,
	// a batch claiming 65,535 refs in 14 bytes, a data frame with the bulk bit
	// forced, a bulk table claiming 65,535 entries in room for two).
	seeds := []struct {
		msg Message
		gen uint32
	}{
		{Message{From: 1, To: 2, Gradient: "layer3.weight/p2", Step: 7, Attempt: 1,
			Sum: 0xdeadbeef, Payload: []byte{1, 2, 3, 4}}, 1},
		{Message{From: 2, To: 1, Gradient: "layer3.weight/p2", Step: 7, Attempt: 3, Ack: true}, 2},
		{Message{From: 0, To: 3, Gradient: "hb", Step: 123456789, Attempt: 12, Heartbeat: true}, 3},
		{Message{From: 3, To: 0, Gradient: "hb", Step: 123456789, Attempt: 12, Ack: true, Heartbeat: true}, 0xffffffff},
		{Message{From: -1, To: 0, Gradient: "", Step: -9, Attempt: 0, Payload: []byte("x")}, 9},
		{Message{From: 2, To: 1, Ack: true, Step: 5, Attempt: 2, AckBatch: []AckRef{
			{Gradient: "g/p0", Step: 7, Attempt: 1}, {Gradient: "g/p1", Step: 9}}}, 4},
		{Message{}, 0},
		{Message{From: 1, To: 0, Step: 3, Sum: 7, Payload: []byte("payload, no name")}, 5},
		{Message{From: 1, To: 0, Gradient: "name, no payload", Step: 3}, 5},
		{Message{From: 0, To: 1, Gradient: "g/p1", Step: 1 | 1<<20, Payload: bytes.Repeat([]byte{0xa5}, 1024)}, 6},
		{Message{From: 2, To: 1, Gradient: "seq", Ack: true, AckBatch: []AckRef{{Gradient: "seq", Step: 1}}}, 7},
		{Message{From: 1, To: 2, Gradient: "a/p0", Step: 3, Bulk: []BulkEntry{
			{Gradient: "a/p0", Step: 3, Sum: 9, Payload: []byte{1, 2, 3}}, {Gradient: "b", Step: -1}}}, 8},
		{bulkMsg(4), 9},
	}
	for _, s := range seeds {
		f.Add(encodeFrame(s.msg, s.gen)[4:]) // strip the u32 length prefix
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, frameHdrLen-1))
	// restamp recomputes the body's frame checksum so mangled seeds reach
	// their specific validator instead of the blanket corruption check.
	restamp := func(body []byte) []byte {
		binary.LittleEndian.PutUint32(body[0:], crc32.ChecksumIEEE(body[4:]))
		return body
	}
	v1 := encodeFrame(seeds[0].msg, 1)[4:]
	v1[4] = 1 // wrong wire-format version
	f.Add(restamp(v1))
	bad := encodeFrame(seeds[0].msg, 1)[4:]
	bad[31] = 0x80 // unknown flag bit
	f.Add(restamp(bad))
	short := encodeFrame(seeds[0].msg, 1)[4:]
	short[32] = 0xff // gradient length larger than the body
	short[33] = 0xff
	f.Add(restamp(short))
	flip := encodeFrame(seeds[0].msg, 1)[4:]
	flip[21] ^= 0x20 // in-header bit flip: must fail the frame checksum
	f.Add(flip)
	batchBit := encodeFrame(seeds[0].msg, 1)[4:]
	batchBit[31] |= 4 // gradient payload parsed as an ack batch
	f.Add(restamp(batchBit))
	f.Add(hostileAckBatch()) // a batch count past what its bytes hold
	bulkBit := encodeFrame(seeds[0].msg, 1)[4:]
	bulkBit[31] |= 8 // gradient payload parsed as a bulk table
	f.Add(restamp(bulkBit))
	f.Add(hostileBulk()) // a bulk count past what its table holds

	f.Fuzz(func(t *testing.T, frame []byte) {
		msg, gen, err := decodeFrame(frame)
		if err != nil {
			return // rejected is fine; not panicking is the point
		}
		re := encodeFrame(msg, gen)
		if !bytes.Equal(re[4:], frame) {
			t.Fatalf("accepted frame does not round-trip:\n in: %x\nout: %x", frame, re[4:])
		}
		// Decode it again behind another frame on one stream.
		warm := encodeFrame(Message{From: 9, To: 8, Gradient: "warm", Payload: []byte("warm-up")}, 1)
		fr := frameReader{r: bytes.NewReader(append(warm, re...)), maxLen: defaultMaxFrameLen}
		if _, _, err := fr.next(); err != nil {
			t.Fatalf("warm-up frame rejected: %v", err)
		}
		msg2, gen2, err := fr.next()
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if gen2 != gen {
			t.Fatalf("generation not deterministic: %d vs %d", gen, gen2)
		}
		if msg2.From != msg.From || msg2.To != msg.To || msg2.Gradient != msg.Gradient ||
			msg2.Step != msg.Step || msg2.Attempt != msg.Attempt || msg2.Ack != msg.Ack ||
			msg2.Heartbeat != msg.Heartbeat ||
			msg2.Sum != msg.Sum || !bytes.Equal(msg2.Payload, msg.Payload) ||
			!slices.Equal(msg2.AckBatch, msg.AckBatch) || !sameEntries(msg2.Bulk, msg.Bulk) {
			t.Fatalf("decode not deterministic: %+v vs %+v", msg, msg2)
		}
	})
}

// FuzzHelloDecode fuzzes the handshake parser with arbitrary bytes: never
// panic, and any accepted HELLO must round-trip through encodeHello.
func FuzzHelloDecode(f *testing.F) {
	f.Add(encodeHello(0, 1))
	f.Add(encodeHello(1023, 0xffffffff))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, helloLen))
	zero := encodeHello(1, 1)
	zero[9], zero[10], zero[11], zero[12] = 0, 0, 0, 0 // generation 0
	f.Add(zero)

	f.Fuzz(func(t *testing.T, b []byte) {
		src, gen, err := decodeHello(b)
		if err != nil {
			return
		}
		if src < 0 || gen == 0 {
			t.Fatalf("accepted hello with src=%d gen=%d", src, gen)
		}
		if !bytes.Equal(encodeHello(src, gen), b) {
			t.Fatalf("accepted hello does not round-trip: %x", b)
		}
	})
}
