package netsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
)

// bulkMsg builds a bulk message of count entries from node 0 to node 1. Entry
// i carries i·37 bytes of payload (none for entry 0; entry 2, when there is
// one, 5000 bytes, above crcCombineMin) under a name of its own (300 bytes
// for entry 1), a step and the payload's sum; the message names its first
// entry, as a lane worker's would.
func bulkMsg(count int) Message {
	entries := make([]BulkEntry, count)
	for i := range entries {
		n := i * 37
		if i == 2 {
			n = 5000
		}
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*131 + j*7)
		}
		name := fmt.Sprintf("layer%d.weight/p%d", i, i%3)
		if i == 1 {
			name = strings.Repeat("n", 300)
		}
		entries[i] = BulkEntry{Gradient: name, Step: i | (i%3)<<20, Sum: crc32.ChecksumIEEE(p), Payload: p}
	}
	return Message{From: 0, To: 1, Gradient: entries[0].Gradient, Step: entries[0].Step, Bulk: entries}
}

// sameEntries compares two entry lists field by field (the CRC caches aside).
func sameEntries(a, b []BulkEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Gradient != b[i].Gradient || a[i].Step != b[i].Step || a[i].Sum != b[i].Sum ||
			!bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

// bulkTableAt is where a bulk frame's table (after its u32 length) starts in
// its whole frame, length prefix included.
func bulkTableAt(msg Message) int { return 4 + frameHdrLen + len(msg.Gradient) + 4 }

// TestFrameCodecBulk: bulk frames of every count from 2 up round-trip through
// the codec byte for byte, with empty payloads and long names among their
// entries, and cross the chan and TCP transports entry for entry; no
// payload-CRC cache arrives over TCP (a receiver checks each entry itself). Non-canonical tables are rejected, and a sender refuses a bulk frame
// of one entry.
func TestFrameCodecBulk(t *testing.T) {
	chanTr := NewChanTransport(2, 4)
	defer chanTr.Close()
	tcpTr, err := NewTCPTransport(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tcpTr.Close()
	for _, count := range []int{2, 3, 17, 300} {
		msg := bulkMsg(count)
		frame := encodeFrame(msg, 5)
		dec, gen, err := decodeFrame(frame[4:])
		if err != nil {
			t.Fatalf("count %d: bulk frame rejected: %v", count, err)
		}
		if gen != 5 || dec.From != 0 || dec.To != 1 || dec.Gradient != msg.Gradient || dec.Step != msg.Step ||
			len(dec.Payload) != 0 || !sameEntries(dec.Bulk, msg.Bulk) {
			t.Fatalf("count %d: decoded %+v, want %+v", count, dec, msg)
		}
		if re := encodeFrame(dec, gen); !bytes.Equal(re, frame) {
			t.Fatalf("count %d: bulk frame does not round-trip", count)
		}
		// Staged as the live plane stages them, every CRC cached.
		for i := range msg.Bulk {
			msg.Bulk[i].crc, msg.Bulk[i].crcOK = msg.Bulk[i].Sum, true
		}
		for _, tr := range []Transport{tcpTr, chanTr} {
			if err := tr.Send(msg); err != nil {
				t.Fatalf("%T, count %d: %v", tr, count, err)
			}
			got, ok := tr.Recv(1)
			if !ok || !sameEntries(got.Bulk, msg.Bulk) || got.Gradient != msg.Gradient {
				t.Fatalf("%T, count %d: delivered %+v ok=%v", tr, count, got, ok)
			}
			for i := range got.Bulk {
				if tr == tcpTr && got.Bulk[i].crcOK {
					t.Fatalf("%T, count %d: entry %d arrived with a payload-CRC cache", tr, count, i)
				}
			}
			got.Lease.Release()
		}
	}

	restamp := func(frame []byte) []byte {
		binary.LittleEndian.PutUint32(frame[0:], uint32(len(frame)-4))
		binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[8:]))
		return frame
	}
	msg := bulkMsg(3)
	at := bulkTableAt(msg)
	tableLen := int(binary.LittleEndian.Uint32(encodeFrame(msg, 1)[at-4:]))
	for name, mangle := range map[string]func([]byte) []byte{
		"one entry": func(f []byte) []byte {
			binary.LittleEndian.PutUint16(f[at:], 1)
			return f
		},
		"zero entries": func(f []byte) []byte {
			binary.LittleEndian.PutUint16(f[at:], 0)
			return f
		},
		"a trailing table byte": func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f[at-4:], uint32(tableLen+1))
			return append(f[:at+tableLen:at+tableLen], append([]byte{0xee}, f[at+tableLen:]...)...)
		},
		"an unclaimed payload byte": func(f []byte) []byte { return append(f, 0xee) },
		"an entry overrunning the payloads": func(f []byte) []byte {
			last := at + tableLen - len(msg.Bulk[2].Gradient) - 6 // entry 2's u32 len
			binary.LittleEndian.PutUint32(f[last:], 5001)
			return f
		},
		"a table length past the body": func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f[at-4:], 1<<20)
			return f
		},
		"the ack flag": func(f []byte) []byte {
			f[4+31] |= 1
			return f
		},
	} {
		if _, _, err := decodeFrame(restamp(mangle(encodeFrame(msg, 1)))[4:]); err == nil {
			t.Errorf("bulk frame with %s accepted", name)
		}
	}
	one := Message{From: 0, To: 1, Bulk: msg.Bulk[:1]}
	var lim *FrameLimitError
	if err := tcpTr.Send(one); !errors.As(err, &lim) || lim.Field != "bulk count" || lim.Min != 2 {
		t.Fatalf("bulk frame of one entry: Send = %v, want a bulk count *FrameLimitError", err)
	}
}

// hostileBulk is a bulk frame body (no length prefix) with a valid checksum
// whose table claims 65,535 entries in room for two.
func hostileBulk() []byte {
	msg := Message{From: 2, To: 1, Gradient: "g", Bulk: []BulkEntry{{Gradient: "g", Payload: []byte{1}}, {Step: 1}}}
	body := encodeFrame(msg, 1)[4:]
	binary.LittleEndian.PutUint16(body[bulkTableAt(msg)-4:], 0xffff)
	binary.LittleEndian.PutUint32(body[0:], crc32.ChecksumIEEE(body[4:]))
	return body
}

// TestBulkCountCheckedBeforeReserve: a bulk table's count is validated
// against its bytes before any entry is reserved, so the hostile frame is
// rejected at no cost — no slab, no allocation at all in the table decoder.
func TestBulkCountCheckedBeforeReserve(t *testing.T) {
	body := hostileBulk()
	if _, _, err := decodeFrame(body); !errors.Is(err, errBulkCount) {
		t.Fatalf("hostile bulk table: err = %v, want %v", err, errBulkCount)
	}
	at := bulkTableAt(Message{Gradient: "g"}) - 4
	table, region := body[at:len(body)-1], body[len(body)-1:]
	if len(table) != 2+2*18+1 {
		t.Fatalf("hostile table is %d bytes, want %d", len(table), 2+2*18+1)
	}
	names := nameTable{m: map[string]string{}}
	var slab []BulkEntry
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeBulk(table, region, &names, &slab); err != errBulkCount {
			t.Fatalf("hostile bulk table: err = %v, want %v", err, errBulkCount)
		}
	})
	if allocs != 0 || slab != nil {
		t.Fatalf("rejecting the hostile table cost %.0f allocations and a %d-entry slab, want none", allocs, cap(slab))
	}
}
