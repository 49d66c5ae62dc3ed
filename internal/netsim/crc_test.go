package netsim

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"testing"
)

// tile returns n bytes made by repeating seed (zeros when seed is empty).
func tile(seed []byte, n int) []byte {
	out := make([]byte, n)
	if len(seed) > 0 {
		for i := copy(out, seed); i < n; i *= 2 {
			copy(out[i:], out[:i])
		}
	}
	return out
}

// checkCombine holds crcCombine to its two references: continuing a's CRC
// through b, and the CRC of the concatenation.
func checkCombine(t *testing.T, a, b []byte) {
	t.Helper()
	crcA := crc32.ChecksumIEEE(a)
	got := crcCombine(crcA, crc32.ChecksumIEEE(b), len(b))
	if want := crc32.Update(crcA, crc32.IEEETable, b); got != want {
		t.Fatalf("crcCombine(|a|=%d, |b|=%d) = %08x, crc32.Update gives %08x", len(a), len(b), got, want)
	}
	if want := crc32.ChecksumIEEE(append(append([]byte(nil), a...), b...)); got != want {
		t.Fatalf("crcCombine(|a|=%d, |b|=%d) = %08x, CRC of a‖b is %08x", len(a), len(b), got, want)
	}
}

// TestCRCCombine: the combine is an identity at every length class the frame
// path feeds it — empty parts, lengths around crcCombineMin, lengths with one
// bit and with many bits set, a whole 3 MiB partition — and for zero CRCs (an
// empty part's).
func TestCRCCombine(t *testing.T) {
	seed := []byte("HiPress frame head | gradient payload \x00\xff\x80\x01")
	for _, la := range []int{0, 1, 34, 38, 300} {
		for _, lb := range []int{0, 1, 3, 4, 63, 64, 65, 1000, crcCombineMin - 1, crcCombineMin, crcCombineMin + 1,
			1 << 16, 1<<16 - 1, 1<<20 + 12345, 3<<20 - 4, 3 << 20} {
			checkCombine(t, tile(seed, la), tile(seed[3:], lb))
		}
	}
	// All-zero parts: CRC(a) and CRC(b) are not zero, but the message is.
	checkCombine(t, make([]byte, 40), make([]byte, 5000))
	if got := crcCombine(0, 0, 1<<20); got != 0 {
		t.Fatalf("crcCombine(0, 0, n) = %08x, want 0", got)
	}
}

// FuzzCRCCombine: arbitrary bytes split at an arbitrary point, the second part
// optionally stretched to any length up to 3 MiB (the largest partition the
// benchmark sends), against crc32.Update.
func FuzzCRCCombine(f *testing.F) {
	f.Add([]byte("head|payload"), uint(5), uint32(0))
	f.Add([]byte{}, uint(0), uint32(0))
	f.Add([]byte{0}, uint(1), uint32(3<<20))
	f.Add([]byte("\xff\xff\xff\xff tail"), uint(4), uint32(crcCombineMin))
	f.Add(bytes.Repeat([]byte{0xa5, 0x5a, 0}, 100), uint(38), uint32(1<<20+7))
	f.Fuzz(func(t *testing.T, data []byte, split uint, stretch uint32) {
		s := 0
		if len(data) > 0 {
			s = int(split % uint(len(data)+1))
		}
		a, b := data[:s], data[s:]
		if stretch != 0 {
			b = tile(b, int(stretch%(3<<20+1)))
		}
		checkCombine(t, a, b)
	})
}

// TestFrameChecksumUsesPayloadCRC pins what the payload-CRC cache may and may
// not do on the TCP path. A message that carries it frames to exactly the
// bytes of one that does not, on both sides of crcCombineMin; the reader hands
// up the CRC of the payload it read for every payload it checksummed
// separately and for no other; and the frame checksum really is derived from
// the cache — a stale one yields a frame the reader rejects, so a payload
// changed behind the cache's back is never delivered as valid.
func TestFrameChecksumUsesPayloadCRC(t *testing.T) {
	for _, n := range []int{0, 1, 64, crcCombineMin - 1, crcCombineMin, crcCombineMin + 1, 100000} {
		payload := tile([]byte("gradient bytes \x00\x7f\x80"), n)
		sum := crc32.ChecksumIEEE(payload)
		plain := Message{From: 1, To: 2, Gradient: "layer3.weight", Step: 7 | 1<<20, Attempt: 2, Sum: sum, Payload: payload}
		cached := plain
		cached.SetPayloadCRC(sum)
		want := encodeFrame(plain, 9)
		if got := encodeFrame(cached, 9); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: frame built from the cached payload CRC differs from the one checksummed through", n)
		}
		dec, _, err := decodeFrame(want[4:])
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, ok := dec.PayloadCRC()
		if wantOK := n >= crcCombineMin; ok != wantOK || (ok && got != sum) {
			t.Fatalf("n=%d: reader handed up payload CRC (%08x, %v), want (%08x, %v)", n, got, ok, sum, wantOK)
		}
		dec.Lease.Release()

		stale := plain
		stale.SetPayloadCRC(sum ^ 1)
		_, _, err = decodeFrame(encodeFrame(stale, 9)[4:])
		if wantErr := n >= crcCombineMin; (err != nil) != wantErr {
			t.Fatalf("n=%d: frame built from a stale payload CRC: err = %v, want rejection = %v", n, err, wantErr)
		}
	}
}

// captureTransport records what a decorator hands to its inner transport.
type captureTransport struct{ got []Message }

func (c *captureTransport) Send(m Message) error     { c.got = append(c.got, m); return nil }
func (c *captureTransport) Recv(int) (Message, bool) { return Message{}, false }
func (c *captureTransport) Close()                   {}

// TestPayloadCRCCleared covers the two places that must drop the cache: the
// chaos injector's corrupted copy (the cached CRC describes the bytes before
// the flip — over TCP it would be framed as if intact) and a chan send (the
// receiver's pass is the only check on that transport). Each assertion fails
// when its clearing line is removed. An untouched message keeps its cache
// through the chaos layer.
func TestPayloadCRCCleared(t *testing.T) {
	payload := tile([]byte("abc"), 2*crcCombineMin)
	msg := Message{From: 0, To: 1, Gradient: "g", Sum: crc32.ChecksumIEEE(payload), Payload: payload}
	msg.SetPayloadCRC(msg.Sum)

	for _, corrupt := range []float64{0, 1} {
		inner := &captureTransport{}
		chaos := WrapChaos(inner, &ChaosConfig{Seed: 3, Default: LinkFaults{Corrupt: corrupt}})
		if err := chaos.Send(msg); err != nil {
			t.Fatal(err)
		}
		chaos.Close()
		got := inner.got[0]
		sum, ok := got.PayloadCRC()
		if corrupt == 0 {
			if !ok || sum != msg.Sum {
				t.Fatalf("chaos dropped the cache of a message it did not touch: (%08x, %v)", sum, ok)
			}
			continue
		}
		if bytes.Equal(got.Payload, payload) {
			t.Fatal("chaos did not corrupt the payload")
		}
		if ok {
			t.Fatalf("corrupted copy still carries the original payload's CRC %08x", sum)
		}
	}

	tr := NewChanTransport(2, 1)
	defer tr.Close()
	if err := tr.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, _ := tr.Recv(1)
	if sum, ok := got.PayloadCRC(); ok {
		t.Fatalf("chan transport delivered a payload CRC cache (%08x): the receiver would skip its only check", sum)
	}
}

// BenchmarkFrameChecksum times one frame through both ends of the TCP codec —
// appendFrameHead on the sender, frameReader.next on the receiver, an
// in-memory pipe between them — with the payload CRC cached by the producer
// (the live plane's stageSend) and without (a pass over the payload on the
// sender too). Below crcCombineMin the two arms run the same code.
func BenchmarkFrameChecksum(b *testing.B) {
	for _, n := range []int{64, 4 << 10, 3 << 20} {
		payload := tile([]byte("gradient bytes \x00\x7f\x80"), n)
		msg := Message{From: 1, To: 2, Gradient: "features.0.weight", Step: 3 | 1<<20,
			Sum: crc32.ChecksumIEEE(payload), Payload: payload}
		for _, cached := range []bool{true, false} {
			name := fmt.Sprintf("%dB/cache=%v", n, cached)
			b.Run(name, func(b *testing.B) {
				m := msg
				if cached {
					m.SetPayloadCRC(m.Sum)
				}
				pr, pw := io.Pipe()
				done := make(chan error, 1)
				go func() {
					fr := frameReader{r: pr, maxLen: defaultMaxFrameLen}
					for {
						got, _, err := fr.next()
						if err != nil {
							done <- err
							return
						}
						got.Lease.Release()
					}
				}()
				var head []byte
				b.SetBytes(int64(n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var p []byte
					head, p = appendFrameHead(head, m, 1)
					if _, err := pw.Write(head); err != nil {
						b.Fatal(err)
					}
					if _, err := pw.Write(p); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				pw.Close()
				if err := <-done; !errors.Is(err, io.EOF) {
					b.Fatalf("reader stopped with %v", err)
				}
			})
		}
	}
}
