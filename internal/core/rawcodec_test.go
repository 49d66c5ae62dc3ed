package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"hipress/internal/kernels"
	"hipress/internal/tensor"
)

// The portable element-by-element loops the raw wire codec ran before it
// learned to view an aligned payload in place; the differential reference.

func refF32IntoBytes(dst []byte, v []float32) {
	for i, x := range v {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(x))
	}
}

func refCopyBytesF32(dst []float32, b []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

func refAddBytesF32(dst []float32, b []byte) {
	for i := range dst {
		dst[i] += math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// TestRawF32CodecFallbackMatchesFastPath drives f32IntoBytes, copyBytesF32
// and addBytesF32 over an aligned payload (viewed in place), a misaligned
// one (b[1:]), an odd-length one and an empty one (all portable path): every
// result must equal the reference loops bit for bit, NaN payloads and
// denormals included. Under -race checkptr is on, so the misaligned case
// also proves the alignment guard runs before any cast.
func TestRawF32CodecFallbackMatchesFastPath(t *testing.T) {
	pats := []uint32{
		0, 0x80000000, 1, 0x807fffff, 0x3f800000, 0xbf800000, 0x7f7fffff,
		0x7f800000, 0xff800000, 0x7fc00000, 0xffc00001, 0x7f800001, 0x7fa5a5a5,
	}
	littleEndian := binary.NativeEndian.Uint16([]byte{1, 0}) == 1
	for _, n := range []int{0, 1, 7, 8, 9, 1000} {
		v := make([]float32, n)
		acc := make([]float32, n) // finite, so x+NaN keeps the payload's NaN in any operand order
		for i := range v {
			v[i] = math.Float32frombits(pats[i%len(pats)] ^ uint32(i/len(pats))<<3)
			acc[i] = float32(i%17) - 8.25
		}
		var l kernels.Lease
		backing := l.Bytes(4*n + 8)
		for name, buf := range map[string][]byte{
			"aligned":    backing[:4*n],
			"misaligned": backing[1 : 1+4*n],
		} {
			// The arms must really take different paths, or the comparison
			// below shows nothing.
			_, fast := kernels.BytesAsF32LE(buf)
			if wantFast := littleEndian && n > 0 && name == "aligned"; fast != wantFast {
				t.Fatalf("n=%d %s: in-place view taken = %v, want %v", n, name, fast, wantFast)
			}
			want := make([]byte, 4*n)
			refF32IntoBytes(want, v)
			f32IntoBytes(buf, v)
			if !bytes.Equal(buf, want) {
				t.Fatalf("n=%d %s: f32IntoBytes differs from reference", n, name)
			}

			got, ref := make([]float32, n), make([]float32, n)
			if err := copyBytesF32(got, buf); err != nil {
				t.Fatalf("n=%d %s: copyBytesF32: %v", n, name, err)
			}
			refCopyBytesF32(ref, want)
			for i := range ref {
				if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
					t.Fatalf("n=%d %s: copyBytesF32[%d] = %08x, reference %08x", n, name, i,
						math.Float32bits(got[i]), math.Float32bits(ref[i]))
				}
			}

			copy(got, acc)
			copy(ref, acc)
			if err := addBytesF32(got, buf); err != nil {
				t.Fatalf("n=%d %s: addBytesF32: %v", n, name, err)
			}
			refAddBytesF32(ref, want)
			for i := range ref {
				if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
					t.Fatalf("n=%d %s: addBytesF32[%d] = %08x, reference %08x", n, name, i,
						math.Float32bits(got[i]), math.Float32bits(ref[i]))
				}
			}
		}

		// Odd length: a byte too many. Serializing fills the first 4n bytes
		// either way; parsing and merging must refuse the frame.
		odd := backing[:4*n+1]
		want := make([]byte, 4*n)
		refF32IntoBytes(want, v)
		clear(odd)
		f32IntoBytes(odd, v)
		if !bytes.Equal(odd[:4*n], want) || odd[4*n] != 0 {
			t.Fatalf("n=%d odd-length: f32IntoBytes differs from reference", n)
		}
		if err := copyBytesF32(make([]float32, n), odd); err == nil {
			t.Fatalf("n=%d: copyBytesF32 accepted a %d-byte payload", n, len(odd))
		}
		if err := addBytesF32(make([]float32, n), odd); err == nil {
			t.Fatalf("n=%d: addBytesF32 accepted a %d-byte payload", n, len(odd))
		}
		l.Release()
	}
}

// BenchmarkRawF32Codec times the three raw conversions on a leased (aligned)
// 1 Mi-element payload, with the reference loops beside them.
func BenchmarkRawF32Codec(b *testing.B) {
	const n = 1 << 20
	v := make([]float32, n)
	tensor.NewRNG(42).FillNormal(v, 1)
	var l kernels.Lease
	defer l.Release()
	payload := l.Bytes(4 * n)
	refF32IntoBytes(payload, v)
	dst := make([]float32, n)
	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"f32IntoBytes", func() { f32IntoBytes(payload, v) }},
		{"f32IntoBytes/reference", func() { refF32IntoBytes(payload, v) }},
		{"copyBytesF32", func() { _ = copyBytesF32(dst, payload) }},
		{"copyBytesF32/reference", func() { refCopyBytesF32(dst, payload) }},
		{"addBytesF32", func() { _ = addBytesF32(dst, payload) }},
		{"addBytesF32/reference", func() { refAddBytesF32(dst, payload) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(4 * n)
			for i := 0; i < b.N; i++ {
				bc.run()
			}
		})
	}
}
