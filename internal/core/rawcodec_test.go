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

// canonNaN collapses every NaN onto one bit pattern: which payload survives
// NaN+NaN follows the hardware's first-operand rule applied to an operand
// order the compiler may choose per loop shape (as in the compression kernels'
// FuzzKernelsMatchReference).
func canonNaN(b uint32) uint32 {
	if b&0x7f800000 == 0x7f800000 && b&0x007fffff != 0 {
		return 0x7fc00000
	}
	return b
}

// TestRawF32CodecFallbackMatchesFastPath drives f32IntoBytes, copyBytesF32,
// sumBytesF32 and sumF32 over an aligned payload (viewed in place), a
// misaligned one (b[1:]), an odd-length one and an empty one (all portable
// path — what a big-endian host always runs): every result must equal the
// reference loops bit for bit, NaN payloads and denormals included. The merge
// kernel is held to the reference in each shape the live plane uses it: in
// place (dst is a), fused (dst is fresh and a the local gradient — against
// copy-then-add, the two passes it replaces), and with a decoded contribution
// becoming the accumulator (dst is x). Under -race checkptr is on, so the
// misaligned case also proves the alignment guard runs before any cast.
func TestRawF32CodecFallbackMatchesFastPath(t *testing.T) {
	pats := []uint32{
		0, 0x80000000, 1, 0x807fffff, 0x3f800000, 0xbf800000, 0x7f7fffff,
		0x7f800000, 0xff800000, 0x7fc00000, 0xffc00001, 0x7f800001, 0x7fa5a5a5,
	}
	littleEndian := binary.NativeEndian.Uint16([]byte{1, 0}) == 1
	sameBits := func(what string, n int, name string, got, ref []float32, canon bool) {
		t.Helper()
		for i := range ref {
			g, r := math.Float32bits(got[i]), math.Float32bits(ref[i])
			if canon {
				g, r = canonNaN(g), canonNaN(r)
			}
			if g != r {
				t.Fatalf("n=%d %s: %s[%d] = %08x, reference %08x", n, name, what, i, g, r)
			}
		}
	}
	for _, n := range []int{0, 1, 7, 8, 9, 1000} {
		v := make([]float32, n)
		acc := make([]float32, n)   // finite, so x+NaN keeps the payload's NaN in any operand order
		local := make([]float32, n) // every pattern again, shifted: NaN meets NaN, Inf meets -Inf
		for i := range v {
			v[i] = math.Float32frombits(pats[i%len(pats)] ^ uint32(i/len(pats))<<3)
			acc[i] = float32(i%17) - 8.25
			local[i] = math.Float32frombits(pats[(i+4)%len(pats)])
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
			sameBits("copyBytesF32", n, name, got, ref, false)

			copy(got, acc)
			copy(ref, acc)
			if err := sumBytesF32(got, got, buf); err != nil {
				t.Fatalf("n=%d %s: sumBytesF32 in place: %v", n, name, err)
			}
			refAddBytesF32(ref, want)
			sameBits("sumBytesF32 in place", n, name, got, ref, false)

			for who, a := range map[string][]float32{"finite": acc, "every pattern": local} {
				clear(got)
				if err := sumBytesF32(got, a, buf); err != nil {
					t.Fatalf("n=%d %s: sumBytesF32 fused: %v", n, name, err)
				}
				copy(ref, a)
				refAddBytesF32(ref, want)
				sameBits("sumBytesF32 fused, local "+who, n, name, got, ref, who != "finite")

				refCopyBytesF32(got, want) // got is now the decoded contribution x
				sumF32(got, a, got)
				sameBits("sumF32 into x, local "+who, n, name, got, ref, who != "finite")
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
		if err := sumBytesF32(make([]float32, n), make([]float32, n), odd); err == nil {
			t.Fatalf("n=%d: sumBytesF32 accepted a %d-byte payload", n, len(odd))
		}
		if err := sumBytesF32(make([]float32, n), make([]float32, n+1), odd[:4*n]); err == nil {
			t.Fatalf("n=%d: sumBytesF32 accepted operands of %d and %d elements", n, n, n+1)
		}
		l.Release()
	}
}

// BenchmarkRawF32Codec times the raw conversions on a leased (aligned)
// 1 Mi-element payload, with the reference loops beside them; the fused merge
// stands beside the copy-then-add it replaces.
func BenchmarkRawF32Codec(b *testing.B) {
	const n = 1 << 20
	v := make([]float32, n)
	tensor.NewRNG(42).FillNormal(v, 1)
	var l kernels.Lease
	defer l.Release()
	payload := l.Bytes(4 * n)
	refF32IntoBytes(payload, v)
	dst := make([]float32, n)
	local := make([]float32, n)
	tensor.NewRNG(43).FillNormal(local, 1)
	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"f32IntoBytes", func() { f32IntoBytes(payload, v) }},
		{"f32IntoBytes/reference", func() { refF32IntoBytes(payload, v) }},
		{"copyBytesF32", func() { _ = copyBytesF32(dst, payload) }},
		{"copyBytesF32/reference", func() { refCopyBytesF32(dst, payload) }},
		{"sumBytesF32/inplace", func() { _ = sumBytesF32(dst, dst, payload) }},
		{"sumBytesF32/inplace/reference", func() { refAddBytesF32(dst, payload) }},
		{"sumBytesF32/fused", func() { _ = sumBytesF32(dst, local, payload) }},
		{"sumBytesF32/fused/copy-then-add", func() { copy(dst, local); _ = sumBytesF32(dst, dst, payload) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(4 * n)
			for i := 0; i < b.N; i++ {
				bc.run()
			}
		})
	}
}
