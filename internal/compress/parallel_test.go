package compress

import (
	"bytes"
	"math"
	"testing"

	"hipress/internal/kernels"
)

// newSeeded builds one compressor with a fixed seed (stochastic algorithms
// carry RNG state; determinism tests need identical streams per instance).
func newSeeded(t testing.TB, name string, seed float64) Compressor {
	t.Helper()
	c, err := New(name, Params{"seed": seed})
	if err != nil {
		t.Fatalf("New(%q): %v", name, err)
	}
	return c
}

// TestParallelMatchesSerial is the determinism pin for the chunked kernels:
// for every algorithm, every payload byte and every error-feedback residual
// bit produced with 2, 3, or 8 workers must equal the single-worker result —
// across tiny, odd, chunk-boundary, and multi-chunk sizes, and across
// *consecutive* encodes (so RNG stream positions are compared too, not just
// one payload). The worker pool spans fixed chunk boundaries that depend
// only on n, so parallelism must never show through in the bytes.
func TestParallelMatchesSerial(t *testing.T) {
	names := []string{"onebit", "tbq", "terngrad", "dgc", "graddrop"}
	sizes := []int{1, 7, 8, 9, 1000, kernels.ChunkElems - 1, kernels.ChunkElems,
		kernels.ChunkElems + 1, 3*kernels.ChunkElems + 17, 1<<20 + 3}
	workerSets := []int{2, 3, 8}
	const rounds = 3 // consecutive encodes: catches RNG stream divergence

	type ref struct {
		payloads  [][]byte
		residuals [][]float32
		decoded   [][]float32
	}

	run := func(name string, n, workers int) ref {
		old := kernels.SetWorkers(workers)
		defer kernels.SetWorkers(old)
		c := newSeeded(t, name, 7)
		var out ref
		res := make([]float32, n)
		for r := 0; r < rounds; r++ {
			grad := randGrad(uint64(n)*31+uint64(r)+1, n, 1)
			dst := make([]byte, MaxEncodedSize(c, n))
			p, err := EncodeInto(c, dst, grad)
			if err != nil {
				t.Fatalf("%s n=%d w=%d EncodeInto: %v", name, n, workers, err)
			}
			out.payloads = append(out.payloads, append([]byte(nil), p...))

			// Fused EF encode on a running residual (updated in place).
			fdst := make([]byte, MaxEncodedSize(c, n))
			if _, err := encodeFused(c, fdst, grad, res); err != nil {
				t.Fatalf("%s n=%d w=%d EncodeFused: %v", name, n, workers, err)
			}
			out.residuals = append(out.residuals, append([]float32(nil), res...))

			dec := make([]float32, n)
			if err := DecodeInto(c, dec, p); err != nil {
				t.Fatalf("%s n=%d w=%d DecodeInto: %v", name, n, workers, err)
			}
			out.decoded = append(out.decoded, dec)
		}
		return out
	}

	sameF32 := func(a, b []float32) bool {
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}

	for _, name := range names {
		for _, n := range sizes {
			if testing.Short() && n > 3*kernels.ChunkElems+17 {
				continue
			}
			serial := run(name, n, 1)
			for _, w := range workerSets {
				got := run(name, n, w)
				for r := 0; r < rounds; r++ {
					if !bytes.Equal(serial.payloads[r], got.payloads[r]) {
						t.Fatalf("%s n=%d: payload (round %d) differs between 1 and %d workers", name, n, r, w)
					}
					if !sameF32(serial.residuals[r], got.residuals[r]) {
						t.Fatalf("%s n=%d: EF residual (round %d) differs between 1 and %d workers", name, n, r, w)
					}
					if !sameF32(serial.decoded[r], got.decoded[r]) {
						t.Fatalf("%s n=%d: decode (round %d) differs between 1 and %d workers", name, n, r, w)
					}
				}
			}
		}
	}
}

// TestFusedMatchesUnfused pins the FusedEncoder contract: payload bytes and
// the updated residual from the fused one-sweep construction are
// bit-identical to the four-pass clone/encode/decode/subtract fallback.
func TestFusedMatchesUnfused(t *testing.T) {
	names := []string{"onebit", "tbq", "terngrad", "dgc", "graddrop"}
	for _, name := range names {
		for _, n := range []int{1, 9, 1000, kernels.ChunkElems + 5} {
			cF := newSeeded(t, name, 3)
			cU := newSeeded(t, name, 3)
			resF := randGrad(uint64(n)+5, n, 0.1)
			resU := append([]float32(nil), resF...)
			for r := 0; r < 3; r++ {
				grad := randGrad(uint64(n)*7+uint64(r)+2, n, 1)
				pF, err := encodeFused(cF, make([]byte, MaxEncodedSize(cF, n)), grad, resF)
				if err != nil {
					t.Fatalf("%s fused: %v", name, err)
				}
				pU, err := fallbackEncodeFused(cU, make([]byte, MaxEncodedSize(cU, n)), grad, resU)
				if err != nil {
					t.Fatalf("%s unfused: %v", name, err)
				}
				if !bytes.Equal(pF, pU) {
					t.Fatalf("%s n=%d round %d: fused payload differs from unfused", name, n, r)
				}
				for i := range resF {
					if math.Float32bits(resF[i]) != math.Float32bits(resU[i]) {
						t.Fatalf("%s n=%d round %d: residual[%d] fused %v != unfused %v", name, n, r, i, resF[i], resU[i])
					}
				}
			}
		}
	}
}

// TestSteadyStateAllocs asserts the zero-alloc contract on the pooled hot
// path: once buffers are leased and the op pools are warm, EncodeInto,
// EncodeFused, and DecodeInto perform no heap allocation. Skipped under the
// race detector, which deliberately defeats sync.Pool caching.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under -race; alloc counts are meaningless")
	}
	names := []string{"onebit", "tbq", "terngrad", "dgc", "graddrop"}
	n := 2*kernels.ChunkElems + 11 // multi-chunk: exercises the pooled partial arrays
	grad := randGrad(99, n, 1)
	for _, name := range names {
		c := newSeeded(t, name, 5)
		dst := make([]byte, MaxEncodedSize(c, n))
		res := make([]float32, n)
		dec := make([]float32, n)
		var payload []byte
		// Warm the op/arena pools and capture a payload for decode.
		for i := 0; i < 3; i++ {
			var err error
			if payload, err = EncodeInto(c, dst, grad); err != nil {
				t.Fatalf("%s warmup: %v", name, err)
			}
		}
		if a := testing.AllocsPerRun(20, func() {
			if _, err := EncodeInto(c, dst, grad); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s EncodeInto: %v allocs/op, want 0", name, a)
		}
		if a := testing.AllocsPerRun(20, func() {
			if _, err := encodeFused(c, dst, grad, res); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s EncodeFused: %v allocs/op, want 0", name, a)
		}
		payload, err := EncodeInto(c, dst, grad) // fresh payload matching dst
		if err != nil {
			t.Fatalf("%s encode: %v", name, err)
		}
		if a := testing.AllocsPerRun(20, func() {
			if err := DecodeInto(c, dec, payload); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s DecodeInto: %v allocs/op, want 0", name, a)
		}
		// The live merge: one fused decode+add per received contribution.
		if a := testing.AllocsPerRun(20, func() {
			if err := DecodeAdd(c, payload, dec); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s DecodeAdd: %v allocs/op, want 0", name, a)
		}
	}
}

// TestDGCSteadyStateAllocs holds DGC's selection scratch — histograms, block
// maxima, candidate regions, all pooled with the op — to the same contract
// at the sizes that shape it differently: one block-skipping chunk of a few
// blocks, one full chunk, and 32 chunks.
func TestDGCSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under -race; alloc counts are meaningless")
	}
	c := newSeeded(t, "dgc", 5)
	for _, n := range []int{256, 32 << 10, 1 << 20} {
		grad := randGrad(uint64(n), n, 1)
		dst := make([]byte, MaxEncodedSize(c, n))
		res := make([]float32, n)
		for _, fused := range []bool{false, true} {
			encode := func() {
				var err error
				if fused {
					_, err = encodeFused(c, dst, grad, res)
				} else {
					_, err = EncodeInto(c, dst, grad)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				encode() // warm the op pool and let the candidate regions reach their size
			}
			if a := testing.AllocsPerRun(20, encode); a != 0 {
				t.Errorf("dgc n=%d fused=%v: %v allocs/op, want 0", n, fused, a)
			}
		}
	}
}

// TestDecodeAddMatchesDecode pins the fused decode+merge: DecodeAdd into an
// accumulator equals Decode followed by element-wise add.
func TestDecodeAddMatchesDecode(t *testing.T) {
	for _, name := range []string{"onebit", "tbq", "terngrad", "dgc", "graddrop"} {
		n := kernels.ChunkElems + 3
		c := newSeeded(t, name, 11)
		grad := randGrad(123, n, 1)
		p, err := Encode(c, grad)
		if err != nil {
			t.Fatalf("%s encode: %v", name, err)
		}
		base := randGrad(321, n, 1)
		acc := append([]float32(nil), base...)
		if err := DecodeAdd(c, p, acc); err != nil {
			t.Fatalf("%s DecodeAdd: %v", name, err)
		}
		dec, err := Decode(c, p, n)
		if err != nil {
			t.Fatalf("%s decode: %v", name, err)
		}
		for i := range acc {
			want := base[i] + dec[i]
			if math.Float32bits(acc[i]) != math.Float32bits(want) {
				t.Fatalf("%s: DecodeAdd[%d]=%v, want %v", name, i, acc[i], want)
			}
		}
	}
}

// TestMaxEncodedSizeBounds checks that EncodeInto never produces a payload
// longer than MaxEncodedSize promises, across awkward sizes.
func TestMaxEncodedSizeBounds(t *testing.T) {
	for _, name := range []string{"onebit", "tbq", "terngrad", "dgc", "graddrop"} {
		c := newSeeded(t, name, 13)
		for _, n := range []int{0, 1, 9, 1000, kernels.ChunkElems + 1} {
			grad := randGrad(uint64(n)+9, n, 2)
			p, err := Encode(c, grad)
			if err != nil {
				t.Fatalf("%s encode: %v", name, err)
			}
			if max := MaxEncodedSize(c, n); len(p) > max {
				t.Fatalf("%s n=%d: payload %d bytes exceeds MaxEncodedSize %d", name, n, len(p), max)
			}
		}
	}
}
