package compress

import (
	"fmt"
	"testing"

	"hipress/internal/kernels"
	"hipress/internal/tensor"
)

// Benchmarks for the chunked kernel plane. Run with -cpu to sweep worker
// counts (the pool sizes itself from GOMAXPROCS):
//
//	go test -bench 'EncodeParallel|EncodeFusedParallel|DecodeParallel' -cpu 1,4,8 -benchmem ./internal/compress/
//
// SetBytes reports effective raw-gradient GB/s; -benchmem pins the
// zero-alloc steady state (0 B/op once pools are warm). Inputs come from
// tensor.RNG at full length — never a short pattern tiled up, which the
// branch predictor learns and which flatters any branchy loop. The raw
// float32 wire codec's counterpart is BenchmarkRawF32Codec in internal/core.

var benchSizes = []int{1 << 16, 1 << 20, 4 << 20} // 256 KiB .. 16 MiB of raw floats

func benchGrad(n int) []float32 {
	g := make([]float32, n)
	tensor.NewRNG(42).FillNormal(g, 1)
	return g
}

func BenchmarkEncodeParallel(b *testing.B) {
	for _, name := range []string{"onebit", "tbq", "terngrad", "dgc", "graddrop"} {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/%d", name, n), func(b *testing.B) {
				c, err := New(name, nil)
				if err != nil {
					b.Fatal(err)
				}
				g := benchGrad(n)
				dst := make([]byte, MaxEncodedSize(c, n))
				if _, err := c.EncodeInto(dst, g); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(4 * n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.EncodeInto(dst, g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkEncodeFusedParallel(b *testing.B) {
	for _, name := range []string{"onebit", "terngrad", "dgc"} {
		n := 1 << 20
		b.Run(name, func(b *testing.B) {
			c, err := New(name, nil)
			if err != nil {
				b.Fatal(err)
			}
			g := benchGrad(n)
			res := make([]float32, n)
			dst := make([]byte, MaxEncodedSize(c, n))
			b.SetBytes(int64(4 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := encodeFused(c, dst, g, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeParallel(b *testing.B) {
	for _, name := range []string{"onebit", "tbq", "terngrad", "dgc", "graddrop"} {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/%d", name, n), func(b *testing.B) {
				c, err := New(name, nil)
				if err != nil {
					b.Fatal(err)
				}
				g := benchGrad(n)
				payload, err := Encode(c, g)
				if err != nil {
					b.Fatal(err)
				}
				dst := make([]float32, n)
				b.SetBytes(int64(4 * n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.DecodeInto(dst, payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDecodeParallelAdd times the fused decode+merge (DecodeAdd) — what
// a PS server runs once per peer contribution.
func BenchmarkDecodeParallelAdd(b *testing.B) {
	for _, name := range []string{"onebit", "tbq", "terngrad", "dgc", "graddrop"} {
		n := 1 << 20
		b.Run(fmt.Sprintf("%s/%d", name, n), func(b *testing.B) {
			c, err := New(name, nil)
			if err != nil {
				b.Fatal(err)
			}
			payload, err := Encode(c, benchGrad(n))
			if err != nil {
				b.Fatal(err)
			}
			acc := make([]float32, n)
			b.SetBytes(int64(4 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecodeAdd(c, payload, acc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeSerialBaseline pins the single-worker path (pool bypassed
// via SetWorkers) so CI can compare parallel speedup on multicore hosts
// without juggling -cpu flags.
func BenchmarkEncodeSerialBaseline(b *testing.B) {
	old := kernels.SetWorkers(1)
	defer kernels.SetWorkers(old)
	for _, name := range []string{"onebit", "terngrad", "dgc"} {
		n := 1 << 20
		b.Run(name, func(b *testing.B) {
			c, err := New(name, nil)
			if err != nil {
				b.Fatal(err)
			}
			g := benchGrad(n)
			dst := make([]byte, MaxEncodedSize(c, n))
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.EncodeInto(dst, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
