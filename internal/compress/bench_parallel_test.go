package compress

import (
	"fmt"
	"math"
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

// BenchmarkDGCSelect times DGC's exact top-k selection where the live plane
// calls it — one call per tensor, so the 256-element rows are fixed cost and
// the 1 Mi rows bandwidth — at the registry-default ratio. The fused rows zero
// the residual inside the timed loop (the same memclr on either side of a
// comparison), so that v = grad + residual is the normal input every time.
// ef-steady keeps the residual running instead, under one repeated gradient:
// every |v| then climbs until selected, the bell's tail is cut off at the
// threshold, the threshold's 1/8-octave holds several per cent of the
// elements and the gather visits most blocks — the regime a long
// error-feedback run under a stationary gradient settles into. The three
// degenerate rows are the shapes where every element is a candidate and the
// gather buys nothing: they bound the worst case (DESIGN.md "Fused error
// feedback"). The ratio rows are fused bells on both sides of 1/32, where
// the floor stops being the k-th largest block maximum and becomes the
// threshold's bucket floor.
func BenchmarkDGCSelect(b *testing.B) {
	run := func(name string, ratio float64, g []float32, fused, running bool) {
		b.Run(name, func(b *testing.B) {
			d, err := NewDGC(ratio)
			if err != nil {
				b.Fatal(err)
			}
			n := len(g)
			var res []float32
			if fused {
				res = make([]float32, n)
			}
			dst := make([]byte, d.CompressedSize(n))
			if _, err := d.encode(dst, g, res); err != nil { // warm the op pool
				b.Fatal(err)
			}
			b.SetBytes(int64(4 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !running {
					clear(res)
				}
				if _, err := d.encode(dst, g, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{256, 8 << 10, 32 << 10, 1 << 20} {
		g := benchGrad(n)
		run(fmt.Sprintf("normal/%d/unfused", n), 0.001, g, false, false)
		run(fmt.Sprintf("normal/%d/fused", n), 0.001, g, true, false)
	}
	const n = 1 << 20
	run("ef-steady/1048576", 0.001, benchGrad(n), true, true)
	constant := make([]float32, n)
	oneBucket := make([]float32, n)
	for i := range constant {
		constant[i] = 0.25
		// n distinct magnitudes in [1, 1.125): all of one 1/8-octave bucket.
		oneBucket[i] = math.Float32frombits(0x3f800000 | uint32(i*2654435761)&(1<<20-1))
	}
	run("constant/1048576", 0.001, constant, false, false)
	run("one-bucket/1048576", 0.001, oneBucket, false, false)
	run("ratio-1/1048576", 1, benchGrad(n), false, false)
	for _, ratio := range []float64{0.01, 0.03, 0.05, 0.25} {
		run(fmt.Sprintf("ratio-%g/1048576/fused", ratio), ratio, benchGrad(n), true, false)
	}
}
