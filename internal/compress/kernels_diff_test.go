package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"
	"testing"

	"hipress/internal/kernels"
	"hipress/internal/tensor"
)

// Differential gate for the branch-free kernels: for raw float32 bit
// patterns — NaNs with several payloads, ±Inf, ±0, denormals, constant
// inputs, everything tied at the threshold — payload bytes, error-feedback
// residual bits, onebit's, DGC's and GradDrop's DecodeInto/DecodeAdd outputs
// and error-vs-success must equal the scalar loops in reference_test.go, fused
// and unfused, for one and two workers, across two consecutive encodes on one
// residual.

// specialBits are the float32 bit patterns where a bit trick and a float
// compare are most likely to part ways.
var specialBits = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // denormals
	0x00800000, 0x80800000, // smallest normals
	0x3f800000, 0xbf800000, 0x3f000000, 0xbf000000, // ±1, ±0.5
	0x7e800000, 0x7f000000, 0xff000000, // magnitudes in the top exponent byte
	0x7f7fffff, 0xff7fffff, // ±max finite
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fffffff, 0xffffffff, 0x7fa5a5a5, // NaNs
}

func fromBits(bits []uint32) []float32 {
	out := make([]float32, len(bits))
	for i, b := range bits {
		out[i] = math.Float32frombits(b)
	}
	return out
}

// canonNaN collapses every NaN onto one bit pattern. Which payload survives
// NaN+NaN is the hardware's first-operand rule applied to an operand order the
// compiler is free to choose per loop shape, so NaN payloads (not NaN-ness)
// are outside the identity contract; every other value compares bit for bit.
func canonNaN(b uint32) uint32 {
	if b&^f32SignBit > f32InfBits {
		return 0x7fc00000
	}
	return b
}

// sameBits returns the first index where a and b differ, or -1.
func sameBits(a, b []float32) int {
	for i := range a {
		if canonNaN(math.Float32bits(a[i])) != canonNaN(math.Float32bits(b[i])) {
			return i
		}
	}
	return -1
}

// samePayload compares two payloads of one algorithm byte for byte, reading
// the data-derived float fields (onebit's two means, the sparsifiers' value
// column) through canonNaN.
func samePayload(algo uint16, a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = bytes.Clone(a), bytes.Clone(b)
	for _, p := range [][]byte{a, b} {
		var floats []byte
		switch algo {
		case algoOnebit:
			floats = p[headerSize : headerSize+8]
		case algoDGC, algoGradDrop:
			k := int(binary.LittleEndian.Uint32(p[headerSize:]))
			floats = p[headerSize+4+4*k:]
		}
		for i := 0; i+4 <= len(floats); i += 4 {
			binary.LittleEndian.PutUint32(floats[i:], canonNaN(binary.LittleEndian.Uint32(floats[i:])))
		}
	}
	return bytes.Equal(a, b)
}

// diffAlgo pairs a compressor under test with its scalar reference.
type diffAlgo struct {
	name string
	mk   func(t testing.TB) (c Compressor, ref func(grad, res []float32) ([]byte, error))
}

var diffAlgos = []diffAlgo{
	{"onebit", func(testing.TB) (Compressor, func(grad, res []float32) ([]byte, error)) {
		return Onebit{}, func(grad, res []float32) ([]byte, error) { return refOnebitEncode(grad, res), nil }
	}},
	{"dgc-0.001", mkDGCDiff(0.001)},
	// The last ratio where k is at most one per 32-element block (k equals
	// the block count at multiples of 32), so the k-th largest block maximum
	// bounds the threshold, and the first past it.
	{"dgc-0.03125", mkDGCDiff(0.03125)},
	{"dgc-0.035", mkDGCDiff(0.035)},
	{"dgc-0.25", mkDGCDiff(0.25)},
	{"dgc-1", mkDGCDiff(1)},
	{"tbq", func(testing.TB) (Compressor, func(grad, res []float32) ([]byte, error)) {
		q := NewTBQ(0.05)
		return q, func(grad, res []float32) ([]byte, error) { return refTBQEncode(q, grad, res), nil }
	}},
	{"graddrop", func(t testing.TB) (Compressor, func(grad, res []float32) ([]byte, error)) {
		g, err := NewGradDrop(0.01, 9)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := NewGradDrop(0.01, 9)
		return g, func(grad, res []float32) ([]byte, error) { return refGradDropEncode(r, grad, res), nil }
	}},
}

func mkDGCDiff(ratio float64) func(testing.TB) (Compressor, func(grad, res []float32) ([]byte, error)) {
	return func(t testing.TB) (Compressor, func(grad, res []float32) ([]byte, error)) {
		d, err := NewDGC(ratio)
		if err != nil {
			t.Fatal(err)
		}
		return d, func(grad, res []float32) ([]byte, error) { return refDGCEncode(d, grad, res) }
	}
}

// refDecoders maps an algorithm id to the scalar decode / decode-add its
// DecodeInto and DecodeAdd are held to.
var refDecoders = map[uint16]func(dst []float32, payload []byte, add bool){
	algoOnebit:   refOnebitDecode,
	algoDGC:      refIVDecode,
	algoGradDrop: refIVDecode,
}

// checkKernelsMatchReference encodes grads (consecutive gradients of one
// length, sharing one residual when fused) through every rewritten kernel and
// its reference and fails on the first difference.
func checkKernelsMatchReference(t testing.TB, label string, grads [][]float32) {
	t.Helper()
	n := len(grads[0])
	for _, workers := range []int{1, 2} {
		old := kernels.SetWorkers(workers)
		for _, a := range diffAlgos {
			for _, fused := range []bool{false, true} {
				c, ref := a.mk(t)
				var res, refRes []float32
				if fused {
					res, refRes = make([]float32, n), make([]float32, n)
				}
				for round, grad := range grads {
					where := func() string {
						return label + "/" + a.name + map[bool]string{false: "/unfused", true: "/fused"}[fused] +
							"/w" + strconv.Itoa(workers) + "/n" + strconv.Itoa(n) + "/round" + strconv.Itoa(round)
					}
					dst := make([]byte, MaxEncodedSize(c, n))
					var got []byte
					var err error
					if fused {
						got, err = encodeFused(c, dst, grad, res)
					} else {
						got, err = c.EncodeInto(dst, grad)
					}
					want, refErr := ref(grad, refRes)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("%s: kernel err=%v, reference err=%v", where(), err, refErr)
					}
					if err != nil {
						break
					}
					if !samePayload(binary.LittleEndian.Uint16(want[2:]), got, want) {
						t.Fatalf("%s: payload differs from reference\n got %x\nwant %x", where(), clip(got), clip(want))
					}
					if i := sameBits(res, refRes); i >= 0 {
						t.Fatalf("%s: residual[%d] = %08x, reference %08x", where(), i,
							math.Float32bits(res[i]), math.Float32bits(refRes[i]))
					}
					refDecode := refDecoders[binary.LittleEndian.Uint16(want[2:])]
					if refDecode == nil {
						continue // tbq's decode loops were not rewritten
					}
					dec, refDec := make([]float32, n), make([]float32, n)
					copy(dec, grad) // DecodeInto must overwrite what dst held
					if err := c.DecodeInto(dec, got); err != nil {
						t.Fatalf("%s: DecodeInto: %v", where(), err)
					}
					refDecode(refDec, want, false)
					if i := sameBits(dec, refDec); i >= 0 {
						t.Fatalf("%s: DecodeInto[%d] = %08x, reference %08x", where(), i,
							math.Float32bits(dec[i]), math.Float32bits(refDec[i]))
					}
					copy(dec, grad) // accumulate onto arbitrary bit patterns
					copy(refDec, grad)
					if err := DecodeAdd(c, got, dec); err != nil {
						t.Fatalf("%s: DecodeAdd: %v", where(), err)
					}
					refDecode(refDec, want, true)
					if i := sameBits(dec, refDec); i >= 0 {
						t.Fatalf("%s: DecodeAdd[%d] = %08x, reference %08x", where(), i,
							math.Float32bits(dec[i]), math.Float32bits(refDec[i]))
					}
				}
			}
		}
		kernels.SetWorkers(old)
	}
}

func clip(b []byte) []byte {
	if len(b) > 64 {
		return b[:64]
	}
	return b
}

// randSign flips x's sign bit with probability 1/2.
func randSign(x uint32, rng *tensor.RNG) float32 {
	return math.Float32frombits(x | uint32(rng.Intn(2))<<31)
}

// diffGens each fill one gradient; the seed differs between the two
// consecutive encodes. The last six aim at DGC's selection: its 1/8-octave
// magnitude buckets (a pattern's top 11 bits), its 32-element block maxima,
// the bound on the threshold they give and the candidate gather they steer.
var diffGens = []struct {
	name string
	fill func(g []float32, rng *tensor.RNG)
}{
	{"normal", func(g []float32, rng *tensor.RNG) { rng.FillNormal(g, 1) }},
	{"specials", func(g []float32, rng *tensor.RNG) {
		off := rng.Intn(len(specialBits))
		for i := range g {
			g[i] = math.Float32frombits(specialBits[(i+off)%len(specialBits)])
		}
	}},
	{"random-bits", func(g []float32, rng *tensor.RNG) {
		for i := range g {
			g[i] = math.Float32frombits(uint32(rng.Uint64()))
		}
	}},
	{"normal-with-specials", func(g []float32, rng *tensor.RNG) {
		rng.FillNormal(g, 1)
		for i := rng.Intn(97); i < len(g); i += 97 {
			g[i] = math.Float32frombits(specialBits[rng.Intn(len(specialBits))])
		}
	}},
	{"all-equal", func(g []float32, rng *tensor.RNG) {
		x := math.Float32frombits(specialBits[rng.Intn(len(specialBits))])
		for i := range g {
			g[i] = x
		}
	}},
	{"ties-at-threshold", func(g []float32, rng *tensor.RNG) {
		for i := range g {
			g[i] = 1
			if rng.Intn(2) == 0 {
				g[i] = -1
			}
		}
		if len(g) > 3 {
			g[rng.Intn(len(g))] = 2
		}
	}},
	{"nan-then-ties", func(g []float32, rng *tensor.RNG) {
		for i := range g {
			g[i] = 1
		}
		for i := 0; i < len(g); i += 1 + rng.Intn(4000) {
			g[i] = math.Float32frombits(0x7fc00000 | uint32(i)&0xffff)
		}
	}},
	{"two-valued", func(g []float32, rng *tensor.RNG) {
		for i := range g {
			g[i] = float32(1+rng.Intn(2)) / 2
		}
	}},
	{"denormals", func(g []float32, rng *tensor.RNG) {
		for i := range g {
			g[i] = math.Float32frombits(uint32(rng.Uint64())&0x807fffff | uint32(rng.Intn(2))<<23)
		}
	}},
	{"one-bucket", func(g []float32, rng *tensor.RNG) {
		// Distinct magnitudes, all in [1, 1.125): every element contends for
		// the threshold and both low-bit radix rounds have work to do.
		off := rng.Intn(1 << 20)
		for i := range g {
			g[i] = randSign(0x3f800000|uint32((i+off)*2654435761)&0xfffff, rng)
		}
	}},
	{"bucket-edges", func(g []float32, rng *tensor.RNG) {
		// The first, the last and the neighbours' adjacent patterns of three
		// consecutive buckets, in proportions that move the threshold around.
		b := uint32(0x3f8+rng.Intn(3)) << 20
		edges := []uint32{b - 1, b, b | 0xfffff, b + 1<<20, b + 1<<20 | 0xfffff, b + 2<<20}
		skew := 1 + rng.Intn(4)
		for i := range g {
			g[i] = randSign(edges[rng.Intn(len(edges)*skew)%len(edges)], rng)
		}
	}},
	{"lone-spike-per-block", func(g []float32, rng *tensor.RNG) {
		// One large magnitude at the first or last position of each 32-element
		// block, the partial tail block included, over a small bell.
		rng.FillNormal(g, 0.01)
		for lo := 0; lo < len(g); lo += 32 {
			i := min(lo+31*rng.Intn(2), len(g)-1)
			g[i] = randSign(math.Float32bits(10+float32(rng.Intn(1000))), rng)
		}
	}},
	{"nan-is-block-max", func(g []float32, rng *tensor.RNG) {
		// NaNs of both signs, each its block's largest pattern, over a few
		// heavily tied values: at ratio 0.001 about as many NaNs as k, so the
		// float recount over the candidates both succeeds on ties and fails.
		for i := range g {
			g[i] = float32(rng.Intn(9)-4) / 4
		}
		for i := rng.Intn(64); i < len(g); i += 1 + rng.Intn(2000) {
			g[i] = randSign(0x7f800001+uint32(rng.Intn(1<<22)), rng)
		}
	}},
	{"clustered-top", func(g []float32, rng *tensor.RNG) {
		// The n/1000 largest magnitudes (dgc-0.001's k) packed into adjacent
		// blocks over a small bell: the k-th largest block maximum is a bell
		// value far under the threshold, and the visited blocks holding the
		// top are full of candidates.
		rng.FillNormal(g, 0.01)
		top := max(1, len(g)/1000)
		lo := 32 * rng.Intn((len(g)-top)/32+1)
		for i := lo; i < lo+top; i++ {
			g[i] = randSign(math.Float32bits(10+float32(rng.Intn(1000))), rng)
		}
	}},
	{"block-max-ties", func(g []float32, rng *tensor.RNG) {
		// Every block's maximum, the partial tail block's included, is the
		// same pattern, at one or two random positions over smaller values:
		// the bound ties across every block.
		x := uint32(0x3f800000 + rng.Intn(1<<20))
		for i := range g {
			g[i] = randSign(uint32(rng.Intn(int(x)+1)), rng)
		}
		for lo := 0; lo < len(g); lo += 32 {
			for range 1 + rng.Intn(2) {
				g[lo+rng.Intn(min(32, len(g)-lo))] = randSign(x, rng)
			}
		}
	}},
}

func TestKernelsMatchReference(t *testing.T) {
	// At 288 elements dgc-0.035 keeps one more than the 9 blocks.
	sizes := []int{0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 288, kernels.ChunkElems - 32, kernels.ChunkElems - 1,
		kernels.ChunkElems, kernels.ChunkElems + 1, kernels.ChunkElems + 32, 3*kernels.ChunkElems + 5}
	for gi, gen := range diffGens {
		for _, n := range sizes {
			if n > kernels.ChunkElems+1 && (testing.Short() || raceEnabled) && gi > 1 {
				continue // the multi-chunk size once per broad input class is enough there
			}
			grads := make([][]float32, 2)
			for r := range grads {
				grads[r] = make([]float32, n)
				if n > 0 {
					gen.fill(grads[r], tensor.NewRNG(uint64(1000*gi+10*n+r+1)))
				}
			}
			checkKernelsMatchReference(t, gen.name, grads)
		}
	}
}

// TestDGCResidualPileUpMatchesReference runs 300 fused encodes of one
// repeated bell gradient on one running residual — the regime BenchmarkDGCSelect's
// ef-steady row times, where every |v| climbs until it is selected and the
// threshold's bucket fills — and holds payload and residual to the reference
// at every step.
func TestDGCResidualPileUpMatchesReference(t *testing.T) {
	n := 3*kernels.ChunkElems + 5
	steps := 300
	if testing.Short() || raceEnabled {
		steps = 60
	}
	grad := randGrad(17, n, 1)
	for _, ratio := range []float64{0.001, 0.01} {
		d, err := NewDGC(ratio)
		if err != nil {
			t.Fatal(err)
		}
		res, refRes := make([]float32, n), make([]float32, n)
		dst := make([]byte, d.CompressedSize(n))
		for step := 0; step < steps; step++ {
			got, err := d.EncodeFused(dst, grad, res)
			if err != nil {
				t.Fatalf("ratio %g step %d: %v", ratio, step, err)
			}
			want, err := refDGCEncode(d, grad, refRes)
			if err != nil {
				t.Fatalf("ratio %g step %d: reference: %v", ratio, step, err)
			}
			if !samePayload(algoDGC, got, want) {
				t.Fatalf("ratio %g step %d: payload differs from reference", ratio, step)
			}
			if i := sameBits(res, refRes); i >= 0 {
				t.Fatalf("ratio %g step %d: residual[%d] = %08x, reference %08x", ratio, step, i,
					math.Float32bits(res[i]), math.Float32bits(refRes[i]))
			}
		}
	}
}

// FuzzKernelsMatchReference feeds arbitrary float32 bit patterns through the
// same comparison. sel bit 0 tiles the pattern past a chunk boundary.
func FuzzKernelsMatchReference(f *testing.F) {
	seed := make([]byte, 4*len(specialBits))
	for i, b := range specialBits {
		binary.LittleEndian.PutUint32(seed[4*i:], b)
	}
	f.Add(seed, uint8(0))
	f.Add(seed, uint8(1))
	f.Add(seed[:4*7], uint8(0))
	f.Add([]byte{}, uint8(0))
	normal := make([]byte, 4*64)
	for i, x := range randGrad(5, 64, 1) {
		binary.LittleEndian.PutUint32(normal[4*i:], math.Float32bits(x))
	}
	f.Add(normal, uint8(1))
	for gi, gen := range diffGens {
		g := make([]float32, 100) // three blocks and a partial one
		gen.fill(g, tensor.NewRNG(uint64(gi+1)))
		b := make([]byte, 4*len(g))
		for i, x := range g {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
		}
		f.Add(b, uint8(gi&1))
	}

	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		pat := make([]uint32, min(len(data)/4, 2048))
		for i := range pat {
			pat[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		n := len(pat)
		if sel&1 != 0 && n > 0 {
			n += kernels.ChunkElems
		}
		first := make([]uint32, n)
		second := make([]uint32, n)
		for i := range first {
			first[i] = pat[i%len(pat)]
			second[i] = pat[(len(pat)-1-i%len(pat)+i/len(pat))%len(pat)]
		}
		checkKernelsMatchReference(t, "fuzz", [][]float32{fromBits(first), fromBits(second)})
	})
}
