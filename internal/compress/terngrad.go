package compress

import (
	"fmt"
	"sync"

	"hipress/internal/kernels"
	"hipress/internal/tensor"
)

// TernGrad implements the generalized low-bitwidth stochastic quantization of
// Wen et al. (NeurIPS 2017), following the exact formulation the paper's
// Fig. 5 expresses in CompLL's DSL:
//
//	gap  = (max - min) / (2^bitwidth - 1)
//	q[i] = floor((g[i]-min)/gap + U[0,1))          // stochastic rounding
//	g'   = min + q[i]*gap                          // reconstruction
//
// bitwidth=2 is classic TernGrad territory (4 levels); Fig. 12b sweeps
// bitwidth over {2, 4, 8}. Stochastic rounding makes the quantizer unbiased:
// E[g'] = g, which is what preserves convergence without error feedback
// (though combining it with ErrorFeedback is harmless and slightly better).
//
// Payload layout (little-endian):
//
//	header(8) | bitwidth uint8 | pad(3) | min float32 | max float32 |
//	packed q values, ceil(n*bitwidth/8) bytes
type TernGrad struct {
	bitwidth int
	rng      *tensor.RNG
}

// NewTernGrad returns a quantizer with the given bitwidth (1..8) and
// stochastic-rounding seed. The seed makes experiments reproducible; two
// encoders with the same seed and inputs emit identical payloads.
func NewTernGrad(bitwidth int, seed uint64) (*TernGrad, error) {
	if bitwidth < 1 || bitwidth > 8 {
		return nil, fmt.Errorf("compress: terngrad bitwidth %d out of [1,8]", bitwidth)
	}
	return &TernGrad{bitwidth: bitwidth, rng: tensor.NewRNG(seed)}, nil
}

// SetStream implements StreamSetter.
func (t *TernGrad) SetStream(key uint64) { t.rng.Restore(tensor.RNGState(key)) }

// Name implements Compressor.
func (t *TernGrad) Name() string { return fmt.Sprintf("terngrad-%dbit", t.bitwidth) }

// CompressedSize implements Compressor.
func (t *TernGrad) CompressedSize(n int) int {
	return headerSize + 12 + (n*t.bitwidth+7)/8
}

// EncodeInto implements Compressor: the chunked kernel. min/max are found
// by per-chunk partials (min/max reduction is exact under any grouping), and
// each chunk packs its own disjoint byte range of the body — lo*bitwidth is
// always byte-aligned because ChunkElems is a multiple of 8. Stochastic
// rounding draws come from tensor.Float64At over the generator's saved
// state, so element i sees the exact draw the sequential encoder would have
// given it no matter which worker packs it; the generator is then advanced
// past n draws with Skip. The payload and the RNG stream position are
// bit-identical to the sequential implementation.
func (t *TernGrad) EncodeInto(dst []byte, grad []float32) ([]byte, error) {
	return t.encode(dst, grad, nil)
}

// EncodeFused implements FusedEncoder.
func (t *TernGrad) EncodeFused(dst []byte, grad, residual []float32) ([]byte, error) {
	if len(residual) != len(grad) {
		return nil, errSize("terngrad residual", len(residual), len(grad))
	}
	return t.encode(dst, grad, residual)
}

func (t *TernGrad) encode(dst []byte, grad, res []float32) ([]byte, error) {
	n := len(grad)
	out := ensurePayload(dst, t.CompressedSize(n))
	putHeader(out, payloadMagic, algoTernGrad, n)
	out[headerSize] = byte(t.bitwidth)
	out[headerSize+1], out[headerSize+2], out[headerSize+3] = 0, 0, 0

	chunks := kernels.NumChunks(n)
	op := ternOpPool.Get().(*ternOp)
	op.n, op.bitwidth = n, t.bitwidth
	op.grad, op.res = grad, res
	op.parts = growSlice(op.parts, chunks)
	op.phase = ternMinMax
	kernels.Default().Run(chunks, op)

	var mn, mx float32
	for c := 0; c < chunks; c++ {
		p := &op.parts[c]
		if c == 0 {
			mn, mx = p.mn, p.mx
			continue
		}
		if p.mn < mn {
			mn = p.mn
		}
		if p.mx > mx {
			mx = p.mx
		}
	}
	putF32(out[headerSize+4:], mn)
	putF32(out[headerSize+8:], mx)

	levels := uint32(1)<<uint(t.bitwidth) - 1
	gap := (float64(mx) - float64(mn)) / float64(levels)
	body := out[headerSize+12:]
	op.body = body
	op.mn, op.gap, op.levels = float64(mn), gap, levels
	op.s0 = t.rng.Save()
	op.phase = ternPack
	kernels.Default().Run(chunks, op)
	if gap != 0 {
		// The pack pass consumed draw i for element i via Float64At; leave
		// the generator exactly where n sequential draws would.
		t.rng.Skip(uint64(n))
	}
	op.release()
	return out, nil
}

// DecodeInto implements Compressor, chunk-parallel.
func (t *TernGrad) DecodeInto(dst []float32, payload []byte) error {
	return t.decode(dst, payload, false)
}

// DecodeAdd implements DecodeAdder, chunk-parallel.
func (t *TernGrad) DecodeAdd(payload []byte, dst []float32) error {
	return t.decode(dst, payload, true)
}

func (t *TernGrad) decode(dst []float32, payload []byte, add bool) error {
	n := len(dst)
	if err := checkHeader(payload, payloadMagic, algoTernGrad, n); err != nil {
		return err
	}
	if want := t.CompressedSize(n); len(payload) != want {
		return errSize("terngrad", len(payload), want)
	}
	if bw := int(payload[headerSize]); bw != t.bitwidth {
		return fmt.Errorf("compress: terngrad payload bitwidth %d, decoder has %d", bw, t.bitwidth)
	}
	mn := float64(getF32(payload[headerSize+4:]))
	mx := float64(getF32(payload[headerSize+8:]))
	levels := uint32(1)<<uint(t.bitwidth) - 1

	op := ternOpPool.Get().(*ternOp)
	op.n, op.bitwidth = n, t.bitwidth
	op.dst, op.add = dst, add
	op.body = payload[headerSize+12:]
	op.mn, op.gap, op.levels = mn, (mx-mn)/float64(levels), levels
	op.phase = ternDecode
	kernels.Default().Run(kernels.NumChunks(n), op)
	op.release()
	return nil
}

// --- chunked kernel ----------------------------------------------------------

type ternPart struct{ mn, mx float32 }

const (
	ternMinMax = iota + 1
	ternPack
	ternDecode
)

type ternOp struct {
	phase    int
	n        int
	bitwidth int
	grad     []float32 // encode input
	res      []float32 // fused: residual in, v then updated residual out
	body     []byte    // packed-bits region of the payload
	parts    []ternPart
	dst      []float32 // decode output
	add      bool

	mn, gap float64
	levels  uint32
	s0      tensor.RNGState // saved generator state for Float64At
}

var ternOpPool = sync.Pool{New: func() any { return new(ternOp) }}

func (o *ternOp) release() {
	o.grad, o.res, o.body, o.dst = nil, nil, nil, nil
	ternOpPool.Put(o)
}

func (o *ternOp) RunChunk(c int) {
	lo, hi := kernels.ChunkRange(o.n, c)
	bw := o.bitwidth
	switch o.phase {
	case ternMinMax:
		grad, res := o.grad, o.res
		g := grad[lo]
		if res != nil {
			g += res[lo]
			res[lo] = g
		}
		mn, mx := g, g
		for i := lo + 1; i < hi; i++ {
			g := grad[i]
			if res != nil {
				g += res[i]
				res[i] = g
			}
			if g < mn {
				mn = g
			}
			if g > mx {
				mx = g
			}
		}
		o.parts[c] = ternPart{mn: mn, mx: mx}
	case ternPack:
		body := o.body
		// This chunk owns bytes [lo*bw/8, ceil(hi*bw/8)): lo*bw is a
		// multiple of 8 by chunk geometry, and only the final chunk can end
		// mid-byte. Clear the range first — the buffer may be reused.
		bi := lo * bw >> 3
		for b := bi; b < (hi*bw+7)>>3; b++ {
			body[b] = 0
		}
		src := o.grad
		if o.res != nil {
			src = o.res // holds v after the min/max pass
		}
		if o.gap == 0 {
			// Constant input: all q are zero (no RNG draws, matching the
			// sequential encoder); only the fused residual needs finishing.
			if res := o.res; res != nil {
				mn := float32(o.mn)
				for i := lo; i < hi; i++ {
					res[i] -= mn
				}
			}
			return
		}
		mn, gap := o.mn, o.gap
		levels := o.levels
		res := o.res
		var acc uint64
		accBits := 0
		for i := lo; i < hi; i++ {
			r := (float64(src[i]) - mn) / gap
			q := uint32(r + tensor.Float64At(o.s0, uint64(i)))
			if q > levels {
				q = levels
			}
			if res != nil {
				// Fused residual: v - decode(q), with decode computed
				// exactly as DecodeAdd would.
				res[i] = src[i] - float32(mn+float64(q)*gap)
			}
			acc |= uint64(q) << uint(accBits)
			accBits += bw
			for accBits >= 8 {
				body[bi] = byte(acc)
				acc >>= 8
				accBits -= 8
				bi++
			}
		}
		if accBits > 0 {
			body[bi] = byte(acc)
		}
	case ternDecode:
		body, dst := o.body, o.dst
		mn, gap := o.mn, o.gap
		mask := uint64(o.levels)
		bi := lo * bw >> 3
		var acc uint64
		accBits := 0
		if o.add {
			for i := lo; i < hi; i++ {
				for accBits < bw {
					acc |= uint64(body[bi]) << uint(accBits)
					accBits += 8
					bi++
				}
				q := acc & mask
				acc >>= uint(bw)
				accBits -= bw
				dst[i] += float32(mn + float64(q)*gap)
			}
		} else {
			for i := lo; i < hi; i++ {
				for accBits < bw {
					acc |= uint64(body[bi]) << uint(accBits)
					accBits += 8
					bi++
				}
				q := acc & mask
				acc >>= uint(bw)
				accBits -= bw
				dst[i] = float32(mn + float64(q)*gap)
			}
		}
	}
}
