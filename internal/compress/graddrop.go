package compress

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"hipress/internal/kernels"
	"hipress/internal/tensor"
)

// GradDrop implements gradient dropping (Aji & Heafield, EMNLP 2017): drop
// all but the largest-magnitude ratio of elements, with the selection
// threshold estimated from a small random sample instead of an exact
// statistic — the trick that makes the original algorithm cheap on huge
// tensors. Dropped mass is carried by ErrorFeedback.
//
// Because the threshold is sampled, the number of survivors is approximate
// (unlike DGC's exact top-k); the payload, the (index, value) layout shared
// with DGC (ivFrame), stores the actual count.
type GradDrop struct {
	ratio float64
	rng   *tensor.RNG
}

// sampleSize is the number of elements sampled to estimate the drop
// threshold, per the original paper's ~1000-element samples.
const sampleSize = 1000

// NewGradDrop returns a sparsifier keeping approximately ratio of the
// elements (0 < ratio <= 1), sampling with the given seed.
func NewGradDrop(ratio float64, seed uint64) (*GradDrop, error) {
	if ratio <= 0 || ratio > 1 {
		return nil, fmt.Errorf("compress: graddrop ratio %g out of (0,1]", ratio)
	}
	return &GradDrop{ratio: ratio, rng: tensor.NewRNG(seed)}, nil
}

// SetStream implements StreamSetter.
func (g *GradDrop) SetStream(key uint64) { g.rng.Restore(tensor.RNGState(key)) }

// Name implements Compressor.
func (g *GradDrop) Name() string { return fmt.Sprintf("graddrop-%g", g.ratio) }

// Ratio returns the configured keep fraction.
func (g *GradDrop) Ratio() float64 { return g.ratio }

// CompressedSize implements Compressor. The survivor count is approximate by
// design; this reports the expected size, which the phantom plane uses.
func (g *GradDrop) CompressedSize(n int) int { return ivSize(keep(g.ratio, n)) }

// samplePool recycles the threshold-estimation scratch so steady-state
// encodes allocate nothing.
var samplePool = sync.Pool{New: func() any {
	s := make([]float64, 0, sampleSize)
	return &s
}}

// threshold estimates the |value| cut so that about ratio of elements
// survive, from a random sample of the gradient. The sampling is
// sequential: it touches at most sampleSize elements, so it is never the hot
// loop.
func (g *GradDrop) threshold(grad []float32) float32 {
	n := len(grad)
	s := sampleSize
	if s > n {
		s = n
	}
	sp := samplePool.Get().(*[]float64)
	defer samplePool.Put(sp)
	sample := growSlice(*sp, s)
	if s == n {
		for i, x := range grad {
			a := float64(x)
			if a < 0 {
				a = -a
			}
			sample[i] = a
		}
	} else {
		for i := range sample {
			x := float64(grad[g.rng.Intn(n)])
			if x < 0 {
				x = -x
			}
			sample[i] = x
		}
	}
	slices.Sort(sample)
	cut := int(float64(s) * (1 - g.ratio))
	if cut >= s {
		cut = s - 1
	}
	if cut < 0 {
		cut = 0
	}
	return float32(sample[cut])
}

// MaxEncodedSize reports the worst-case payload length (every element
// survives the sampled threshold) — the capacity to lease for EncodeInto.
func (g *GradDrop) MaxEncodedSize(n int) int { return ivSize(n) }

// EncodeInto implements Compressor: threshold estimation stays sequential
// (it samples ≤ sampleSize elements), while the
// count and write passes over the full gradient run chunk-parallel with the
// same count/prefix/write scheme as TBQ. Byte-identical to serial for any
// worker count.
func (g *GradDrop) EncodeInto(dst []byte, grad []float32) ([]byte, error) {
	return g.encode(dst, grad, nil)
}

// EncodeFused implements FusedEncoder.
func (g *GradDrop) EncodeFused(dst []byte, grad, residual []float32) ([]byte, error) {
	if len(residual) != len(grad) {
		return nil, errSize("graddrop residual", len(residual), len(grad))
	}
	return g.encode(dst, grad, residual)
}

func (g *GradDrop) encode(dst []byte, grad, res []float32) ([]byte, error) {
	n := len(grad)
	if n == 0 {
		out, _, _ := ivFrame(dst, algoGradDrop, 0, 0)
		return out, nil
	}
	chunks := kernels.NumChunks(n)
	op := gdropOpPool.Get().(*gdropOp)
	op.n, op.grad, op.res = n, grad, res
	op.counts = growSlice(op.counts, chunks)
	op.offs = growSlice(op.offs, chunks)

	src := grad
	if res != nil {
		// Fused pass 0: v = grad + residual stored into the residual
		// buffer; the sampled threshold and all later passes see v.
		op.phase = gdropVStore
		kernels.Default().Run(chunks, op)
		src = res
	}
	// |x| >= thr && |x| > 0 as a window on |x|'s bit pattern (floor 1 is the
	// smallest nonzero magnitude); count and write passes share it, so they
	// agree by construction.
	op.wlo, op.span = magWindow(g.threshold(src), 1)

	op.phase = gdropCount
	kernels.Default().Run(chunks, op)
	k := 0
	for c := 0; c < chunks; c++ {
		op.offs[c] = k
		k += op.counts[c]
	}
	if k == 0 {
		// Degenerate all-zero (or threshold-above-max) gradient: send the
		// single first element so progress is never silently lost.
		out, idxBody, valBody := ivFrame(dst, algoGradDrop, n, 1)
		binary.LittleEndian.PutUint32(idxBody, 0)
		putF32(valBody, src[0])
		if res != nil {
			res[0] = 0 // decode reproduces v[0] exactly
		}
		op.release()
		return out, nil
	}
	out, idxBody, valBody := ivFrame(dst, algoGradDrop, n, k)
	op.idxBody, op.valBody = idxBody, valBody
	op.phase = gdropWrite
	kernels.Default().Run(chunks, op)
	op.release()
	return out, nil
}

// DecodeInto implements Compressor: chunk-parallel zero, serial scatter.
func (g *GradDrop) DecodeInto(dst []float32, payload []byte) error {
	return ivDecode(algoGradDrop, "graddrop", dst, payload, false)
}

// DecodeAdd implements DecodeAdder.
func (g *GradDrop) DecodeAdd(payload []byte, dst []float32) error {
	return ivDecode(algoGradDrop, "graddrop", dst, payload, true)
}

// --- chunked kernel ----------------------------------------------------------

const (
	gdropVStore = iota + 1
	gdropCount
	gdropWrite
)

type gdropOp struct {
	phase            int
	n                int
	grad             []float32
	res              []float32 // fused: residual in, v then updated residual out
	wlo, span        uint32    // survivor window, see magWindow
	counts           []int
	offs             []int
	idxBody, valBody []byte
}

var gdropOpPool = sync.Pool{New: func() any { return new(gdropOp) }}

func (o *gdropOp) release() {
	o.grad, o.res, o.idxBody, o.valBody = nil, nil, nil, nil
	gdropOpPool.Put(o)
}

func (o *gdropOp) RunChunk(c int) {
	lo, hi := kernels.ChunkRange(o.n, c)
	switch o.phase {
	case gdropVStore:
		grad, res := o.grad, o.res
		for i := lo; i < hi; i++ {
			res[i] += grad[i]
		}
	case gdropCount:
		src := o.grad
		if o.res != nil {
			src = o.res
		}
		wlo, span := o.wlo, o.span
		k := 0
		for _, x := range src[lo:hi] {
			k += inWindow(x, wlo, span)
		}
		o.counts[c] = k
	case gdropWrite:
		src := o.grad
		res := o.res
		if res != nil {
			src = res
		}
		// The compaction itself stays a branch: an unconditional store
		// would run into the next chunk's slots.
		wlo, span := o.wlo, o.span
		idxBody, valBody := o.idxBody, o.valBody
		w := o.offs[c]
		for i := lo; i < hi; i++ {
			x := src[i]
			if inWindow(x, wlo, span) != 0 {
				binary.LittleEndian.PutUint32(idxBody[4*w:], uint32(i))
				putF32(valBody[4*w:], x)
				w++
				if res != nil {
					res[i] = 0 // v - decode(v) == 0 for survivors
				}
			}
		}
	}
}
