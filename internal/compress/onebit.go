package compress

import (
	"sync"

	"hipress/internal/kernels"
)

// Onebit implements 1-bit stochastic gradient quantization (Seide et al.,
// Interspeech 2014), the algorithm AWS integrated into BytePS and the paper
// uses for its MXNet experiments.
//
// Each element is reduced to its sign bit; the decoder reconstructs positive
// elements as the mean of all positive inputs and negative elements as the
// mean of all negative inputs, which minimizes the L2 reconstruction error
// among two-level codebooks with this partition. Quantization error must be
// fed back into the next iteration's gradient (see ErrorFeedback) for
// convergence, exactly as in the original paper.
//
// Payload layout (little-endian):
//
//	header(8) | meanPos float32 | meanNeg float32 | ceil(n/8) sign bytes
//
// The compressed size is ~1/32 of the input plus 16 bytes, the 96.9%
// reduction quoted in the paper's §2.4.
type Onebit struct{}

// Name implements Compressor.
func (Onebit) Name() string { return "onebit" }

// CompressedSize implements Compressor.
func (Onebit) CompressedSize(n int) int { return headerSize + 8 + (n+7)/8 }

// EncodeInto implements Compressor: the chunked kernel. Sign bits and the
// per-chunk (sumPos, nPos, sumNeg, nNeg) partials are produced in parallel
// over fixed chunk boundaries; the partials are then combined in ascending
// chunk order, so the payload is bit-identical for any worker count.
func (o Onebit) EncodeInto(dst []byte, grad []float32) ([]byte, error) {
	return o.encode(dst, grad, nil)
}

// EncodeFused implements FusedEncoder: residual-add, sign extraction, and
// the residual update run in two passes over the data.
func (o Onebit) EncodeFused(dst []byte, grad, residual []float32) ([]byte, error) {
	if len(residual) != len(grad) {
		return nil, errSize("onebit residual", len(residual), len(grad))
	}
	return o.encode(dst, grad, residual)
}

func (o Onebit) encode(dst []byte, grad, res []float32) ([]byte, error) {
	n := len(grad)
	out := ensurePayload(dst, o.CompressedSize(n))
	putHeader(out, payloadMagic, algoOnebit, n)

	chunks := kernels.NumChunks(n)
	op := onebitOpPool.Get().(*onebitOp)
	op.n, op.grad, op.res = n, grad, res
	op.bits = out[headerSize+8:]
	op.parts = growSlice(op.parts, chunks)
	op.phase = onebitEncode
	kernels.Default().Run(chunks, op)

	// Deterministic tree reduction: partials combine in chunk index order.
	var sumPos, sumNeg float64
	var nPos, nNeg int
	for c := 0; c < chunks; c++ {
		p := &op.parts[c]
		sumPos += p.sumPos
		sumNeg += p.sumNeg
		nPos += p.nPos
		nNeg += p.nNeg
	}
	var meanPos, meanNeg float32
	if nPos > 0 {
		meanPos = float32(sumPos / float64(nPos))
	}
	if nNeg > 0 {
		meanNeg = float32(sumNeg / float64(nNeg))
	}
	putF32(out[headerSize:], meanPos)
	putF32(out[headerSize+4:], meanNeg)

	if res != nil {
		// Fused pass 2: residual = v - decode(payload), reading v back out
		// of the residual buffer where pass 1 stored it.
		op.meanPos, op.meanNeg = meanPos, meanNeg
		op.phase = onebitResidual
		kernels.Default().Run(chunks, op)
	}
	op.release()
	return out, nil
}

// DecodeInto implements Compressor: dst = decode(payload), chunk-parallel.
func (o Onebit) DecodeInto(dst []float32, payload []byte) error {
	return o.decode(dst, payload, false)
}

// DecodeAdd implements DecodeAdder: dst += decode(payload), chunk-parallel —
// the merge inner loop of the live plane.
func (o Onebit) DecodeAdd(payload []byte, dst []float32) error {
	return o.decode(dst, payload, true)
}

func (o Onebit) decode(dst []float32, payload []byte, add bool) error {
	n := len(dst)
	if err := checkHeader(payload, payloadMagic, algoOnebit, n); err != nil {
		return err
	}
	if want := o.CompressedSize(n); len(payload) != want {
		return errSize("onebit", len(payload), want)
	}
	op := onebitOpPool.Get().(*onebitOp)
	op.n, op.dst, op.add = n, dst, add
	op.bits = payload[headerSize+8:]
	op.meanPos = getF32(payload[headerSize:])
	op.meanNeg = getF32(payload[headerSize+4:])
	op.phase = onebitDecode
	kernels.Default().Run(kernels.NumChunks(n), op)
	op.release()
	return nil
}

// --- chunked kernel ----------------------------------------------------------

type onebitPart struct {
	sumPos, sumNeg float64
	nPos, nNeg     int
}

const (
	onebitEncode = iota + 1
	onebitResidual
	onebitDecode
)

// onebitOp is the pooled chunk kernel for all onebit passes. Each chunk owns
// a disjoint range of elements and, because ChunkElems is a multiple of 8, a
// disjoint range of sign-bit bytes.
type onebitOp struct {
	phase int
	n     int
	grad  []float32 // encode input
	res   []float32 // fused: residual in, v/updated residual out
	bits  []byte    // sign-bit region of the payload
	parts []onebitPart
	dst   []float32 // decode output
	add   bool      // decode: add instead of overwrite

	meanPos, meanNeg float32
}

var onebitOpPool = sync.Pool{New: func() any { return new(onebitOp) }}

func (o *onebitOp) release() {
	o.grad, o.res, o.bits, o.dst = nil, nil, nil, nil
	onebitOpPool.Put(o)
}

func (o *onebitOp) RunChunk(c int) {
	lo, hi := kernels.ChunkRange(o.n, c)
	switch o.phase {
	case onebitEncode:
		p := &o.parts[c]
		*p = onebitPart{}
		bits := o.bits
		// The payload buffer may be a reused lease: clear this chunk's
		// disjoint byte range before setting bits.
		for b := lo >> 3; b < (hi+7)>>3; b++ {
			bits[b] = 0
		}
		grad, res := o.grad, o.res
		for i := lo; i < hi; i++ {
			g := grad[i]
			if res != nil {
				g += res[i]
				res[i] = g // stash v for the residual pass
			}
			if g >= 0 {
				bits[i>>3] |= 1 << uint(i&7)
				p.sumPos += float64(g)
				p.nPos++
			} else {
				p.sumNeg += float64(g)
				p.nNeg++
			}
		}
	case onebitResidual:
		res, bits := o.res, o.bits
		for i := lo; i < hi; i++ {
			if bits[i>>3]&(1<<uint(i&7)) != 0 {
				res[i] -= o.meanPos
			} else {
				res[i] -= o.meanNeg
			}
		}
	case onebitDecode:
		dst, bits := o.dst, o.bits
		meanPos, meanNeg := o.meanPos, o.meanNeg
		if o.add {
			for i := lo; i < hi; i++ {
				if bits[i>>3]&(1<<uint(i&7)) != 0 {
					dst[i] += meanPos
				} else {
					dst[i] += meanNeg
				}
			}
		} else {
			for i := lo; i < hi; i++ {
				if bits[i>>3]&(1<<uint(i&7)) != 0 {
					dst[i] = meanPos
				} else {
					dst[i] = meanNeg
				}
			}
		}
	}
}

func errSize(algo string, got, want int) error {
	return &SizeError{Algo: algo, Got: got, Want: want}
}

// SizeError reports a payload whose length does not match the algorithm's
// layout for the requested gradient length.
type SizeError struct {
	Algo      string
	Got, Want int
}

func (e *SizeError) Error() string {
	return "compress: " + e.Algo + " payload size mismatch: got " +
		itoa(e.Got) + ", want " + itoa(e.Want)
}

// Unwrap lets errors.Is(err, ErrTruncatedPayload) match payloads shorter
// than their layout requires (truncation); oversize payloads are a
// different corruption and do not match.
func (e *SizeError) Unwrap() error {
	if e.Got < e.Want {
		return ErrTruncatedPayload
	}
	return nil
}

// itoa avoids pulling fmt into the hot path for error construction.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
