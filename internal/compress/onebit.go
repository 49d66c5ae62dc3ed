package compress

import (
	"math"
	"math/bits"
	"strconv"
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

// The loops below follow the kernel-writing rule (DESIGN.md "Kernel execution
// plane"): no data-dependent branch and no per-element bounds check. One
// iteration handles one sign byte — eight elements through a fixed-size
// array view — and every per-element decision is a mask or a two-entry
// table lookup: on real gradients the sign is a coin flip, so a branch on it
// mispredicts every other element.

// onebitSplit classifies one element: pos is 1 when v belongs to the
// positive bucket, and (vp, vn) is v routed to its own bucket with +0.0 in
// the other. The bucket is read off the bit pattern and agrees with `v >= 0`
// on every input: -0.0 and +Inf are positive, every NaN (either sign) is
// negative.
func onebitSplit(v float32) (pos uint64, vp, vn float64) {
	u := uint64(math.Float32bits(v))
	// Bit 63 of the first term is "u <= bits(+Inf)", of the second
	// "u == bits(-0.0)".
	pos = ((u - (f32InfBits + 1)) | ((u ^ f32SignBit) - 1)) >> 63
	w := math.Float64bits(float64(v))
	p := w & -pos // -pos is all ones for the positive bucket
	return pos, math.Float64frombits(p), math.Float64frombits(w ^ p)
}

// onebitFold8 adds eight consecutive elements to the running partial sums and
// returns their sign byte (bit j set when vj is positive). Every element is
// added to both sums — itself to its own bucket, +0.0 to the other — which
// keeps each float64 accumulation in ascending index order, and the extra
// terms are exact: x + (+0.0) == x for every x except -0.0, and neither sum
// can be -0.0 (both start at +0.0; the positive one only adds values >= 0,
// and (+0.0) + (-0.0) == +0.0; the negative one only adds strictly negative
// values or NaN). The elements travel in registers: it is too large to
// inline, and a pointer would force the caller's v = grad + res through
// memory first.
func onebitFold8(v0, v1, v2, v3, v4, v5, v6, v7 float32, sumPos, sumNeg float64) (byte, float64, float64) {
	p0, a0, b0 := onebitSplit(v0)
	p1, a1, b1 := onebitSplit(v1)
	p2, a2, b2 := onebitSplit(v2)
	p3, a3, b3 := onebitSplit(v3)
	p4, a4, b4 := onebitSplit(v4)
	p5, a5, b5 := onebitSplit(v5)
	p6, a6, b6 := onebitSplit(v6)
	p7, a7, b7 := onebitSplit(v7)
	sumPos = sumPos + a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	sumNeg = sumNeg + b0 + b1 + b2 + b3 + b4 + b5 + b6 + b7
	return byte(p0 | p1<<1 | p2<<2 | p3<<3 | p4<<4 | p5<<5 | p6<<6 | p7<<7), sumPos, sumNeg
}

// onebitEncodeChunk writes the chunk's sign bytes (whole bytes, so a reused
// payload buffer needs no clearing) and returns its partials. With res
// non-nil it also stores v = grad + res into res for the residual pass.
func onebitEncodeChunk(grad, res []float32, signs []byte) onebitPart {
	var sumPos, sumNeg float64
	nPos := 0
	full := len(grad) >> 3
	for b := 0; b < full; b++ {
		g := (*[8]float32)(grad[8*b:])
		v0, v1, v2, v3, v4, v5, v6, v7 := g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7]
		if res != nil {
			r := (*[8]float32)(res[8*b:])
			v0, v1, v2, v3 = v0+r[0], v1+r[1], v2+r[2], v3+r[3]
			v4, v5, v6, v7 = v4+r[4], v5+r[5], v6+r[6], v7+r[7]
			r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = v0, v1, v2, v3, v4, v5, v6, v7
		}
		signs[b], sumPos, sumNeg = onebitFold8(v0, v1, v2, v3, v4, v5, v6, v7, sumPos, sumNeg)
		nPos += bits.OnesCount8(signs[b])
	}
	if tail := grad[8*full:]; len(tail) > 0 {
		// Final partial byte of the tensor: pad with +0.0, which lands in the
		// positive bucket without changing either sum, then drop the padding
		// bits (the payload's unused high bits are zero).
		var v [8]float32
		copy(v[:], tail)
		if res != nil {
			for j, r := range res[8*full:] {
				v[j] += r
				res[8*full+j] = v[j]
			}
		}
		var s byte
		s, sumPos, sumNeg = onebitFold8(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], sumPos, sumNeg)
		s &= 1<<uint(len(tail)) - 1
		signs[full] = s
		nPos += bits.OnesCount8(s)
	}
	return onebitPart{sumPos: sumPos, sumNeg: sumNeg, nPos: nPos, nNeg: len(grad) - nPos}
}

func (o *onebitOp) RunChunk(c int) {
	lo, hi := kernels.ChunkRange(o.n, c)
	// lo is a multiple of 8 (chunk geometry), so the chunk owns whole sign
	// bytes; only the last chunk of the tensor can end mid-byte.
	signs := o.bits[lo>>3 : (hi+7)>>3]
	full := (hi - lo) >> 3
	lut := [2]float32{o.meanNeg, o.meanPos}
	switch o.phase {
	case onebitEncode:
		var res []float32
		if o.res != nil {
			res = o.res[lo:hi]
		}
		o.parts[c] = onebitEncodeChunk(o.grad[lo:hi], res, signs)
	case onebitResidual:
		res := o.res[lo:hi]
		for b := 0; b < full; b++ {
			r, s := (*[8]float32)(res[8*b:]), signs[b]
			r[0] -= lut[s&1]
			r[1] -= lut[s>>1&1]
			r[2] -= lut[s>>2&1]
			r[3] -= lut[s>>3&1]
			r[4] -= lut[s>>4&1]
			r[5] -= lut[s>>5&1]
			r[6] -= lut[s>>6&1]
			r[7] -= lut[s>>7]
		}
		for j, r := 0, res[8*full:]; j < len(r); j++ {
			r[j] -= lut[signs[full]>>uint(j)&1]
		}
	case onebitDecode:
		dst := o.dst[lo:hi]
		if o.add {
			for b := 0; b < full; b++ {
				d, s := (*[8]float32)(dst[8*b:]), signs[b]
				d[0] += lut[s&1]
				d[1] += lut[s>>1&1]
				d[2] += lut[s>>2&1]
				d[3] += lut[s>>3&1]
				d[4] += lut[s>>4&1]
				d[5] += lut[s>>5&1]
				d[6] += lut[s>>6&1]
				d[7] += lut[s>>7]
			}
			for j, d := 0, dst[8*full:]; j < len(d); j++ {
				d[j] += lut[signs[full]>>uint(j)&1]
			}
			return
		}
		for b := 0; b < full; b++ {
			d, s := (*[8]float32)(dst[8*b:]), signs[b]
			d[0] = lut[s&1]
			d[1] = lut[s>>1&1]
			d[2] = lut[s>>2&1]
			d[3] = lut[s>>3&1]
			d[4] = lut[s>>4&1]
			d[5] = lut[s>>5&1]
			d[6] = lut[s>>6&1]
			d[7] = lut[s>>7]
		}
		for j, d := 0, dst[8*full:]; j < len(d); j++ {
			d[j] = lut[signs[full]>>uint(j)&1]
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
		strconv.Itoa(e.Got) + ", want " + strconv.Itoa(e.Want)
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
