package compress

import (
	"errors"
	"math"
	"sync"

	"hipress/internal/kernels"
)

// This file holds what sits beside the Compressor interface on the
// synchronization path: the optional accelerations a compressor may add
// (FusedEncoder, a worst-case MaxEncodedSize) with the generic constructions
// they must match bit for bit, the stream setter of the stochastic ones, and
// the buffer and bit-pattern helpers the chunked kernels share.

// ErrTruncatedPayload tags decode failures caused by payloads too short for
// their declared contents (truncated frames, corrupted length fields).
// Decoders validate payload length and the header-declared element count
// against the algorithm's layout *before* indexing, so malformed input
// yields this error instead of a panic. Test with errors.Is.
var ErrTruncatedPayload = errors.New("compress: truncated payload")

// FusedEncoder is implemented by compressors that fuse the error-feedback
// residual update into the encode:
//
//	v        = grad + residual   (stored into residual in the first pass)
//	payload  = Encode(v)
//	residual = v - Decode(payload)
//
// in two passes over the data instead of the four (clone, encode, decode,
// subtract) the unfused path needs — halving memory traffic, which is what
// the encode hot loop is bound by. residual is updated in place and must
// have len(grad) elements. The payload and the final residual are
// bit-identical to the unfused construction.
type FusedEncoder interface {
	EncodeFused(dst []byte, grad, residual []float32) ([]byte, error)
}

// StreamSetter is implemented by the compressors whose encode draws random
// numbers (TernGrad's stochastic rounding, GradDrop's threshold sample, a
// CompLL program's random<>). SetStream positions the generator at key, so
// the next encode's draws are a pure function of key instead of however many
// draws earlier encodes consumed. The live plane derives a key per encode
// from (round, node, pipeline position): a replayed, retried, resumed or
// reordered encode then draws what the first run drew, and nothing has to
// carry a stream position between encodes. A compressor that is never
// positioned keeps drawing from its constructor-seeded stream.
type StreamSetter interface {
	SetStream(key uint64)
}

// SetStream positions c's random stream at key, reaching through the
// instrumentation decorator. It reports false for compressors that draw
// nothing (onebit, TBQ, DGC, ...), whose payload depends only on the gradient.
func SetStream(c Compressor, key uint64) bool {
	if m, ok := c.(*Instrumented); ok {
		c = m.inner
	}
	s, ok := c.(StreamSetter)
	if ok {
		s.SetStream(key)
	}
	return ok
}

// maxSizer is implemented by compressors whose payload size is
// data-dependent (TBQ, GradDrop) to report the worst case.
type maxSizer interface{ MaxEncodedSize(n int) int }

// MaxEncodedSize returns an upper bound on the payload length an encode can
// produce for an n-element gradient — the capacity to lease for EncodeInto.
// For fixed-size algorithms this equals CompressedSize.
func MaxEncodedSize(c Compressor, n int) int {
	if m, ok := c.(maxSizer); ok {
		return m.MaxEncodedSize(n)
	}
	return c.CompressedSize(n)
}

// EncodeInto is c.EncodeInto(dst, grad).
func EncodeInto(c Compressor, dst []byte, grad []float32) ([]byte, error) {
	return c.EncodeInto(dst, grad)
}

// DecodeInto is c.DecodeInto(dst, payload).
func DecodeInto(c Compressor, dst []float32, payload []byte) error {
	return c.DecodeInto(dst, payload)
}

// encodeFused runs the fused error-feedback encode, falling back to the
// unfused four-pass construction for compressors without a fused kernel.
// residual is updated in place either way.
func encodeFused(c Compressor, dst []byte, grad, residual []float32) ([]byte, error) {
	if fe, ok := c.(FusedEncoder); ok {
		return fe.EncodeFused(dst, grad, residual)
	}
	return fallbackEncodeFused(c, dst, grad, residual)
}

// fallbackEncodeFused is the unfused four-pass error-feedback construction
// (clone, encode, decode, subtract); the fused kernels are bit-identical to
// it by contract.
func fallbackEncodeFused(c Compressor, dst []byte, grad, residual []float32) ([]byte, error) {
	v := make([]float32, len(grad))
	for i := range v {
		v[i] = grad[i] + residual[i]
	}
	payload, err := c.EncodeInto(dst, v)
	if err != nil {
		return nil, err
	}
	dec, err := Decode(c, payload, len(v))
	if err != nil {
		return nil, err
	}
	for i := range residual {
		residual[i] = v[i] - dec[i]
	}
	return payload, nil
}

// ensurePayload reslices dst to n bytes, allocating only when the capacity
// is insufficient. Callers must fully overwrite the returned bytes — the
// buffer may hold stale content from a previous lease.
func ensurePayload(dst []byte, n int) []byte {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]byte, n)
}

// growSlice reslices s to n elements, reallocating only when capacity is
// insufficient. Contents are unspecified; used for pooled per-chunk partial
// arrays that every pass fully rewrites.
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// --- branch-free threshold test -------------------------------------------------

const (
	f32SignBit = 1 << 31
	f32InfBits = 0x7f800000
)

// magWindow turns the float predicate "|x| >= thr, and |x| at least the
// magnitude with bit pattern floor" into an unsigned range test on x's
// magnitude bits, so a count pass needs no branch: for non-negative floats
// bit order is numeric order, NaNs sit above +Inf and fall outside the
// window exactly as they fail every float compare, a NaN thr admits
// nothing, and thr <= 0 admits every non-NaN magnitude from floor up.
func magWindow(thr float32, floor uint32) (lo, span uint32) {
	if thr != thr {
		return 0, 0
	}
	lo = floor
	if t := math.Float32bits(thr); thr > 0 && t > lo {
		lo = t
	}
	return lo, f32InfBits + 1 - lo
}

// inWindow is 1 when x's magnitude bits lie in [lo, lo+span) and 0 otherwise.
func inWindow(x float32, lo, span uint32) int {
	m := math.Float32bits(x) &^ f32SignBit
	return int((uint64(m-lo) - uint64(span)) >> 63)
}

// --- shared parallel zero kernel ---------------------------------------------

// zeroOp clears a float32 buffer chunk-parallel; the sparse decoders use it
// before scattering their k ≪ n survivors.
type zeroOp struct {
	n   int
	dst []float32
}

var zeroOpPool = sync.Pool{New: func() any { return new(zeroOp) }}

func (z *zeroOp) RunChunk(c int) {
	lo, hi := kernels.ChunkRange(z.n, c)
	d := z.dst[lo:hi]
	for i := range d {
		d[i] = 0
	}
}

// zeroF32 clears dst on the worker pool.
func zeroF32(dst []float32) {
	z := zeroOpPool.Get().(*zeroOp)
	z.n, z.dst = len(dst), dst
	kernels.Default().Run(kernels.NumChunks(z.n), z)
	z.dst = nil
	zeroOpPool.Put(z)
}
