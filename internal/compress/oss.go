package compress

import (
	"encoding/binary"
	"math"
	"sort"
)

// This file contains the "OSS" baselines: functionally identical to the
// optimized implementations (byte-compatible payloads) but written the way
// the open-source counterparts the paper measures were — per-element
// appends, full sorts where a selection would do, and redundant passes. The
// evaluation's §4.4 microbenchmarks (OSS-TBQ 12× slower, OSS-DGC up to 5.1×
// slower) are regenerated against these. The timing plane additionally tags
// them with the calibrated slowdown factors so cluster-scale simulations of
// BytePS(OSS-onebit) and Ring(OSS-DGC) reflect the paper's measurements even
// where Go-vs-Go gaps are smaller than CUDA-vs-CUDA ones.

// OSSOnebit is the naive 1-bit quantizer: three full passes and bit-at-a-time
// payload construction with repeated reallocation, mirroring the open-source
// CPU implementation referenced by the paper ([11]).
type OSSOnebit struct{}

// Name implements Compressor.
func (OSSOnebit) Name() string { return "oss-onebit" }

// CompressedSize implements Compressor.
func (OSSOnebit) CompressedSize(n int) int { return Onebit{}.CompressedSize(n) }

// EncodeInto implements Compressor. The payload is byte-identical to
// Onebit's; only the construction is wasteful, and it is built in fresh
// memory before being copied into dst.
func (OSSOnebit) EncodeInto(dst []byte, grad []float32) ([]byte, error) {
	n := len(grad)
	// Pass 1: positive mean. Pass 2: negative mean. Pass 3: signs.
	var sumPos float64
	var nPos int
	for _, g := range grad {
		if g >= 0 {
			sumPos += float64(g)
			nPos++
		}
	}
	var sumNeg float64
	var nNeg int
	for _, g := range grad {
		if g < 0 {
			sumNeg += float64(g)
			nNeg++
		}
	}
	var meanPos, meanNeg float32
	if nPos > 0 {
		meanPos = float32(sumPos / float64(nPos))
	}
	if nNeg > 0 {
		meanNeg = float32(sumNeg / float64(nNeg))
	}
	out := make([]byte, 0) // deliberately grown element by element
	var hdr [headerSize]byte
	putHeader(hdr[:], payloadMagic, algoOnebit, n)
	out = append(out, hdr[:]...)
	var f [4]byte
	binary.LittleEndian.PutUint32(f[:], math.Float32bits(meanPos))
	out = append(out, f[:]...)
	binary.LittleEndian.PutUint32(f[:], math.Float32bits(meanNeg))
	out = append(out, f[:]...)
	bits := make([]byte, (n+7)/8)
	for i, g := range grad {
		if g >= 0 {
			bits[i>>3] |= 1 << uint(i&7)
		}
	}
	out = append(out, bits...)
	return append(dst[:0], out...), nil
}

// DecodeInto implements Compressor by delegating to the optimized decoder
// (the paper's OSS gap is dominated by encode; decode "achieves a similar
// speedup" and is modeled on the timing plane).
func (OSSOnebit) DecodeInto(dst []float32, payload []byte) error {
	return Onebit{}.DecodeInto(dst, payload)
}

// OSSTBQ is the naive threshold binary quantizer: it builds an intermediate
// []int index slice with append and encodes through a second pass. TBQ is a
// named field, not embedded, so none of the optimized kernels (fused encode,
// fused decode+merge) is promoted onto the baseline.
type OSSTBQ struct {
	TBQ TBQ
}

// Name implements Compressor.
func (o OSSTBQ) Name() string { return "oss-" + o.TBQ.Name() }

// CompressedSize implements Compressor.
func (o OSSTBQ) CompressedSize(n int) int { return o.TBQ.CompressedSize(n) }

// MaxEncodedSize reports the worst-case payload length.
func (o OSSTBQ) MaxEncodedSize(n int) int { return o.TBQ.MaxEncodedSize(n) }

// DecodeInto implements Compressor by delegating to the optimized decoder.
func (o OSSTBQ) DecodeInto(dst []float32, payload []byte) error {
	return o.TBQ.DecodeInto(dst, payload)
}

// EncodeInto implements Compressor with the payload byte-identical to
// TBQ's.
func (o OSSTBQ) EncodeInto(dst []byte, grad []float32) ([]byte, error) {
	n := len(grad)
	type hit struct {
		idx int
		neg bool
	}
	var hits []hit // grown without preallocation, as the OSS code does
	tau := float32(o.TBQ.Tau())
	for i, g := range grad {
		if g >= tau {
			hits = append(hits, hit{i, false})
		} else if g <= -tau {
			hits = append(hits, hit{i, true})
		}
	}
	out := make([]byte, headerSize+8+4*len(hits))
	putHeader(out, payloadMagic, algoTBQ, n)
	putF32(out[headerSize:], tau)
	binary.LittleEndian.PutUint32(out[headerSize+4:], uint32(len(hits)))
	for j, h := range hits {
		w := uint32(h.idx)
		if h.neg {
			w |= 1 << 31
		}
		binary.LittleEndian.PutUint32(out[headerSize+8+4*j:], w)
	}
	return append(dst[:0], out...), nil
}

// OSSDGC is the naive top-k sparsifier: it sorts the entire gradient by
// magnitude (O(n log n)) where the optimized path uses quickselect (O(n)),
// the dominant cost gap the paper attributes to its hierarchical selection.
// DGC is a named field for the same reason as OSSTBQ's.
type OSSDGC struct {
	DGC *DGC
}

// Name implements Compressor.
func (o OSSDGC) Name() string { return "oss-" + o.DGC.Name() }

// CompressedSize implements Compressor.
func (o OSSDGC) CompressedSize(n int) int { return o.DGC.CompressedSize(n) }

// DecodeInto implements Compressor by delegating to the optimized decoder.
func (o OSSDGC) DecodeInto(dst []float32, payload []byte) error {
	return o.DGC.DecodeInto(dst, payload)
}

// EncodeInto implements Compressor. The selected set matches DGC's (exact
// top-k with ties broken by index), so payloads decode identically even
// though byte order of survivors may differ.
func (o OSSDGC) EncodeInto(dst []byte, grad []float32) ([]byte, error) {
	n := len(grad)
	k := keep(o.DGC.ratio, n)
	out, idxBody, valBody := ivFrame(nil, algoDGC, n, k)
	if k == 0 {
		return append(dst[:0], out...), nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	abs := func(i int) float64 { return math.Abs(float64(grad[i])) }
	sort.Slice(order, func(a, b int) bool {
		if abs(order[a]) != abs(order[b]) {
			return abs(order[a]) > abs(order[b])
		}
		return order[a] < order[b]
	})
	sel := order[:k]
	sort.Ints(sel)
	for j, idx := range sel {
		binary.LittleEndian.PutUint32(idxBody[4*j:], uint32(idx))
		putF32(valBody[4*j:], grad[idx])
	}
	return append(dst[:0], out...), nil
}
