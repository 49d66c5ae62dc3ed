package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"hipress/internal/kernels"
)

// DGC implements Deep Gradient Compression's sparsification core (Lin et
// al., ICLR 2018): keep exactly the top ratio×n elements by magnitude and
// transmit them as (index, value) pairs. The momentum-correction and
// gradient-clipping tricks from the DGC paper are training-loop concerns and
// live in internal/trainer; the residual accumulation that makes top-k
// convergent is provided by ErrorFeedback.
//
// Selection uses an exact k-th statistic via a chunk-parallel MSB-first
// radix select over magnitude bit patterns (the "hierarchical selection" the
// paper credits CompLL's optimized operators for), rather than the full sort
// the OSS baseline uses — that asymptotic gap is a large part of the 5.1×
// encode speedup reported in §4.4, and the histogram formulation makes the
// statistic order-independent so parallel output is bit-identical to serial.
//
// Payload layout (little-endian):
//
//	header(8) | k uint32 | k × (index uint32) | k × (value float32)
type DGC struct {
	ratio float64
}

// NewDGC returns a top-k sparsifier keeping ratio of the elements
// (0 < ratio <= 1). The paper's default is 0.001 (0.1%).
func NewDGC(ratio float64) (*DGC, error) {
	if ratio <= 0 || ratio > 1 {
		return nil, fmt.Errorf("compress: dgc ratio %g out of (0,1]", ratio)
	}
	return &DGC{ratio: ratio}, nil
}

// Name implements Compressor.
func (d *DGC) Name() string { return fmt.Sprintf("dgc-%g", d.ratio) }

// Ratio returns the configured keep fraction.
func (d *DGC) Ratio() float64 { return d.ratio }

// k returns the number of kept elements for an n-element gradient: at least
// one so every gradient makes some progress.
func (d *DGC) k(n int) int {
	if n == 0 {
		return 0
	}
	k := int(d.ratio * float64(n))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// CompressedSize implements Compressor.
func (d *DGC) CompressedSize(n int) int { return headerSize + 4 + 8*d.k(n) }

// EncodeInto implements Compressor: the chunked kernel. The k-th largest
// |value| is found by a parallel MSB-first radix select — four rounds of
// per-chunk 256-bucket histograms over the magnitude bit patterns (for
// non-negative IEEE-754 floats, bit order equals numeric order), combined by
// integer summation, which is order-independent — so the threshold is the
// *exact* order statistic quickselect would return, found in four
// cache-friendly parallel scans with zero scratch allocation. Survivors are
// then written with the same two-phase count/prefix/write scheme as TBQ,
// with the serial "strictly above first, ties in index order" rule realized
// through per-chunk tie quotas. The payload is byte-identical to the serial
// implementation for any worker count.
func (d *DGC) EncodeInto(dst []byte, grad []float32) ([]byte, error) {
	return d.encode(dst, grad, nil)
}

// EncodeFused implements FusedEncoder.
func (d *DGC) EncodeFused(dst []byte, grad, residual []float32) ([]byte, error) {
	if len(residual) != len(grad) {
		return nil, errSize("dgc residual", len(residual), len(grad))
	}
	return d.encode(dst, grad, residual)
}

func (d *DGC) encode(dst []byte, grad, res []float32) ([]byte, error) {
	n := len(grad)
	k := d.k(n)
	out := ensurePayload(dst, d.CompressedSize(n))
	putHeader(out, payloadMagic, algoDGC, n)
	binary.LittleEndian.PutUint32(out[headerSize:], uint32(k))
	if k == 0 {
		return out, nil
	}
	chunks := kernels.NumChunks(n)
	op := dgcOpPool.Get().(*dgcOp)
	op.n, op.grad, op.res = n, grad, res
	op.hists = growSlice(op.hists, chunks)
	op.counts = growSlice(op.counts, chunks)
	op.aboveOffs = growSlice(op.aboveOffs, chunks)
	op.tieOffs = growSlice(op.tieOffs, chunks)
	op.tieQuota = growSlice(op.tieQuota, chunks)

	if res != nil {
		// Fused pass 0: v = grad + residual, stored into the residual
		// buffer; every later pass selects over v.
		op.phase = dgcVStore
		kernels.Default().Run(chunks, op)
	}

	// Radix select: resolve the threshold's 32 magnitude bits one byte at a
	// time, MSB first.
	var prefix, prefixMask uint32
	remaining := k
	for round := 0; round < 4; round++ {
		op.phase = dgcHist
		op.prefix, op.prefixMask = prefix, prefixMask
		op.shift = uint(24 - 8*round)
		kernels.Default().Run(chunks, op)
		var total [256]int
		for c := 0; c < chunks; c++ {
			h := &op.hists[c]
			for b := 0; b < 256; b++ {
				total[b] += int(h[b])
			}
		}
		b := 255
		for ; b > 0; b-- {
			if total[b] >= remaining {
				break
			}
			remaining -= total[b]
		}
		prefix |= uint32(b) << op.shift
		prefixMask |= 0xff << op.shift
	}
	thr := math.Float32frombits(prefix)
	op.thr = thr

	// Two-phase survivor write with tie quotas.
	op.phase = dgcCount
	kernels.Default().Run(chunks, op)
	above := 0
	for c := 0; c < chunks; c++ {
		op.aboveOffs[c] = above
		above += op.counts[c].above
	}
	tieLeft := k - above
	tieOff := 0
	for c := 0; c < chunks; c++ {
		q := op.counts[c].tie
		if q > tieLeft {
			q = tieLeft
		}
		op.tieOffs[c] = tieOff
		op.tieQuota[c] = q
		tieOff += q
		tieLeft -= q
	}
	if above >= k || tieLeft != 0 {
		op.release()
		return nil, fmt.Errorf("compress: dgc selected %d above + %d ties of %d (internal error)", above, tieOff, k)
	}
	op.aboveTotal = above
	op.idxBody = out[headerSize+4:]
	op.valBody = out[headerSize+4+4*k:]
	op.phase = dgcWrite
	kernels.Default().Run(chunks, op)
	op.release()
	return out, nil
}

// DecodeInto implements Compressor: chunk-parallel zero, serial scatter.
func (d *DGC) DecodeInto(dst []float32, payload []byte) error {
	k, err := d.validate(payload, len(dst))
	if err != nil {
		return err
	}
	zeroF32(dst)
	return d.scatter(payload, dst, k)
}

// DecodeAdd implements DecodeAdder.
func (d *DGC) DecodeAdd(payload []byte, dst []float32) error {
	k, err := d.validate(payload, len(dst))
	if err != nil {
		return err
	}
	return d.scatter(payload, dst, k)
}

func (d *DGC) validate(payload []byte, n int) (int, error) {
	if err := checkHeader(payload, payloadMagic, algoDGC, n); err != nil {
		return 0, err
	}
	if len(payload) < headerSize+4 {
		return 0, errSize("dgc", len(payload), headerSize+4)
	}
	k := int(binary.LittleEndian.Uint32(payload[headerSize:]))
	if want := headerSize + 4 + 8*k; len(payload) != want {
		return 0, errSize("dgc", len(payload), want)
	}
	return k, nil
}

func (d *DGC) scatter(payload []byte, dst []float32, k int) error {
	n := len(dst)
	idxBody := payload[headerSize+4:]
	valBody := payload[headerSize+4+4*k:]
	for j := 0; j < k; j++ {
		idx := int(binary.LittleEndian.Uint32(idxBody[4*j:]))
		if idx >= n {
			return fmt.Errorf("compress: dgc index %d out of range %d", idx, n)
		}
		dst[idx] += getF32(valBody[4*j:])
	}
	return nil
}

// --- chunked kernel ----------------------------------------------------------

const (
	dgcVStore = iota + 1
	dgcHist
	dgcCount
	dgcWrite
)

type dgcHistT [256]int32

type dgcCountT struct{ above, tie int }

type dgcOp struct {
	phase int
	n     int
	grad  []float32
	res   []float32 // fused: residual in, v then updated residual out

	// Radix-select state.
	prefix, prefixMask uint32
	shift              uint
	hists              []dgcHistT

	// Survivor-write state.
	thr        float32
	counts     []dgcCountT
	aboveOffs  []int
	tieOffs    []int
	tieQuota   []int
	aboveTotal int
	idxBody    []byte
	valBody    []byte
}

var dgcOpPool = sync.Pool{New: func() any { return new(dgcOp) }}

func (o *dgcOp) release() {
	o.grad, o.res, o.idxBody, o.valBody = nil, nil, nil, nil
	dgcOpPool.Put(o)
}

// src returns the slice the selection passes read: v (stored in the
// residual buffer) when fused, the raw gradient otherwise.
func (o *dgcOp) src() []float32 {
	if o.res != nil {
		return o.res
	}
	return o.grad
}

func (o *dgcOp) RunChunk(c int) {
	lo, hi := kernels.ChunkRange(o.n, c)
	switch o.phase {
	case dgcVStore:
		grad, res := o.grad, o.res
		for i := lo; i < hi; i++ {
			res[i] += grad[i]
		}
	case dgcHist:
		src := o.src()
		h := &o.hists[c]
		*h = dgcHistT{}
		prefix, mask, shift := o.prefix, o.prefixMask, o.shift
		for i := lo; i < hi; i++ {
			b := math.Float32bits(src[i]) &^ (1 << 31) // |value| bit pattern
			if b&mask == prefix {
				h[(b>>shift)&0xff]++
			}
		}
	case dgcCount:
		src := o.src()
		thr := o.thr
		var above, tie int
		for i := lo; i < hi; i++ {
			a := src[i]
			if a < 0 {
				a = -a
			}
			if a > thr {
				above++
			} else if a == thr {
				tie++
			}
		}
		o.counts[c] = dgcCountT{above: above, tie: tie}
	case dgcWrite:
		src := o.src()
		res := o.res
		thr := o.thr
		idxBody, valBody := o.idxBody, o.valBody
		wAbove := o.aboveOffs[c]
		wTie := o.aboveTotal + o.tieOffs[c]
		tieLeft := o.tieQuota[c]
		for i := lo; i < hi; i++ {
			g := src[i]
			a := g
			if a < 0 {
				a = -a
			}
			if a > thr {
				binary.LittleEndian.PutUint32(idxBody[4*wAbove:], uint32(i))
				putF32(valBody[4*wAbove:], g)
				wAbove++
				if res != nil {
					res[i] = 0 // v - decode(v) == 0 for selected elements
				}
			} else if a == thr && tieLeft > 0 {
				binary.LittleEndian.PutUint32(idxBody[4*wTie:], uint32(i))
				putF32(valBody[4*wTie:], g)
				wTie++
				tieLeft--
				if res != nil {
					res[i] = 0
				}
			}
		}
	}
}
