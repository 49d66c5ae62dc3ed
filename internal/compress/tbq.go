package compress

import (
	"encoding/binary"
	"fmt"
	"sync"

	"hipress/internal/kernels"
)

// TBQ implements threshold binary quantization (Strom, Interspeech 2015; the
// paper's "TBQ"/"TBO"). Elements whose magnitude reaches the fixed threshold
// tau are transmitted as +tau or -tau; everything else is suppressed and left
// for error feedback to carry into the next iteration.
//
// The encoding is sparse: one uint32 per surviving element with the sign in
// the most significant bit and the element index in the low 31 bits, exactly
// the (index, sign) packing Strom describes. This makes the payload size
// data-dependent, so CompressedSize reports a conservative estimate based on
// the calibrated survival fraction (see estSurvival) and the simulator uses
// that same estimate for phantom transfers.
//
// Payload layout (little-endian):
//
//	header(8) | tau float32 | k uint32 | k × uint32 (sign<<31 | index)
type TBQ struct {
	tau float32
}

// NewTBQ returns a threshold binary quantizer with threshold tau.
func NewTBQ(tau float64) TBQ { return TBQ{tau: float32(tau)} }

// Name implements Compressor.
func (t TBQ) Name() string { return fmt.Sprintf("tbq-%g", t.tau) }

// Tau returns the fixed quantization threshold.
func (t TBQ) Tau() float64 { return float64(t.tau) }

// estSurvival is the fraction of elements expected to survive the threshold,
// used only for size estimation on the simulation plane. With the default
// tau and unit-scale gradients roughly 1–2% survive; 1/64 keeps the estimate
// in the regime the paper reports for Strom-style quantization.
const estSurvival = 1.0 / 64

// CompressedSize implements Compressor. For TBQ the true size is
// data-dependent; this returns the calibrated estimate used by the phantom
// plane. Real Encode payloads report their own exact length.
func (t TBQ) CompressedSize(n int) int {
	return headerSize + 8 + 4*int(float64(n)*estSurvival)
}

// MaxEncodedSize reports the worst-case payload length (every element
// survives the threshold) — the capacity to lease for EncodeInto.
func (t TBQ) MaxEncodedSize(n int) int { return headerSize + 8 + 4*n }

// EncodeInto implements Compressor: the chunked kernel. Pass 1 counts
// survivors per chunk in parallel; a serial prefix sum over the per-chunk
// counts assigns each chunk a disjoint output range; pass 2 writes entries
// in parallel. Because chunks scan in index order and write at their
// prefix-sum offsets, the payload is byte-identical to a serial
// index-order scan for any worker count.
func (t TBQ) EncodeInto(dst []byte, grad []float32) ([]byte, error) {
	return t.encode(dst, grad, nil)
}

// EncodeFused implements FusedEncoder.
func (t TBQ) EncodeFused(dst []byte, grad, residual []float32) ([]byte, error) {
	if len(residual) != len(grad) {
		return nil, errSize("tbq residual", len(residual), len(grad))
	}
	return t.encode(dst, grad, residual)
}

func (t TBQ) encode(dst []byte, grad, res []float32) ([]byte, error) {
	n := len(grad)
	if n >= 1<<31 {
		return nil, fmt.Errorf("compress: tbq gradient too long (%d)", n)
	}
	chunks := kernels.NumChunks(n)
	op := tbqOpPool.Get().(*tbqOp)
	op.n, op.grad, op.res, op.tau = n, grad, res, t.tau
	op.counts = growSlice(op.counts, chunks)
	op.offs = growSlice(op.offs, chunks)
	op.phase = tbqCount
	kernels.Default().Run(chunks, op)

	k := 0
	for c := 0; c < chunks; c++ {
		op.offs[c] = k
		k += op.counts[c]
	}
	out := ensurePayload(dst, headerSize+8+4*k)
	putHeader(out, payloadMagic, algoTBQ, n)
	putF32(out[headerSize:], t.tau)
	binary.LittleEndian.PutUint32(out[headerSize+4:], uint32(k))
	op.body = out[headerSize+8:]
	op.phase = tbqWrite
	kernels.Default().Run(chunks, op)
	op.release()
	return out, nil
}

// DecodeInto implements Compressor: dst is zeroed chunk-parallel, then the
// k ≪ n survivors scatter serially.
func (t TBQ) DecodeInto(dst []float32, payload []byte) error {
	k, err := t.validate(payload, len(dst))
	if err != nil {
		return err
	}
	zeroF32(dst)
	return t.scatter(payload, dst, k)
}

// DecodeAdd implements DecodeAdder.
func (t TBQ) DecodeAdd(payload []byte, dst []float32) error {
	k, err := t.validate(payload, len(dst))
	if err != nil {
		return err
	}
	return t.scatter(payload, dst, k)
}

// validate bounds-checks the payload against the layout before any
// indexing, returning the survivor count.
func (t TBQ) validate(payload []byte, n int) (int, error) {
	if err := checkHeader(payload, payloadMagic, algoTBQ, n); err != nil {
		return 0, err
	}
	if len(payload) < headerSize+8 {
		return 0, errSize("tbq", len(payload), headerSize+8)
	}
	k := int(binary.LittleEndian.Uint32(payload[headerSize+4:]))
	if want := headerSize + 8 + 4*k; len(payload) != want {
		return 0, errSize("tbq", len(payload), want)
	}
	return k, nil
}

func (t TBQ) scatter(payload []byte, dst []float32, k int) error {
	n := len(dst)
	tau := getF32(payload[headerSize:])
	body := payload[headerSize+8:]
	for j := 0; j < k; j++ {
		word := binary.LittleEndian.Uint32(body[4*j:])
		idx := int(word &^ (1 << 31))
		if idx >= n {
			return fmt.Errorf("compress: tbq index %d out of range %d", idx, n)
		}
		if word&(1<<31) != 0 {
			dst[idx] -= tau
		} else {
			dst[idx] += tau
		}
	}
	return nil
}

// --- chunked kernel ----------------------------------------------------------

const (
	tbqCount = iota + 1
	tbqWrite
)

type tbqOp struct {
	phase  int
	n      int
	grad   []float32
	res    []float32 // fused: residual in, v then updated residual out
	tau    float32
	body   []byte
	counts []int // per-chunk survivor count
	offs   []int // per-chunk entry offset (prefix sum of counts)
}

var tbqOpPool = sync.Pool{New: func() any { return new(tbqOp) }}

func (o *tbqOp) release() {
	o.grad, o.res, o.body = nil, nil, nil
	tbqOpPool.Put(o)
}

func (o *tbqOp) RunChunk(c int) {
	lo, hi := kernels.ChunkRange(o.n, c)
	grad, res, tau := o.grad, o.res, o.tau
	switch o.phase {
	case tbqCount:
		// g >= tau || g <= -tau, as a branch-free window test on |g|'s bits.
		wlo, span := magWindow(tau, 0)
		k := 0
		g := grad[lo:hi]
		if res == nil {
			for _, x := range g {
				k += inWindow(x, wlo, span)
			}
		} else {
			r := res[lo:hi][:len(g)]
			for i, x := range g {
				v := x + r[i]
				r[i] = v // stash v for the write pass
				k += inWindow(v, wlo, span)
			}
		}
		o.counts[c] = k
	case tbqWrite:
		body := o.body
		w := 4 * o.offs[c]
		src := grad
		if res != nil {
			src = res
		}
		for i := lo; i < hi; i++ {
			g := src[i]
			switch {
			case g >= tau:
				binary.LittleEndian.PutUint32(body[w:], uint32(i))
				w += 4
				if res != nil {
					res[i] = g - tau // v - decode(+tau)
				}
			case g <= -tau:
				binary.LittleEndian.PutUint32(body[w:], uint32(i)|1<<31)
				w += 4
				if res != nil {
					res[i] = g + tau // v - decode(-tau)
				}
			}
		}
	}
}
