// Package compress implements the five gradient compression algorithms the
// paper builds with CompLL (onebit, TBQ, TernGrad, DGC, GradDrop), plus the
// deliberately naive "OSS" baselines the evaluation compares against.
//
// All algorithms operate on real data through one interface: EncodeInto
// turns a []float32 gradient into a compact byte payload written into a
// caller-provided buffer, and DecodeInto reconstructs the (lossy) gradient
// into a caller-provided slice. The package functions Encode and Decode are
// the only allocating forms. Compressed gradients are NOT directly
// aggregatable — exactly the property that motivates CaSync — so the package
// also provides DecodeAdd, the fused decode+merge the paper's §5 describes.
//
// Compressors hold no per-gradient state; error-feedback residual state
// (which the quantization/sparsification convergence proofs rely on) lives
// in the ErrorFeedback wrapper so one compressor instance can serve many
// gradients and many workers.
package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"hipress/internal/kernels"
	"hipress/internal/tensor"
)

// Compressor is the unified abstraction mirroring CompLL's encode/decode API
// (paper Fig. 4): an encode that maps a float gradient to bytes and a decode
// that unfolds it back. Both write into memory the caller provides, so the
// synchronization path (buffers leased from the kernels arena) and one-off
// callers (Encode, Decode) run the same code.
type Compressor interface {
	// Name identifies the algorithm (and its parameterization) in plans,
	// logs, and benchmark tables.
	Name() string

	// EncodeInto compresses grad, which it does not modify. dst supplies
	// capacity (size it with MaxEncodedSize; nil is allowed): the returned
	// payload is dst resliced to the exact payload length, or a fresh buffer
	// when cap(dst) is insufficient. The five native kernels allocate
	// nothing when dst is large enough.
	EncodeInto(dst []byte, grad []float32) ([]byte, error)

	// DecodeInto reconstructs the gradient into dst, rewriting every
	// element. len(dst) must equal the encoded element count.
	DecodeInto(dst []float32, payload []byte) error

	// CompressedSize returns the payload size in bytes that an encode
	// produces for an n-element gradient (an estimate where the size is
	// data-dependent). The simulation plane uses this to size phantom
	// transfers without touching real data.
	CompressedSize(n int) int
}

// Encode compresses grad into a fresh payload.
func Encode(c Compressor, grad []float32) ([]byte, error) {
	return c.EncodeInto(nil, grad)
}

// Decode reconstructs an n-element gradient from payload into a fresh
// slice. n must match the length passed to the encode.
func Decode(c Compressor, payload []byte, n int) ([]float32, error) {
	out := make([]float32, n)
	if err := c.DecodeInto(out, payload); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeAdder is implemented by compressors that support the fused
// decode+merge operator: dst[i] += decoded[i] without materializing the
// intermediate gradient.
type DecodeAdder interface {
	DecodeAdd(payload []byte, dst []float32) error
}

// Ratio returns compressed bytes / uncompressed bytes for an n-element
// gradient under c. This is the paper's compression rate r (Table 2).
func Ratio(c Compressor, n int) float64 {
	if n == 0 {
		return 1
	}
	return float64(c.CompressedSize(n)) / float64(4*n)
}

// DecodeAdd merges the decoded payload into dst: dst[i] += decoded[i]. A
// compressor with a fused kernel runs it; for the rest this is the generic
// construction the fused kernels are tested against — decode into arena
// scratch, then add — so no caller of the merge allocates a gradient's worth
// of floats per contribution. On error dst's contents are unspecified.
func DecodeAdd(c Compressor, payload []byte, dst []float32) error {
	if da, ok := c.(DecodeAdder); ok {
		return da.DecodeAdd(payload, dst)
	}
	var scratch kernels.Lease
	defer scratch.Release()
	dec := scratch.F32(len(dst))
	if err := c.DecodeInto(dec, payload); err != nil {
		return err
	}
	tensor.Add(dst, dec)
	return nil
}

// --- payload header helpers -------------------------------------------------

// Every payload starts with a fixed header so that corrupted or mismatched
// buffers fail loudly instead of silently producing garbage gradients.
const headerSize = 8 // magic uint16 | algo uint16 | n uint32

func putHeader(buf []byte, magic uint16, algo uint16, n int) {
	binary.LittleEndian.PutUint16(buf[0:], magic)
	binary.LittleEndian.PutUint16(buf[2:], algo)
	binary.LittleEndian.PutUint32(buf[4:], uint32(n))
}

func checkHeader(payload []byte, magic uint16, algo uint16, n int) error {
	if len(payload) < headerSize {
		return fmt.Errorf("%w: %d bytes, need at least the %d-byte header",
			ErrTruncatedPayload, len(payload), headerSize)
	}
	if m := binary.LittleEndian.Uint16(payload[0:]); m != magic {
		return fmt.Errorf("compress: bad magic %#04x", m)
	}
	if a := binary.LittleEndian.Uint16(payload[2:]); a != algo {
		return fmt.Errorf("compress: payload algorithm id %d does not match decoder %d", a, algo)
	}
	if pn := int(binary.LittleEndian.Uint32(payload[4:])); pn != n {
		return fmt.Errorf("compress: payload length %d does not match requested %d", pn, n)
	}
	return nil
}

const payloadMagic = 0xC511 // "CompLL-ish" tag shared by all algorithms

// Algorithm ids embedded in payload headers.
const (
	algoOnebit uint16 = iota + 1
	algoTBQ
	algoTernGrad
	algoDGC
	algoGradDrop
)

func putF32(buf []byte, x float32) { binary.LittleEndian.PutUint32(buf, math.Float32bits(x)) }
func getF32(buf []byte) float32    { return math.Float32frombits(binary.LittleEndian.Uint32(buf)) }

// --- (index, value) payload ----------------------------------------------------

// DGC and GradDrop share one sparse layout (little-endian), the payload of
// CompLL's concat(kept) / extract + scatter:
//
//	header(8) | k uint32 | k × (index uint32) | k × (value float32)

// ivSize returns the length of a k-entry (index, value) payload.
func ivSize(k int) int { return headerSize + 4 + 8*k }

// keep returns how many of n elements a keep fraction ratio in (0,1]
// transmits: at least one, so every gradient makes some progress.
func keep(ratio float64, n int) int {
	if n == 0 {
		return 0
	}
	return min(max(int(ratio*float64(n)), 1), n)
}

// ivFrame lays out the header and count of a k-entry payload for an
// n-element gradient in dst and returns it with its index and value bodies.
func ivFrame(dst []byte, algo uint16, n, k int) (out, idxBody, valBody []byte) {
	out = ensurePayload(dst, ivSize(k))
	putHeader(out, payloadMagic, algo, n)
	binary.LittleEndian.PutUint32(out[headerSize:], uint32(k))
	return out, out[headerSize+4 : headerSize+4+4*k], out[headerSize+4+4*k:]
}

// ivDecode validates an (index, value) payload of algorithm algo against
// len(dst), then scatters it: dst[idx] += value, into a dst cleared
// chunk-parallel first unless add. The k ≪ n survivors scatter serially.
func ivDecode(algo uint16, name string, dst []float32, payload []byte, add bool) error {
	n := len(dst)
	if err := checkHeader(payload, payloadMagic, algo, n); err != nil {
		return err
	}
	if len(payload) < headerSize+4 {
		return errSize(name, len(payload), headerSize+4)
	}
	k := int(binary.LittleEndian.Uint32(payload[headerSize:]))
	if want := ivSize(k); len(payload) != want {
		return errSize(name, len(payload), want)
	}
	if !add {
		zeroF32(dst)
	}
	idxBody := payload[headerSize+4:]
	valBody := payload[headerSize+4+4*k:]
	for j := 0; j < k; j++ {
		idx := int(binary.LittleEndian.Uint32(idxBody[4*j:]))
		if idx >= n {
			return fmt.Errorf("compress: %s index %d out of range %d", name, idx, n)
		}
		dst[idx] += getF32(valBody[4*j:])
	}
	return nil
}

// --- registry ----------------------------------------------------------------

// Params carries algorithm-specific knobs (the paper's "algorithm-specific
// parameters": bitwidth for quantizers, ratio/threshold for sparsifiers).
type Params map[string]float64

// Get returns the named parameter or def when absent.
func (p Params) Get(name string, def float64) float64 {
	if p == nil {
		return def
	}
	if v, ok := p[name]; ok {
		return v
	}
	return def
}

// Factory builds a compressor from parameters.
type Factory func(Params) (Compressor, error)

var registry = map[string]Factory{}

// Register installs a factory under name. It panics on duplicates: algorithm
// registration happens at init time and a collision is a programming error.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic("compress: duplicate registration of " + name)
	}
	registry[name] = f
}

// New builds a compressor by registry name. Registered names include
// "onebit", "tbq", "terngrad", "dgc", "graddrop" and their "oss-" baseline
// variants.
func New(name string, p Params) (Compressor, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown algorithm %q (have %v)", name, Names())
	}
	return f(p)
}

// Names returns the sorted list of registered algorithm names.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("onebit", func(p Params) (Compressor, error) { return Onebit{}, nil })
	Register("tbq", func(p Params) (Compressor, error) {
		return NewTBQ(p.Get("tau", 0.05)), nil
	})
	Register("terngrad", func(p Params) (Compressor, error) {
		return NewTernGrad(int(p.Get("bitwidth", 2)), uint64(p.Get("seed", 1)))
	})
	Register("dgc", func(p Params) (Compressor, error) {
		return NewDGC(p.Get("ratio", 0.001))
	})
	Register("graddrop", func(p Params) (Compressor, error) {
		return NewGradDrop(p.Get("ratio", 0.01), uint64(p.Get("seed", 1)))
	})
	Register("oss-onebit", func(p Params) (Compressor, error) { return OSSOnebit{}, nil })
	Register("oss-tbq", func(p Params) (Compressor, error) {
		return OSSTBQ{TBQ: NewTBQ(p.Get("tau", 0.05))}, nil
	})
	Register("oss-dgc", func(p Params) (Compressor, error) {
		d, err := NewDGC(p.Get("ratio", 0.001))
		if err != nil {
			return nil, err
		}
		return OSSDGC{DGC: d}, nil
	})
}
