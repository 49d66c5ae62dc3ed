package compress

import (
	"strconv"
	"time"

	"hipress/internal/telemetry"
)

// Instrumented wraps a compressor with operation counters — the kind of
// observability a production framework exports (encode/decode counts, raw
// vs. wire bytes, realized compression ratio). The counters live in a
// telemetry.Registry, so compressor stats and engine/live-plane stats share
// one Prometheus exposition path: pass a shared registry (and labels) via
// NewInstrumentedWith, or let NewInstrumented keep a private one when only
// Stats() snapshots are wanted. All counters are atomic; the wrapper adds
// no locking to the data path.
type Instrumented struct {
	inner Compressor

	encodes, decodes      *telemetry.Counter
	rawBytes, wireBytes   *telemetry.Counter
	errors                *telemetry.Counter
	encodeNs, decodeNs    *telemetry.Counter
	encodeElems, decElems *telemetry.Counter
}

// Metric names the wrapper registers (one family each, labeled by whatever
// the caller passes to NewInstrumentedWith).
const (
	MetricEncodes     = "hipress_compress_encodes_total"
	MetricDecodes     = "hipress_compress_decodes_total"
	MetricRawBytes    = "hipress_compress_raw_bytes_total"
	MetricWireBytes   = "hipress_compress_wire_bytes_total"
	MetricErrors      = "hipress_compress_errors_total"
	MetricEncodeNs    = "hipress_compress_encode_ns_total"
	MetricDecodeNs    = "hipress_compress_decode_ns_total"
	MetricEncodeElems = "hipress_compress_encode_elems_total"
	MetricDecodeElems = "hipress_compress_decode_elems_total"
)

// NewInstrumented wraps c with counters on a private registry.
func NewInstrumented(c Compressor) *Instrumented {
	return NewInstrumentedWith(c, nil)
}

// NewInstrumentedWith wraps c with counters registered in reg under the
// given "k, v, ..." label pairs (for example "algo", "onebit", "node",
// "3"). A nil reg falls back to a private registry so Stats() keeps
// working without shared exposition.
func NewInstrumentedWith(c Compressor, reg *telemetry.Registry, labels ...string) *Instrumented {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Instrumented{
		inner:       c,
		encodes:     reg.Counter(MetricEncodes, "gradient encode operations", labels...),
		decodes:     reg.Counter(MetricDecodes, "gradient decode operations", labels...),
		rawBytes:    reg.Counter(MetricRawBytes, "bytes before compression", labels...),
		wireBytes:   reg.Counter(MetricWireBytes, "bytes after compression (on the wire)", labels...),
		errors:      reg.Counter(MetricErrors, "encode/decode failures", labels...),
		encodeNs:    reg.Counter(MetricEncodeNs, "nanoseconds spent in encode kernels", labels...),
		decodeNs:    reg.Counter(MetricDecodeNs, "nanoseconds spent in decode kernels", labels...),
		encodeElems: reg.Counter(MetricEncodeElems, "gradient elements encoded", labels...),
		decElems:    reg.Counter(MetricDecodeElems, "gradient elements decoded", labels...),
	}
}

// NodeLabel renders a node id as a metric label value.
func NodeLabel(v int) string { return strconv.Itoa(v) }

// Name implements Compressor.
func (m *Instrumented) Name() string { return m.inner.Name() }

// EncodeInto implements Compressor.
func (m *Instrumented) EncodeInto(dst []byte, grad []float32) ([]byte, error) {
	start := time.Now() //hipress:wallclock codec latency telemetry; never serialized
	payload, err := m.inner.EncodeInto(dst, grad)
	m.noteEncode(len(grad), payload, err, start)
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// EncodeFused implements FusedEncoder, forwarding the fused error-feedback
// encode.
func (m *Instrumented) EncodeFused(dst []byte, grad, residual []float32) ([]byte, error) {
	start := time.Now() //hipress:wallclock codec latency telemetry; never serialized
	payload, err := encodeFused(m.inner, dst, grad, residual)
	m.noteEncode(len(grad), payload, err, start)
	if err != nil {
		return nil, err
	}
	return payload, nil
}

func (m *Instrumented) noteEncode(n int, payload []byte, err error, start time.Time) {
	if err != nil {
		m.errors.Inc()
		return
	}
	m.encodeNs.Add(float64(time.Since(start).Nanoseconds())) //hipress:wallclock codec latency telemetry; never serialized
	m.encodes.Inc()
	m.encodeElems.Add(float64(n))
	m.rawBytes.Add(float64(4 * n))
	m.wireBytes.Add(float64(len(payload)))
}

// DecodeInto implements Compressor.
func (m *Instrumented) DecodeInto(dst []float32, payload []byte) error {
	start := time.Now() //hipress:wallclock codec latency telemetry; never serialized
	if err := m.inner.DecodeInto(dst, payload); err != nil {
		m.errors.Inc()
		return err
	}
	m.noteDecode(len(dst), start)
	return nil
}

// DecodeAdd implements DecodeAdder, forwarding the fused decode+merge so
// wrapping a compressor does not silently fall back to Decode+add on the
// live merge path.
func (m *Instrumented) DecodeAdd(payload []byte, dst []float32) error {
	start := time.Now() //hipress:wallclock codec latency telemetry; never serialized
	if err := DecodeAdd(m.inner, payload, dst); err != nil {
		m.errors.Inc()
		return err
	}
	m.noteDecode(len(dst), start)
	return nil
}

func (m *Instrumented) noteDecode(n int, start time.Time) {
	m.decodeNs.Add(float64(time.Since(start).Nanoseconds())) //hipress:wallclock codec latency telemetry; never serialized
	m.decodes.Inc()
	m.decElems.Add(float64(n))
}

// CompressedSize implements Compressor.
func (m *Instrumented) CompressedSize(n int) int { return m.inner.CompressedSize(n) }

// MaxEncodedSize forwards the worst-case payload bound of the wrapped
// compressor.
func (m *Instrumented) MaxEncodedSize(n int) int { return MaxEncodedSize(m.inner, n) }

// Stats is a snapshot of the counters.
type Stats struct {
	Encodes, Decodes         int64
	RawBytes, WireBytes      int64
	Errors                   int64
	EncodeNs, DecodeNs       int64
	EncodeElems, DecodeElems int64
}

// EncodeNsPerElem returns average encode cost in ns/element (0 before any
// encode) — the per-kernel figure the `kernels` experiment tables.
func (s Stats) EncodeNsPerElem() float64 {
	if s.EncodeElems == 0 {
		return 0
	}
	return float64(s.EncodeNs) / float64(s.EncodeElems)
}

// DecodeNsPerElem returns average decode cost in ns/element.
func (s Stats) DecodeNsPerElem() float64 {
	if s.DecodeElems == 0 {
		return 0
	}
	return float64(s.DecodeNs) / float64(s.DecodeElems)
}

// Ratio returns realized wire/raw bytes, or 1 before any encode.
func (s Stats) Ratio() float64 {
	if s.RawBytes == 0 {
		return 1
	}
	return float64(s.WireBytes) / float64(s.RawBytes)
}

// Saved returns total bytes kept off the wire so far.
func (s Stats) Saved() int64 { return s.RawBytes - s.WireBytes }

// Stats returns a consistent-enough snapshot (each counter individually
// atomic).
func (m *Instrumented) Stats() Stats {
	return Stats{
		Encodes:     int64(m.encodes.Value()),
		Decodes:     int64(m.decodes.Value()),
		RawBytes:    int64(m.rawBytes.Value()),
		WireBytes:   int64(m.wireBytes.Value()),
		Errors:      int64(m.errors.Value()),
		EncodeNs:    int64(m.encodeNs.Value()),
		DecodeNs:    int64(m.decodeNs.Value()),
		EncodeElems: int64(m.encodeElems.Value()),
		DecodeElems: int64(m.decElems.Value()),
	}
}

// Reset zeroes the counters (test support).
func (m *Instrumented) Reset() {
	m.encodes.Reset()
	m.decodes.Reset()
	m.rawBytes.Reset()
	m.wireBytes.Reset()
	m.errors.Reset()
	m.encodeNs.Reset()
	m.decodeNs.Reset()
	m.encodeElems.Reset()
	m.decElems.Reset()
}
