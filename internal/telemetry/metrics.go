package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the metrics half of the observability plane: a registry of
// counters, gauges, and fixed-bucket histograms with Prometheus-compatible
// naming. Instruments are obtained once at setup (Registry lookups take a
// lock) and updated lock-free on the hot path; nil instruments no-op.

// Counter is a monotonically increasing float64 (float so byte counts and
// second sums share one type; integers stay exact to 2^53).
type Counter struct{ bits atomic.Uint64 }

// Add increments the counter. Negative deltas are ignored (counters are
// monotone); nil counters no-op.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 for nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Reset zeroes the counter. Test support only — exposition assumes
// monotonicity between scrapes.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.bits.Store(0)
}

// Gauge is a settable float64.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v (nil gauges no-op).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by v.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, v)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// bucket[i] counts observations ≤ UpperBounds[i], plus an implicit +Inf).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits
	total  atomic.Uint64
}

// Observe records one observation (nil histograms no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.total.Add(1)
	addFloat(&h.sum, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// LatencyBuckets covers 10 µs … 30 s, roughly ×3 per step — wide enough for
// both virtual-clock iteration times and wall-clock live rounds.
var LatencyBuckets = []float64{
	1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30,
}

// RatioBuckets covers 0.1 % … 100 % in roughly ×2 steps, for compression
// ratios and other (0, 1] fractions such as the autotuner's calibrated
// wire/raw estimates.
var RatioBuckets = []float64{
	0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1,
}

// series is one labeled instrument inside a family.
type series struct {
	labels string // canonical rendered label set, "" for none
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one metric name: a type, help text, and its labeled series.
type family struct {
	name, help, typ string
	series          map[string]*series
}

// Registry holds metric families. Nil registries hand out nil instruments,
// so a disabled metrics plane costs nothing past setup. The zero value is
// not usable — use NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

// labelString renders "k1,v1,k2,v2,..." pairs canonically (sorted by key,
// values escaped). Panics on an odd pair count — a programming error.
func labelString(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", kv))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes backslash, quote, and newline — a superset of what the
		// Prometheus text format requires.
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	return b.String()
}

// lookup finds or creates the series for (name, labels), enforcing type
// consistency within the family.
func (r *Registry) lookup(name, help, typ string, kv []string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	ls := labelString(kv)
	s := f.series[ls]
	if s == nil {
		s = &series{labels: ls}
		f.series[ls] = s
	}
	return s
}

// Counter returns the counter named name with the given "k, v, ..." label
// pairs, creating it on first use. Nil registries return nil (a valid
// no-op counter).
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, "counter", kv)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge named name (nil registry → nil).
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, "gauge", kv)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram returns the histogram named name with the given upper bounds
// (sorted ascending; +Inf implicit). Bounds are fixed at first registration;
// later calls reuse them. Nil registry → nil.
func (r *Registry) Histogram(name, help string, bounds []float64, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, "histogram", kv)
	if s.h == nil {
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		sort.Float64s(bs)
		s.h = &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
	}
	return s.h
}
