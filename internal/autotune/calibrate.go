package autotune

import (
	"sync"
	"time"

	"hipress/internal/compress"
	"hipress/internal/core"
)

// This file is the measurement half of the closed loop: online estimators
// that turn raw observations (ack round trips, compression instrumentation
// deltas) into the fitted cost-model coefficients the decision engine needs
// — live core.Curve fits per directed link, encode/decode cost rates, and
// the realized compression ratio.

// EWMA is an exponentially-weighted moving average with a sample counter,
// so callers can gate decisions on how much evidence backs the estimate.
type EWMA struct {
	Alpha float64 // smoothing factor in (0, 1]; higher = faster tracking
	val   float64
	n     int64
}

// Observe folds one sample into the average.
func (e *EWMA) Observe(x float64) {
	if e.n == 0 {
		e.val = x
	} else {
		a := e.Alpha
		if a <= 0 || a > 1 {
			a = 0.2
		}
		e.val = a*x + (1-a)*e.val
	}
	e.n++
}

// Value returns the current estimate (0 before any sample).
func (e *EWMA) Value() float64 { return e.val }

// Count returns how many samples have been folded in.
func (e *EWMA) Count() int64 { return e.n }

// CurveFit is an online least-squares fit of the affine cost form
// T(x) = Fixed + PerByte·x from (bytes, seconds) samples. Only running
// sums are kept, so feeding it from a hot path is allocation-free. A Decay
// in (0, 1) turns it into exponentially-weighted least squares: every new
// sample multiplies the old sums by Decay, so the fit tracks regime changes
// (a mid-run bandwidth drop) instead of averaging them away.
type CurveFit struct {
	Decay            float64 // per-sample forgetting factor; 0 or 1 = never forget
	n                int64   // total samples ever (confidence gating)
	w                float64 // decayed effective sample weight
	sx, sy, sxx, sxy float64
	minX, maxX       float64
}

// Add folds in one (bytes, seconds) sample.
func (f *CurveFit) Add(x, y float64) {
	if f.n == 0 || x < f.minX {
		f.minX = x
	}
	if x > f.maxX {
		f.maxX = x
	}
	if d := f.Decay; d > 0 && d < 1 {
		f.w *= d
		f.sx *= d
		f.sy *= d
		f.sxx *= d
		f.sxy *= d
	}
	f.n++
	f.w++
	f.sx += x
	f.sy += y
	f.sxx += x * x
	f.sxy += x * y
}

// Count returns the number of samples folded in.
func (f *CurveFit) Count() int64 { return f.n }

// Curve returns the fitted affine curve. With no spread in x (a constant
// gradient mix gives every sample the same payload size) the slope is
// unidentifiable, so the fit degrades to the proportional curve through the
// mean — conservative, and exact once sizes do vary. Negative coefficients
// (possible with noisy samples) are clamped to zero: cost curves are
// non-negative and non-decreasing by construction.
func (f *CurveFit) Curve() (core.Curve, bool) {
	if f.n == 0 {
		return core.Curve{}, false
	}
	nf := f.w
	den := nf*f.sxx - f.sx*f.sx
	// Identifiability needs genuine spread, not just float residue.
	if f.n >= 2 && den > 1e-9*f.sxx*nf && f.maxX > f.minX {
		per := (nf*f.sxy - f.sx*f.sy) / den
		fixed := (f.sy - per*f.sx) / nf
		if per < 0 {
			per = 0
			fixed = f.sy / nf
		}
		if fixed < 0 {
			fixed = 0
		}
		return core.Curve{Fixed: fixed, PerByte: per}, true
	}
	if f.sx <= 0 {
		return core.Curve{}, false
	}
	return core.Curve{PerByte: f.sy / f.sx}, true
}

// link identifies one directed edge of the cluster.
type link struct{ from, to int }

// Calibrator accumulates live measurements into cost-model coefficients.
// ObserveLink is safe for concurrent use (it is called from every sender
// goroutine); the snapshot methods take the same lock.
type Calibrator struct {
	mu    sync.Mutex
	links map[link]*CurveFit

	encNsPerByte EWMA // encode cost, ns per raw byte
	decNsPerByte EWMA // decode cost, ns per wire byte
	ratio        EWMA // realized wire/raw compression ratio

	prevWire compress.Stats
	haveWire bool
}

// NewCalibrator returns an empty calibrator with default smoothing.
func NewCalibrator() *Calibrator {
	return &Calibrator{
		links:        map[link]*CurveFit{},
		encNsPerByte: EWMA{Alpha: 0.3},
		decNsPerByte: EWMA{Alpha: 0.3},
		ratio:        EWMA{Alpha: 0.3},
	}
}

// ObserveLink folds one unambiguous ack round trip into the directed link's
// curve fit. The ack return leg and receiver turnaround are size-independent,
// so the affine fit absorbs them into Fixed and the slope tracks the
// goodput-limited term the planner cares about.
func (c *Calibrator) ObserveLink(from, to, payloadBytes int, rtt time.Duration) {
	if payloadBytes <= 0 || rtt <= 0 {
		return
	}
	c.mu.Lock()
	f := c.links[link{from, to}]
	if f == nil {
		// Forget aggressively: link goodput is exactly the coefficient that
		// shifts under the feet of a running cluster.
		f = &CurveFit{Decay: 0.9}
		c.links[link{from, to}] = f
	}
	f.Add(float64(payloadBytes), rtt.Seconds())
	c.mu.Unlock()
}

// ObserveWire diffs a cumulative compression-instrumentation snapshot
// against the previous one and folds the delta into the encode/decode cost
// and ratio estimates. Rounds that compressed nothing contribute no samples.
func (c *Calibrator) ObserveWire(cum compress.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.haveWire {
		c.prevWire, c.haveWire = cum, true
		// First snapshot may already hold a full round's work: fall through
		// with the zero-stats baseline so it is not discarded.
	}
	d := compress.Stats{
		EncodeNs:    cum.EncodeNs - c.prevWire.EncodeNs,
		DecodeNs:    cum.DecodeNs - c.prevWire.DecodeNs,
		EncodeElems: cum.EncodeElems - c.prevWire.EncodeElems,
		DecodeElems: cum.DecodeElems - c.prevWire.DecodeElems,
		RawBytes:    cum.RawBytes - c.prevWire.RawBytes,
		WireBytes:   cum.WireBytes - c.prevWire.WireBytes,
	}
	c.prevWire = cum
	if d.EncodeElems > 0 {
		// 4 raw bytes per float32 element.
		c.encNsPerByte.Observe(d.EncodeNsPerElem() / 4)
	}
	if d.DecodeElems > 0 {
		c.decNsPerByte.Observe(d.DecodeNsPerElem() / 4)
	}
	if d.RawBytes > 0 {
		c.ratio.Observe(float64(d.WireBytes) / float64(d.RawBytes))
	}
}

// sendRefBytes is the payload size at which candidate link curves are
// compared to pick the bottleneck: 1 MiB sits in the bandwidth-dominated
// regime on every modeled fabric.
const sendRefBytes = 1 << 20

// SendCurve returns the fitted cost curve of the slowest confident link —
// the conservative choice, since one slow hop gates a ring round and the
// busiest PS link gates a pull. A link is confident once it holds at least
// minSamples unambiguous round trips; with no confident link the calibrator
// abstains and (false) is returned.
func (c *Calibrator) SendCurve(minSamples int) (core.Curve, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var worst core.Curve
	found := false
	for _, f := range c.links {
		if f.Count() < int64(minSamples) {
			continue
		}
		cv, ok := f.Curve()
		if !ok {
			continue
		}
		if !found || cv.At(sendRefBytes) > worst.At(sendRefBytes) {
			worst, found = cv, true
		}
	}
	return worst, found
}

// EncCurve returns the measured encode cost as a proportional curve in
// seconds per raw byte, falling back to prior when no live sample exists
// yet. ok is false only when there is neither.
func (c *Calibrator) EncCurve(prior core.Curve) (core.Curve, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.encNsPerByte.Count() > 0 {
		return core.Curve{PerByte: c.encNsPerByte.Value() * 1e-9}, true
	}
	return prior, prior != core.Curve{}
}

// DecCurve is EncCurve for the decode direction (seconds per wire byte).
func (c *Calibrator) DecCurve(prior core.Curve) (core.Curve, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.decNsPerByte.Count() > 0 {
		return core.Curve{PerByte: c.decNsPerByte.Value() * 1e-9}, true
	}
	return prior, prior != core.Curve{}
}

// Ratio returns the realized compression ratio estimate, falling back to
// prior (ok=false when neither is available). Estimates are clamped to
// (0, 1]: a "compressor" that inflates never helps and would only distort
// the cost comparison.
func (c *Calibrator) Ratio(prior float64) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := prior
	if c.ratio.Count() > 0 {
		r = c.ratio.Value()
	}
	if r <= 0 {
		return 0, false
	}
	if r > 1 {
		r = 1
	}
	return r, true
}
