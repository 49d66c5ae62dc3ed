package compress

import (
	"fmt"
	"math"
	"sync"

	"hipress/internal/tensor"
)

// Adaptive implements Accordion-style adaptive compression (Agarwal et al.,
// 2021), which the paper's related-work section notes "can be employed by
// HiPress as an advanced feature": during critical learning regimes
// (detected by rapid change in gradient norms) it uses a conservative
// compressor; once gradients stabilize it switches to an aggressive one.
//
// Detection follows Accordion's rule: for each gradient key, compare the
// current gradient L2 norm against the norm at the previous switch decision;
// a relative change above Threshold marks a critical regime.
//
// Adaptive is itself a Compressor, so it composes with ErrorFeedback and
// registers in the registry ("adaptive" wraps DGC at two ratios by
// default). DecodeInto dispatches on the payload's algorithm id, so
// receivers need no knowledge of the sender's current regime.
type Adaptive struct {
	conservative Compressor // used in critical regimes
	aggressive   Compressor // used in stable regimes
	threshold    float64

	mu       sync.Mutex
	prevNorm float64
	critical bool
	// switches counts regime changes, for tests and diagnostics.
	switches int
}

// NewAdaptive wraps a conservative and an aggressive compressor with a
// relative-norm-change threshold (Accordion's default is 0.5).
func NewAdaptive(conservative, aggressive Compressor, threshold float64) (*Adaptive, error) {
	if conservative == nil || aggressive == nil {
		return nil, fmt.Errorf("compress: adaptive needs two compressors")
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("compress: adaptive threshold %g must be positive", threshold)
	}
	return &Adaptive{
		conservative: conservative,
		aggressive:   aggressive,
		threshold:    threshold,
		critical:     true, // training starts in a critical regime
	}, nil
}

// Name implements Compressor.
func (a *Adaptive) Name() string {
	return fmt.Sprintf("adaptive(%s|%s)", a.conservative.Name(), a.aggressive.Name())
}

// Critical reports the current regime (diagnostics).
func (a *Adaptive) Critical() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.critical
}

// Switches reports how many regime changes have occurred.
func (a *Adaptive) Switches() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.switches
}

// EncodeInto implements Compressor: detect the regime from the gradient
// norm, then delegate to that regime's kernel.
func (a *Adaptive) EncodeInto(dst []byte, grad []float32) ([]byte, error) {
	norm := tensor.Norm2(grad)
	a.mu.Lock()
	wasCritical := a.critical
	if a.prevNorm > 0 {
		rel := math.Abs(norm-a.prevNorm) / a.prevNorm
		a.critical = rel > a.threshold
	}
	if a.critical != wasCritical {
		a.switches++
	}
	a.prevNorm = norm
	c := a.aggressive
	if a.critical {
		c = a.conservative
	}
	a.mu.Unlock()
	return c.EncodeInto(dst, grad)
}

// DecodeInto implements Compressor by dispatching on the payload's embedded
// algorithm: it tries the conservative decoder first and falls back to the
// aggressive one (payload headers reject the wrong decoder loudly, and the
// second decoder rewrites whatever the first left in dst).
func (a *Adaptive) DecodeInto(dst []float32, payload []byte) error {
	if a.conservative.DecodeInto(dst, payload) == nil {
		return nil
	}
	return a.aggressive.DecodeInto(dst, payload)
}

// DecodeAdd implements DecodeAdder with the same dispatch as DecodeInto, each
// regime running its own fused kernel. Trying the decoders in turn is sound
// for an add as well: a decoder turns away a payload that is not its own at
// the header, before it has touched dst.
func (a *Adaptive) DecodeAdd(payload []byte, dst []float32) error {
	if DecodeAdd(a.conservative, payload, dst) == nil {
		return nil
	}
	return DecodeAdd(a.aggressive, payload, dst)
}

// CompressedSize implements Compressor conservatively (the larger of the
// two regimes, so planners never under-budget).
func (a *Adaptive) CompressedSize(n int) int {
	c, g := a.conservative.CompressedSize(n), a.aggressive.CompressedSize(n)
	if c > g {
		return c
	}
	return g
}

func init() {
	Register("adaptive", func(p Params) (Compressor, error) {
		cons, err := NewDGC(p.Get("conservative_ratio", 0.05))
		if err != nil {
			return nil, err
		}
		aggr, err := NewDGC(p.Get("aggressive_ratio", 0.001))
		if err != nil {
			return nil, err
		}
		return NewAdaptive(cons, aggr, p.Get("threshold", 0.5))
	})
}
