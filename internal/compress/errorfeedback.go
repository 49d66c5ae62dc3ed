package compress

import (
	"sync"

	"hipress/internal/tensor"
)

// ErrorFeedback maintains per-gradient residual state for error-feedback
// (memory-compensated) compression. Before compressing, the residual left
// over from previous iterations is added to the fresh gradient; after
// compressing, whatever the encoder failed to represent becomes the new
// residual:
//
//	v        = grad + residual
//	payload  = Encode(v)
//	residual = v - Decode(payload)
//
// This is the standard EF-SGD construction that onebit, TBQ, DGC, and
// GradDrop all rely on for convergence (TernGrad is unbiased and does not
// need it, but tolerates it). Residuals are keyed by gradient name because a
// DNN synchronizes hundreds of named gradients per iteration, each needing
// its own memory.
//
// ErrorFeedback is safe for concurrent use by multiple goroutines, matching
// the live plane where layer gradients complete out of order.
type ErrorFeedback struct {
	c Compressor

	mu        sync.Mutex
	residuals map[string][]float32
}

// NewErrorFeedback wraps c with residual accumulation.
func NewErrorFeedback(c Compressor) *ErrorFeedback {
	return &ErrorFeedback{c: c, residuals: make(map[string][]float32)}
}

// Compressor returns the wrapped compressor.
func (ef *ErrorFeedback) Compressor() Compressor { return ef.c }

// EncodeWithFeedbackInto compresses grad under key, applying and updating
// the residual; grad is not modified. The payload is written into dst (sized
// via MaxEncodedSize; Compressor.EncodeInto has the capacity contract) and
// the residual update is fused into the encode passes when the wrapped
// compressor supports FusedEncoder — one combined residual-add+encode sweep
// plus one residual-update sweep instead of four separate passes, halving
// memory traffic on the hot path. Payload bytes and the resulting residual
// are bit-identical to the unfused construction.
//
// Concurrent encodes under the *same* key race on the residual buffer and
// are not supported (they never were: the unfused path read the residual
// outside the lock); distinct keys are safe, which matches the live plane's
// one-gradient-per-key layout.
func (ef *ErrorFeedback) EncodeWithFeedbackInto(key string, dst []byte, grad []float32) ([]byte, error) {
	ef.mu.Lock()
	res := ef.residuals[key]
	if len(res) != len(grad) {
		res = make([]float32, len(grad))
		ef.residuals[key] = res
	}
	ef.mu.Unlock()
	return encodeFused(ef.c, dst, grad, res)
}

// MaxEncodedSize reports the worst-case payload length of the wrapped
// compressor — the capacity to lease for EncodeWithFeedbackInto.
func (ef *ErrorFeedback) MaxEncodedSize(n int) int { return MaxEncodedSize(ef.c, n) }

// Residual returns a copy of the residual currently stored for key, or nil
// if none exists. Intended for tests and diagnostics.
func (ef *ErrorFeedback) Residual(key string) []float32 {
	ef.mu.Lock()
	defer ef.mu.Unlock()
	r, ok := ef.residuals[key]
	if !ok {
		return nil
	}
	return tensor.Clone(r)
}

// Residuals exports a deep copy of every residual keyed by gradient name —
// the error-feedback state a checkpoint must capture. The compressors'
// convergence argument hinges on mass conservation (gradient mass is only
// ever deferred into the residual, never destroyed), so losing this map on a
// crash silently breaks EF-SGD; see internal/ckpt.
func (ef *ErrorFeedback) Residuals() map[string][]float32 {
	ef.mu.Lock()
	defer ef.mu.Unlock()
	out := make(map[string][]float32, len(ef.residuals))
	for k, v := range ef.residuals {
		out[k] = tensor.Clone(v)
	}
	return out
}

// SetResiduals replaces the residual store with a deep copy of res — the
// import half of checkpoint restore (and of elastic state resync, where a
// rejoining peer adopts a healthy peer's residuals). A nil map clears all
// state, equivalent to Reset.
func (ef *ErrorFeedback) SetResiduals(res map[string][]float32) {
	in := make(map[string][]float32, len(res))
	for k, v := range res {
		in[k] = tensor.Clone(v)
	}
	ef.mu.Lock()
	ef.residuals = in
	ef.mu.Unlock()
}

// Reset drops all residual state (e.g. between training runs).
func (ef *ErrorFeedback) Reset() {
	ef.mu.Lock()
	defer ef.mu.Unlock()
	ef.residuals = make(map[string][]float32)
}
