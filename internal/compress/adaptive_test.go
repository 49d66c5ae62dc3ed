package compress

import (
	"testing"

	"hipress/internal/kernels"
	"hipress/internal/tensor"
)

func TestAdaptiveValidation(t *testing.T) {
	d, _ := NewDGC(0.1)
	if _, err := NewAdaptive(nil, d, 0.5); err == nil {
		t.Fatal("nil conservative accepted")
	}
	if _, err := NewAdaptive(d, d, 0); err == nil {
		t.Fatal("zero threshold accepted")
	}
}

func TestAdaptiveRegimeSwitching(t *testing.T) {
	cons, _ := NewDGC(0.5)
	aggr, _ := NewDGC(0.01)
	a, err := NewAdaptive(cons, aggr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Critical() {
		t.Fatal("training must start in the critical regime")
	}
	// Stable norms → aggressive regime (smaller payloads).
	g := make([]float32, 1000)
	tensor.NewRNG(1).FillNormal(g, 1)
	var stableSize int
	for i := 0; i < 3; i++ {
		payload, err := Encode(a, g)
		if err != nil {
			t.Fatal(err)
		}
		stableSize = len(payload)
	}
	if a.Critical() {
		t.Fatal("constant-norm gradients should be a stable regime")
	}
	// A norm spike → back to the conservative regime, larger payloads.
	spike := tensor.Clone(g)
	tensor.Scale(spike, 10)
	payload, err := Encode(a, spike)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Critical() {
		t.Fatal("10× norm change did not trigger the critical regime")
	}
	if len(payload) <= stableSize {
		t.Fatalf("critical payload (%dB) not larger than stable (%dB)", len(payload), stableSize)
	}
	if a.Switches() < 2 {
		t.Fatalf("expected at least 2 regime switches, got %d", a.Switches())
	}
}

func TestAdaptiveDecodeEitherRegime(t *testing.T) {
	// Mixed families: decode must dispatch on the payload, not the regime.
	aggr, _ := NewDGC(0.01)
	a, err := NewAdaptive(Onebit{}, aggr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]float32, 512)
	tensor.NewRNG(2).FillNormal(g, 1)
	// First encode: critical → onebit payload.
	p1, err := Encode(a, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(a, p1, 512); err != nil {
		t.Fatalf("decode of conservative payload: %v", err)
	}
	// Stabilize, then encode with the aggressive compressor.
	Encode(a, g)
	p2, err := Encode(a, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(a, p2, 512); err != nil {
		t.Fatalf("decode of aggressive payload: %v", err)
	}
	if len(p2) >= len(p1) {
		t.Fatalf("aggressive payload (%d) not smaller than conservative (%d)", len(p2), len(p1))
	}
}

func TestAdaptiveRegistered(t *testing.T) {
	c, err := New("adaptive", Params{"conservative_ratio": 0.2, "aggressive_ratio": 0.01})
	if err != nil {
		t.Fatal(err)
	}
	g := make([]float32, 300)
	tensor.NewRNG(3).FillNormal(g, 1)
	payload, err := Encode(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(c, payload, 300); err != nil {
		t.Fatal(err)
	}
	if c.CompressedSize(1000) <= 0 {
		t.Fatal("non-positive size")
	}
}

// TestAdaptiveSteadyStateAllocs extends TestSteadyStateAllocs through the
// adaptive wrapper: EncodeInto, DecodeInto and DecodeAdd hand the caller's
// buffers to the chosen regime's kernel, so wrapping allocates nothing. Skipped under
// the race detector for the same reason.
func TestAdaptiveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under -race; alloc counts are meaningless")
	}
	c := newSeeded(t, "adaptive", 5)
	n := 2*kernels.ChunkElems + 11
	grad := randGrad(99, n, 1)
	dst := make([]byte, MaxEncodedSize(c, n))
	dec := make([]float32, n)
	var payload []byte
	for i := 0; i < 3; i++ { // warm the op pools; leaves the stable regime
		var err error
		if payload, err = c.EncodeInto(dst, grad); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := c.EncodeInto(dst, grad); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("adaptive EncodeInto: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		if err := c.DecodeInto(dec, payload); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("adaptive DecodeInto: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		if err := DecodeAdd(c, payload, dec); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("adaptive DecodeAdd: %v allocs/op, want 0", a)
	}
}
