package compress

import (
	"math"
	"testing"

	"hipress/internal/tensor"
)

// efMass sums grad contributions: over an EF-compressed stream, the total
// decoded mass plus the final residual must equal the total injected
// gradient mass element-wise (the EF invariant).
func efStep(t *testing.T, ef *ErrorFeedback, key string, grad []float32) []float32 {
	t.Helper()
	payload, err := ef.EncodeWithFeedbackInto(key, nil, grad)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(ef.Compressor(), payload, len(grad))
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestResidualExportImportMassConservation: export residuals mid-stream,
// import them into a fresh ErrorFeedback, and verify (a) the continuation is
// bit-identical to the uninterrupted wrapper, and (b) the EF mass invariant
// Σ decoded + residual == Σ injected holds across the export→import seam.
func TestResidualExportImportMassConservation(t *testing.T) {
	const n = 257
	const key = "w/p0"
	for _, algo := range []string{"onebit", "dgc", "tbq"} {
		c1, err := New(algo, Params{"ratio": 0.1})
		if err != nil {
			t.Fatal(err)
		}
		c2, err := New(algo, Params{"ratio": 0.1})
		if err != nil {
			t.Fatal(err)
		}
		ref := NewErrorFeedback(c1) // uninterrupted reference
		ef := NewErrorFeedback(c2)  // will be export/imported mid-stream

		rng := tensor.NewRNG(31)
		grads := make([][]float32, 12)
		for i := range grads {
			grads[i] = make([]float32, n)
			rng.FillNormal(grads[i], 1)
		}

		injected := make([]float32, n)  // Σ grads fed in
		recovered := make([]float32, n) // Σ decoded payloads out
		for i := 0; i < 6; i++ {
			tensor.Add(injected, grads[i])
			tensor.Add(recovered, efStep(t, ef, key, grads[i]))
			efStep(t, ref, key, grads[i])
		}

		// Export → fresh wrapper → import (the crash/restore seam).
		exported := ef.Residuals()
		if len(exported[key]) != n {
			t.Fatalf("%s: exported residual has %d elems, want %d", algo, len(exported[key]), n)
		}
		// Mutating the export must not corrupt the source store (deep copy).
		orig := exported[key][0]
		exported[key][0] = 1e6
		if got := ef.Residual(key)[0]; math.Float32bits(got) != math.Float32bits(orig) {
			t.Fatalf("%s: Residuals() aliased live state (%v vs %v)", algo, got, orig)
		}
		exported[key][0] = orig
		fresh := NewErrorFeedback(c2)
		fresh.SetResiduals(exported)
		exported[key][0] = math.Float32frombits(0x7fc00000) // NaN-poison the caller copy
		ef = fresh

		for i := 6; i < len(grads); i++ {
			tensor.Add(injected, grads[i])
			tensor.Add(recovered, efStep(t, ef, key, grads[i]))
			want := efStep(t, ref, key, grads[i])
			got := ef.Residual(key)
			refRes := ref.Residual(key)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(refRes[j]) {
					t.Fatalf("%s: iter %d residual[%d] %x vs reference %x — export/import broke the stream",
						algo, i, j, math.Float32bits(got[j]), math.Float32bits(refRes[j]))
				}
			}
		}

		// Mass conservation: injected == recovered + final residual.
		final := ef.Residual(key)
		for j := 0; j < n; j++ {
			sum := recovered[j] + final[j]
			if d := math.Abs(float64(sum - injected[j])); d > 1e-3*(1+math.Abs(float64(injected[j]))) {
				t.Fatalf("%s: mass leak at [%d]: injected %v, decoded+residual %v",
					algo, j, injected[j], sum)
			}
		}
	}
}

// TestSetResidualsNilClears: nil import behaves like Reset.
func TestSetResidualsNilClears(t *testing.T) {
	c, _ := New("onebit", nil)
	ef := NewErrorFeedback(c)
	g := make([]float32, 32)
	tensor.NewRNG(3).FillNormal(g, 1)
	if _, err := ef.EncodeWithFeedbackInto("w", nil, g); err != nil {
		t.Fatal(err)
	}
	if ef.Residual("w") == nil {
		t.Fatal("no residual accumulated")
	}
	ef.SetResiduals(nil)
	if ef.Residual("w") != nil {
		t.Fatal("SetResiduals(nil) left residual state behind")
	}
}
