package compress

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hipress/internal/tensor"
)

// newAll returns one instance of every optimized algorithm with default
// parameters for table-driven tests.
func newAll(t *testing.T) []Compressor {
	t.Helper()
	names := []string{"onebit", "tbq", "terngrad", "dgc", "graddrop"}
	out := make([]Compressor, 0, len(names))
	for _, n := range names {
		c, err := New(n, nil)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		out = append(out, c)
	}
	return out
}

func randGrad(seed uint64, n int, sigma float64) []float32 {
	v := make([]float32, n)
	tensor.NewRNG(seed).FillNormal(v, sigma)
	return v
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	for _, want := range []string{"onebit", "tbq", "terngrad", "dgc", "graddrop", "oss-onebit", "oss-tbq", "oss-dgc"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q; have %v", want, names)
		}
	}
	if _, err := New("no-such-algo", nil); err == nil {
		t.Fatalf("New with unknown name did not error")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate Register did not panic")
		}
	}()
	Register("onebit", func(Params) (Compressor, error) { return Onebit{}, nil })
}

func TestParamsGet(t *testing.T) {
	var p Params
	if got := p.Get("x", 7); got != 7 {
		t.Fatalf("nil Params.Get = %v, want default", got)
	}
	p = Params{"x": 3}
	if got := p.Get("x", 7); got != 3 {
		t.Fatalf("Params.Get = %v, want 3", got)
	}
}

// TestRoundTripShape checks that every algorithm round-trips without error
// and that decode output has the right length, across awkward sizes
// including 0, 1, non-multiples of 8, and large-ish tensors.
func TestRoundTripShape(t *testing.T) {
	sizes := []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 1000, 4096, 10007}
	for _, c := range newAll(t) {
		for _, n := range sizes {
			g := randGrad(uint64(n)+1, n, 1)
			payload, err := Encode(c, g)
			if err != nil {
				t.Fatalf("%s: Encode(n=%d): %v", c.Name(), n, err)
			}
			dec, err := Decode(c, payload, n)
			if err != nil {
				t.Fatalf("%s: Decode(n=%d): %v", c.Name(), n, err)
			}
			if len(dec) != n {
				t.Fatalf("%s: Decode returned %d elements, want %d", c.Name(), len(dec), n)
			}
		}
	}
}

// TestCompressedSizeExact checks the size oracle against real payloads for
// the algorithms with data-independent layouts.
func TestCompressedSizeExact(t *testing.T) {
	exact := []string{"onebit", "terngrad", "dgc"}
	for _, name := range exact {
		c, err := New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 5, 100, 4097} {
			g := randGrad(9, n, 1)
			payload, err := Encode(c, g)
			if err != nil {
				t.Fatal(err)
			}
			if len(payload) != c.CompressedSize(n) {
				t.Fatalf("%s: payload %d bytes, CompressedSize says %d (n=%d)",
					c.Name(), len(payload), c.CompressedSize(n), n)
			}
		}
	}
}

// TestCompressionRatios checks the headline data-volume reductions: onebit
// ~1/32 (the paper's 96.9%), terngrad-2bit ~1/16, dgc-0.001 ~0.2%.
func TestCompressionRatios(t *testing.T) {
	const n = 1 << 20
	ob, _ := New("onebit", nil)
	if r := Ratio(ob, n); r > 0.0315 || r < 0.031 {
		t.Errorf("onebit ratio = %v, want ~1/32", r)
	}
	tg, _ := New("terngrad", nil)
	if r := Ratio(tg, n); r > 0.0630 || r < 0.0620 {
		t.Errorf("terngrad-2bit ratio = %v, want ~1/16", r)
	}
	dgc, _ := New("dgc", nil)
	if r := Ratio(dgc, n); r > 0.0025 || r < 0.0015 {
		t.Errorf("dgc-0.001 ratio = %v, want ~0.002 (k index+value pairs)", r)
	}
}

func TestOnebitReconstruction(t *testing.T) {
	g := []float32{1, 2, 3, -1, -3}
	payload, err := Encode(Onebit{}, g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(Onebit{}, payload, len(g))
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{2, 2, 2, -2, -2} // meanPos=2, meanNeg=-2
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("onebit decode = %v, want %v", dec, want)
		}
	}
}

func TestOnebitSignPreservation(t *testing.T) {
	g := randGrad(4, 999, 2)
	payload, _ := Encode(Onebit{}, g)
	dec, _ := Decode(Onebit{}, payload, len(g))
	for i := range g {
		if g[i] > 0 && dec[i] < 0 || g[i] < 0 && dec[i] > 0 {
			t.Fatalf("onebit flipped sign at %d: %v -> %v", i, g[i], dec[i])
		}
	}
}

func TestTernGradUnbiased(t *testing.T) {
	// Stochastic rounding must be unbiased: averaging many decodes of the
	// same input approaches the input.
	g := []float32{-1, -0.3, 0, 0.42, 0.9, 1}
	tg, err := NewTernGrad(2, 12345)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 4000
	acc := make([]float64, len(g))
	for trial := 0; trial < trials; trial++ {
		payload, err := Encode(tg, g)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(tg, payload, len(g))
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range dec {
			acc[i] += float64(x)
		}
	}
	for i := range g {
		mean := acc[i] / trials
		if math.Abs(mean-float64(g[i])) > 0.03 {
			t.Errorf("terngrad biased at %d: E[decode] = %v, want %v", i, mean, g[i])
		}
	}
}

func TestTernGradBoundsRespected(t *testing.T) {
	for _, bw := range []int{1, 2, 4, 8} {
		tg, err := NewTernGrad(bw, 7)
		if err != nil {
			t.Fatal(err)
		}
		g := randGrad(uint64(bw), 2048, 3)
		mn, mx := tensor.Min(g), tensor.Max(g)
		payload, _ := Encode(tg, g)
		dec, _ := Decode(tg, payload, len(g))
		const eps = 1e-4
		for i, x := range dec {
			if float64(x) < float64(mn)-eps || float64(x) > float64(mx)+eps {
				t.Fatalf("bitwidth %d: decoded[%d]=%v outside [%v,%v]", bw, i, x, mn, mx)
			}
		}
	}
}

func TestTernGradQuantizationErrorShrinksWithBitwidth(t *testing.T) {
	g := randGrad(5, 8192, 1)
	var prev float64 = math.Inf(1)
	for _, bw := range []int{2, 4, 8} {
		tg, _ := NewTernGrad(bw, 3)
		payload, _ := Encode(tg, g)
		dec, _ := Decode(tg, payload, len(g))
		err := tensor.L1Diff(g, dec)
		if err >= prev {
			t.Fatalf("bitwidth %d error %v did not shrink from %v", bw, err, prev)
		}
		prev = err
	}
}

func TestTernGradBitwidthValidation(t *testing.T) {
	if _, err := NewTernGrad(0, 1); err == nil {
		t.Errorf("bitwidth 0 accepted")
	}
	if _, err := NewTernGrad(9, 1); err == nil {
		t.Errorf("bitwidth 9 accepted")
	}
}

func TestTernGradConstantGradient(t *testing.T) {
	g := []float32{2.5, 2.5, 2.5}
	tg, _ := NewTernGrad(2, 1)
	payload, err := Encode(tg, g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(tg, payload, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range dec {
		if x != 2.5 {
			t.Fatalf("constant gradient decoded[%d] = %v, want 2.5", i, x)
		}
	}
}

func TestTBQExactValues(t *testing.T) {
	tbq := NewTBQ(0.5)
	g := []float32{0.6, -0.7, 0.1, -0.2, 0.5}
	payload, err := Encode(tbq, g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(tbq, payload, len(g))
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0.5, -0.5, 0, 0, 0.5}
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("tbq decode = %v, want %v", dec, want)
		}
	}
}

func TestTBQSparsePayloadSmallerWhenCalm(t *testing.T) {
	tbq := NewTBQ(10) // threshold far above data scale: nothing survives
	g := randGrad(8, 10000, 1)
	payload, _ := Encode(tbq, g)
	if len(payload) != headerSize+8 {
		t.Fatalf("calm gradient payload = %d bytes, want header only", len(payload))
	}
}

func TestDGCKeepsExactTopK(t *testing.T) {
	d, err := NewDGC(0.25)
	if err != nil {
		t.Fatal(err)
	}
	g := []float32{0.1, -5, 0.2, 3, -0.3, 0.4, 2, -0.5} // top2 of 8: -5, 3
	payload, err := Encode(d, g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(d, payload, len(g))
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, -5, 0, 3, 0, 0, 0, 0}
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("dgc decode = %v, want %v", dec, want)
		}
	}
}

func TestDGCSurvivorCountExact(t *testing.T) {
	for _, ratio := range []float64{0.001, 0.01, 0.05, 0.5, 1} {
		d, err := NewDGC(ratio)
		if err != nil {
			t.Fatal(err)
		}
		n := 4096
		g := randGrad(2, n, 1)
		payload, err := Encode(d, g)
		if err != nil {
			t.Fatal(err)
		}
		dec, _ := Decode(d, payload, n)
		nonzero := 0
		for _, x := range dec {
			if x != 0 {
				nonzero++
			}
		}
		if nonzero != keep(d.ratio, n) {
			t.Fatalf("ratio %g: %d nonzero decoded, want %d", ratio, nonzero, keep(d.ratio, n))
		}
	}
}

func TestDGCTiesStillExactK(t *testing.T) {
	d, _ := NewDGC(0.5)
	g := []float32{1, 1, 1, 1} // all tied: k=2 must still hold
	payload, err := Encode(d, g)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := Decode(d, payload, 4)
	nonzero := 0
	for _, x := range dec {
		if x != 0 {
			nonzero++
		}
	}
	if nonzero != 2 {
		t.Fatalf("tied gradient kept %d, want exactly 2", nonzero)
	}
}

func TestDGCRatioValidation(t *testing.T) {
	if _, err := NewDGC(0); err == nil {
		t.Errorf("ratio 0 accepted")
	}
	if _, err := NewDGC(1.5); err == nil {
		t.Errorf("ratio 1.5 accepted")
	}
}

func TestGradDropKeepsApproximatelyRatio(t *testing.T) {
	gd, err := NewGradDrop(0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	n := 50000
	g := randGrad(3, n, 1)
	payload, err := Encode(gd, g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(gd, payload, n)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for i, x := range dec {
		if x != 0 {
			kept++
			if x != g[i] {
				t.Fatalf("graddrop altered surviving value at %d: %v -> %v", i, g[i], x)
			}
		}
	}
	frac := float64(kept) / float64(n)
	if frac < 0.02 || frac > 0.10 {
		t.Fatalf("graddrop kept %.3f of elements, want ~0.05", frac)
	}
}

func TestGradDropAllZeroGradient(t *testing.T) {
	gd, _ := NewGradDrop(0.01, 1)
	g := make([]float32, 100)
	payload, err := Encode(gd, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(gd, payload, 100); err != nil {
		t.Fatal(err)
	}
}

func TestGradDropValidation(t *testing.T) {
	if _, err := NewGradDrop(-1, 1); err == nil {
		t.Errorf("negative ratio accepted")
	}
}

// TestDecodeAddFusion checks the fused decode+merge path against
// Decode-then-add for every algorithm.
func TestDecodeAddFusion(t *testing.T) {
	for _, c := range newAll(t) {
		n := 513
		g := randGrad(11, n, 1)
		payload, err := Encode(c, g)
		if err != nil {
			t.Fatal(err)
		}
		base := randGrad(12, n, 1)
		viaFused := tensor.Clone(base)
		if err := DecodeAdd(c, payload, viaFused); err != nil {
			t.Fatalf("%s: DecodeAdd: %v", c.Name(), err)
		}
		dec, err := Decode(c, payload, n)
		if err != nil {
			t.Fatal(err)
		}
		viaPlain := tensor.Clone(base)
		tensor.Add(viaPlain, dec)
		for i := range viaFused {
			if viaFused[i] != viaPlain[i] {
				t.Fatalf("%s: fused and plain merge diverge at %d: %v vs %v",
					c.Name(), i, viaFused[i], viaPlain[i])
			}
		}
	}
}

// TestHeaderRejections: decoding with the wrong algorithm, wrong length, or
// truncated payload must fail loudly.
func TestHeaderRejections(t *testing.T) {
	g := randGrad(1, 64, 1)
	obPayload, _ := Encode(Onebit{}, g)
	d, _ := NewDGC(0.01)
	if _, err := Decode(d, obPayload, 64); err == nil {
		t.Errorf("dgc decoded an onebit payload")
	}
	if _, err := Decode(Onebit{}, obPayload, 63); err == nil {
		t.Errorf("onebit accepted wrong n")
	}
	if _, err := Decode(Onebit{}, obPayload[:4], 64); err == nil {
		t.Errorf("onebit accepted truncated payload")
	}
	corrupt := append([]byte(nil), obPayload...)
	corrupt[0] ^= 0xFF
	if _, err := Decode(Onebit{}, corrupt, 64); err == nil {
		t.Errorf("onebit accepted corrupted magic")
	}
}

func TestTBQIndexOutOfRangeRejected(t *testing.T) {
	tbq := NewTBQ(0.1)
	g := []float32{1, 1, 1, 1}
	payload, _ := Encode(tbq, g)
	// Corrupt the first index to point beyond n.
	payload[headerSize+8] = 0xFF
	if err := tbq.DecodeAdd(payload, make([]float32, 4)); err == nil {
		t.Fatalf("tbq accepted out-of-range index")
	}
}

// TestOSSPayloadCompatibility: OSS baselines must be byte-compatible (onebit,
// tbq) or decode-equivalent (dgc) with the optimized implementations.
func TestOSSPayloadCompatibility(t *testing.T) {
	g := randGrad(21, 1001, 1)

	opt, _ := Encode(Onebit{}, g)
	oss, _ := Encode(OSSOnebit{}, g)
	if string(opt) != string(oss) {
		t.Errorf("oss-onebit payload differs from onebit")
	}

	tbq := NewTBQ(0.05)
	optT, _ := Encode(tbq, g)
	ossT, _ := Encode(OSSTBQ{TBQ: tbq}, g)
	if string(optT) != string(ossT) {
		t.Errorf("oss-tbq payload differs from tbq")
	}

	d, _ := NewDGC(0.01)
	optD, _ := Encode(d, g)
	ossD, _ := Encode(OSSDGC{DGC: d}, g)
	decOpt, _ := Decode(d, optD, len(g))
	decOSS, _ := Decode(d, ossD, len(g))
	for i := range decOpt {
		if decOpt[i] != decOSS[i] {
			t.Fatalf("oss-dgc decodes differently at %d: %v vs %v", i, decOpt[i], decOSS[i])
		}
	}
}

func TestErrorFeedbackConservation(t *testing.T) {
	// Error feedback invariant: decode(payload) + residual == grad + prior
	// residual, i.e. no gradient mass is ever lost, only deferred.
	base, _ := New("dgc", Params{"ratio": 0.1})
	ef := NewErrorFeedback(base)
	g := randGrad(31, 256, 1)
	payload, err := ef.EncodeWithFeedbackInto("layer0", nil, g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(base, payload, len(g))
	if err != nil {
		t.Fatal(err)
	}
	res := ef.Residual("layer0")
	for i := range g {
		if diff := math.Abs(float64(dec[i]+res[i]) - float64(g[i])); diff > 1e-5 {
			t.Fatalf("mass not conserved at %d: decode+residual=%v, grad=%v",
				i, dec[i]+res[i], g[i])
		}
	}
}

func TestErrorFeedbackEventuallyTransmitsEverything(t *testing.T) {
	// Feeding a constant gradient through an aggressive sparsifier with
	// error feedback must transmit (cumulatively) everything: the sum of
	// decoded payloads over T rounds approaches T × grad.
	base, _ := New("dgc", Params{"ratio": 0.05})
	ef := NewErrorFeedback(base)
	n := 100
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(i%7) + 1
	}
	total := make([]float32, n)
	const rounds = 400
	for r := 0; r < rounds; r++ {
		payload, err := ef.EncodeWithFeedbackInto("w", nil, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeAdd(base, payload, total); err != nil {
			t.Fatal(err)
		}
	}
	for i := range g {
		wantTotal := float64(g[i]) * rounds
		if math.Abs(float64(total[i])-wantTotal) > wantTotal*0.2 {
			t.Fatalf("element %d: cumulative %v, want ~%v", i, total[i], wantTotal)
		}
	}
}

func TestErrorFeedbackResize(t *testing.T) {
	base, _ := New("onebit", nil)
	ef := NewErrorFeedback(base)
	if _, err := ef.EncodeWithFeedbackInto("w", nil, randGrad(1, 10, 1)); err != nil {
		t.Fatal(err)
	}
	// Same key, different size: residual must be re-allocated, not panic.
	if _, err := ef.EncodeWithFeedbackInto("w", nil, randGrad(2, 20, 1)); err != nil {
		t.Fatal(err)
	}
	if got := len(ef.Residual("w")); got != 20 {
		t.Fatalf("residual length %d after resize, want 20", got)
	}
	ef.Reset()
	if ef.Residual("w") != nil {
		t.Fatalf("Reset did not clear residuals")
	}
}

func TestNamesAreStable(t *testing.T) {
	cases := map[string]string{
		"onebit":   "onebit",
		"terngrad": "terngrad-2bit",
		"dgc":      "dgc-0.001",
		"graddrop": "graddrop-0.01",
	}
	for reg, want := range cases {
		c, err := New(reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != want {
			t.Errorf("New(%q).Name() = %q, want %q", reg, c.Name(), want)
		}
	}
	c, _ := New("tbq", Params{"tau": 0.25})
	if !strings.Contains(c.Name(), "0.25") {
		t.Errorf("tbq name %q does not reflect tau", c.Name())
	}
}

// Property: every algorithm's decode output is deterministic given a payload.
func TestQuickDecodeDeterministic(t *testing.T) {
	for _, c := range newAll(t) {
		c := c
		f := func(seed uint64, nRaw uint16) bool {
			n := int(nRaw%512) + 1
			g := randGrad(seed, n, 1)
			payload, err := Encode(c, g)
			if err != nil {
				return false
			}
			d1, err1 := Decode(c, payload, n)
			d2, err2 := Decode(c, payload, n)
			if err1 != nil || err2 != nil {
				return false
			}
			for i := range d1 {
				if d1[i] != d2[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

// Property: quantizers never increase the max-abs scale of the gradient
// beyond the input's (plus epsilon), for arbitrary inputs.
func TestQuickQuantizerScaleBound(t *testing.T) {
	tg, _ := NewTernGrad(4, 5)
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%256) + 1
		g := randGrad(seed, n, 2)
		payload, err := Encode(tg, g)
		if err != nil {
			return false
		}
		dec, err := Decode(tg, payload, n)
		if err != nil {
			return false
		}
		return tensor.MaxAbs(dec) <= tensor.MaxAbs(g)*(1+1e-5)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: sparsifier payloads shrink monotonically with ratio.
func TestQuickDGCSizeMonotone(t *testing.T) {
	f := func(nRaw uint16) bool {
		n := int(nRaw%4096) + 64
		d1, _ := NewDGC(0.001)
		d2, _ := NewDGC(0.01)
		d3, _ := NewDGC(0.1)
		return d1.CompressedSize(n) <= d2.CompressedSize(n) &&
			d2.CompressedSize(n) <= d3.CompressedSize(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSizeErrorMessage(t *testing.T) {
	e := &SizeError{Algo: "x", Got: 3, Want: -14}
	msg := e.Error()
	if !strings.Contains(msg, "3") || !strings.Contains(msg, "-14") || !strings.Contains(msg, "x") {
		t.Fatalf("unhelpful SizeError: %q", msg)
	}
}

// TestQuickDecodersNeverPanic: feeding arbitrary bytes to any decoder must
// produce an error, never a panic or a silent success with garbage sizes.
func TestQuickDecodersNeverPanic(t *testing.T) {
	decoders := newAll(t)
	f := func(raw []byte, nRaw uint16, which uint8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		c := decoders[int(which)%len(decoders)]
		n := int(nRaw % 2048)
		dec, err := Decode(c, raw, n)
		if err != nil {
			return true
		}
		return len(dec) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecodersRejectTruncation: truncating a valid payload anywhere
// must fail cleanly.
func TestQuickDecodersRejectTruncation(t *testing.T) {
	for _, c := range newAll(t) {
		g := randGrad(3, 257, 1)
		payload, err := Encode(c, g)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(payload); cut += 1 + len(payload)/37 {
			func() {
				defer func() {
					if recover() != nil {
						t.Errorf("%s: panic on truncation at %d", c.Name(), cut)
					}
				}()
				if _, err := Decode(c, payload[:cut], 257); err == nil {
					t.Errorf("%s: truncated payload (%d of %d bytes) accepted", c.Name(), cut, len(payload))
				}
			}()
		}
	}
}

func TestInstrumentedCounters(t *testing.T) {
	inner, _ := New("onebit", nil)
	m := NewInstrumented(inner)
	if m.Name() != inner.Name() {
		t.Fatalf("name passthrough broken")
	}
	g := randGrad(1, 1000, 1)
	payload, err := Encode(m, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(m, payload, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(m, payload[:3], 1000); err == nil {
		t.Fatal("truncated decode accepted")
	}
	st := m.Stats()
	if st.Encodes != 1 || st.Decodes != 1 || st.Errors != 1 {
		t.Fatalf("counters = %+v", st)
	}
	if st.RawBytes != 4000 || st.WireBytes != int64(len(payload)) {
		t.Fatalf("byte counters = %+v", st)
	}
	if r := st.Ratio(); r < 0.03 || r > 0.04 {
		t.Fatalf("realized ratio = %v, want ~1/32", r)
	}
	if st.Saved() != st.RawBytes-st.WireBytes {
		t.Fatalf("Saved inconsistent")
	}
	if m.CompressedSize(64) != inner.CompressedSize(64) {
		t.Fatalf("CompressedSize passthrough broken")
	}
	m.Reset()
	if m.Stats() != (Stats{}) {
		t.Fatalf("Reset left counters: %+v", m.Stats())
	}
	if (Stats{}).Ratio() != 1 {
		t.Fatalf("empty ratio should be 1")
	}
}
