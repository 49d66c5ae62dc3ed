package compll

import (
	"math"
	"testing"
	"testing/quick"

	"hipress/internal/compress"
	"hipress/internal/tensor"
)

func mustBuiltins(t *testing.T) map[string]*Algorithm {
	t.Helper()
	algs, err := BuiltinAlgorithms()
	if err != nil {
		t.Fatal(err)
	}
	return algs
}

func TestLexBasics(t *testing.T) {
	toks, err := lex("float x = 1.5; // comment\nx = x << 2; /* block */")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.text)
	}
	want := []string{"float", "x", "=", "1.5", ";", "x", "=", "x", "<<", "2", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %q, want %q", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexLineContinuation(t *testing.T) {
	toks, err := lex("void encode(float* gradient, \\\n uint8* compressed) {}")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) < 5 {
		t.Fatalf("continuation swallowed tokens: %v", toks)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("float x = @;"); err == nil {
		t.Fatalf("bad character accepted")
	}
	if _, err := lex("/* unterminated"); err == nil {
		t.Fatalf("unterminated comment accepted")
	}
}

func TestLexMemberVsDecimal(t *testing.T) {
	toks, err := lex("gradient.size 1.5 params.bitwidth")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks[:8] {
		texts = append(texts, tok.text)
	}
	want := []string{"gradient", ".", "size", "1.5", "params", ".", "bitwidth", ""}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("tokens = %q, want %q", texts, want)
		}
	}
}

func TestParseFigure5(t *testing.T) {
	// The paper's Fig. 5 source, verbatim modulo the backslash continuations.
	src := `param EncodeParams{
    uint8 bitwidth; // assume bitwidth = 2 for clarity
}
float min, max, gap;
uint2 floatToUint(float elem) {
    float r = (elem - min) / gap;
    return floor(r + random<float>(0, 1));
}
void encode(float* gradient, uint8* compressed, \
            EncodeParams params) {
    min = reduce(gradient, smaller);
    max = reduce(gradient, greater);
    gap = (max - min) / ((1 << params.bitwidth) - 1);
    uint8 tail = gradient.size % (1 << params.bitwidth);
    uint2* Q = map(gradient, floatToUint);
    compressed = concat(params.bitwidth, tail, \
        min, max, Q);
}`
	prog, err := Parse("fig5", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Params) != 1 || prog.Params[0].Name != "EncodeParams" {
		t.Fatalf("params = %+v", prog.Params)
	}
	if len(prog.Globals) != 3 {
		t.Fatalf("globals = %d, want 3", len(prog.Globals))
	}
	if prog.Func("encode") == nil || prog.Func("floatToUint") == nil {
		t.Fatalf("missing functions")
	}
	if got := prog.Func("floatToUint").Ret.String(); got != "uint2" {
		t.Fatalf("floatToUint return type = %s", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"void encode(float* g, uint8* c) { return }",   // missing semicolon
		"void encode(float* g, uint8* c) { x = 1; }",   // fine syntax; no error here
		"bogus encode(float* g) {}",                    // unknown type
		"param P { float x; } void f() {}",             // no encode/decode
		"void encode(float* g, uint8* c) { if x { } }", // if without parens
	}
	for i, src := range cases {
		_, err := Parse("t", src)
		if i == 1 {
			if err != nil {
				t.Errorf("case %d: valid syntax rejected: %v", i, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("case %d accepted: %s", i, src)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	cases := map[string]string{
		"uint1": "uint1", "uint2": "uint2", "uint4": "uint4", "uint8": "uint8",
		"int32": "int32", "float": "float", "void": "void",
	}
	for in, want := range cases {
		typ, ok := typeFromName(in)
		if !ok || typ.String() != want {
			t.Errorf("typeFromName(%q) = %v (%v)", in, typ, ok)
		}
	}
	f, _ := typeFromName("float")
	if f.ptr().String() != "float*" {
		t.Errorf("float ptr = %s", f.ptr())
	}
	u8, _ := typeFromName("uint8")
	if u8.ptr().Kind != VBytes {
		t.Errorf("uint8* should be the payload type")
	}
}

// --- operator library ---------------------------------------------------------

func TestPackUnpackBits(t *testing.T) {
	for _, bits := range []int{1, 2, 4, 8, 32} {
		vals := []int64{0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0}
		switch {
		case bits == 32:
			// int32 payloads are signed; stay within int32 range.
			vals = []int64{3, 1, 0, math.MaxInt32, -1 & 0xFFFFFFFF >> 1}
		case bits > 1:
			vals = []int64{3 % (1 << bits), 1, 0, int64(1<<bits - 1), 2 % (1 << bits)}
		}
		packed := packBits(vals, bits)
		got := unpackBits(packed, len(vals), bits)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("bits=%d: unpack[%d] = %d, want %d", bits, i, got[i], vals[i])
			}
		}
	}
}

func TestQuickPackRoundTrip(t *testing.T) {
	f := func(raw []uint8, bitsSel uint8) bool {
		bits := []int{1, 2, 4, 8}[bitsSel%4]
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r) & (1<<uint(bits) - 1)
		}
		got := unpackBits(packBits(vals, bits), len(vals), bits)
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcatExtractRoundTrip(t *testing.T) {
	payload, err := OpConcat(
		Int(3, 8),
		Float(2.5),
		Floats([]float32{1, -2, 3.5}),
		Ints([]int64{3, 0, 1, 2, 3}, 2),
		Sparse([]int64{4, 9}, []float32{0.5, -0.25}),
	)
	if err != nil {
		t.Fatal(err)
	}
	v0, err := OpExtract(payload, Int(0, 32))
	if err != nil || v0.I != 3 || v0.Bits != 8 {
		t.Fatalf("field 0 = %+v, %v", v0, err)
	}
	v1, _ := OpExtract(payload, Int(1, 32))
	if v1.F != 2.5 {
		t.Fatalf("field 1 = %+v", v1)
	}
	v2, _ := OpExtract(payload, Int(2, 32))
	if len(v2.FV) != 3 || v2.FV[1] != -2 {
		t.Fatalf("field 2 = %+v", v2)
	}
	v3, _ := OpExtract(payload, Int(3, 32))
	if len(v3.IV) != 5 || v3.IV[0] != 3 || v3.IV[4] != 3 || v3.Bits != 2 {
		t.Fatalf("field 3 = %+v", v3)
	}
	v4, _ := OpExtract(payload, Int(4, 32))
	if len(v4.SIdx) != 2 || v4.SIdx[1] != 9 || v4.SVal[0] != 0.5 {
		t.Fatalf("field 4 = %+v", v4)
	}
	if _, err := OpExtract(payload, Int(5, 32)); err == nil {
		t.Fatalf("out-of-range field accepted")
	}
	if _, err := OpExtract(Bytes([]byte{1, 2, 3}), Int(0, 32)); err == nil {
		t.Fatalf("garbage payload accepted")
	}
}

func TestOpFilterScatterDuality(t *testing.T) {
	g := Floats([]float32{0, 5, 0, -3, 0, 0, 7})
	isNonZero, _ := Builtin("absf")
	s, err := OpFilter(g, func(args ...Value) (Value, error) {
		v, err := isNonZero(args...)
		if err != nil {
			return Value{}, err
		}
		return boolVal(v.F > 0), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := OpScatter(s, Int(7, 32))
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.FV {
		if back.FV[i] != g.FV[i] {
			t.Fatalf("filter∘scatter not identity at %d: %v vs %v", i, back.FV[i], g.FV[i])
		}
	}
}

func TestOpTopK(t *testing.T) {
	g := Floats([]float32{1, -5, 3, -2, 4})
	v, err := OpTopK(g, Int(2, 32))
	if err != nil || v.F != 4 {
		t.Fatalf("topk(2) = %v, %v; want 4", v, err)
	}
	if v, _ := OpTopK(g, Int(100, 32)); v.F != 1 {
		t.Fatalf("topk clamp high = %v", v)
	}
	if v, _ := OpTopK(g, Int(0, 32)); v.F != 5 {
		t.Fatalf("topk clamp low = %v", v)
	}
}

func TestOpSortAndReduce(t *testing.T) {
	desc := func(args ...Value) (Value, error) {
		return boolVal(args[0].F > args[1].F), nil
	}
	sorted, err := OpSort(Floats([]float32{3, -1, 2}), desc)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{3, 2, -1}
	for i := range want {
		if sorted.FV[i] != want[i] {
			t.Fatalf("sorted = %v", sorted.FV)
		}
	}
	smaller, _ := Builtin("smaller")
	mn, err := OpReduce(Floats([]float32{3, -1, 2}), smaller)
	if err != nil || mn.F != -1 {
		t.Fatalf("reduce smaller = %v, %v", mn, err)
	}
	if v, err := OpReduce(Floats(nil), smaller); err != nil || v.F != 0 {
		t.Fatalf("empty reduce = %v, %v", v, err)
	}
}

func TestOpPairsValidation(t *testing.T) {
	if _, err := OpPairs(Ints([]int64{1}, 32), Floats([]float32{1, 2})); err == nil {
		t.Fatalf("mismatched pairs accepted")
	}
	if _, err := OpPairs(Floats(nil), Floats(nil)); err == nil {
		t.Fatalf("non-int indices accepted")
	}
}

// --- interpreter over the bundled programs -------------------------------------

func TestBuiltinProgramsCompile(t *testing.T) {
	algs := mustBuiltins(t)
	for _, name := range []string{"terngrad", "onebit", "dgc", "graddrop", "tbq"} {
		if algs[name] == nil {
			t.Fatalf("missing builtin program %q", name)
		}
	}
}

func TestDSLRoundTripAllPrograms(t *testing.T) {
	algs := mustBuiltins(t)
	params := map[string]map[string]float64{
		"terngrad": {"bitwidth": 2},
		"onebit":   {},
		"dgc":      {"ratio": 0.1},
		"graddrop": {"ratio": 0.1},
		"tbq":      {"tau": 0.3},
	}
	for name, alg := range algs {
		c := alg.Compressor(params[name], 7)
		for _, n := range []int{1, 8, 100, 1000} {
			g := make([]float32, n)
			tensor.NewRNG(uint64(n)).FillNormal(g, 1)
			payload, err := compress.Encode(c, g)
			if err != nil {
				t.Fatalf("%s: encode(n=%d): %v", name, n, err)
			}
			dec, err := compress.Decode(c, payload, n)
			if err != nil {
				t.Fatalf("%s: decode(n=%d): %v", name, n, err)
			}
			if len(dec) != n {
				t.Fatalf("%s: decode returned %d elements, want %d", name, len(dec), n)
			}
		}
	}
}

func TestDSLOnebitMatchesNative(t *testing.T) {
	algs := mustBuiltins(t)
	c := algs["onebit"].Compressor(nil, 1)
	g := make([]float32, 777)
	tensor.NewRNG(5).FillNormal(g, 2)
	payload, err := compress.Encode(c, g)
	if err != nil {
		t.Fatal(err)
	}
	dslDec, err := compress.Decode(c, payload, len(g))
	if err != nil {
		t.Fatal(err)
	}
	nativePayload, _ := compress.Encode(compress.Onebit{}, g)
	nativeDec, _ := compress.Decode(compress.Onebit{}, nativePayload, len(g))
	for i := range g {
		if math.Abs(float64(dslDec[i]-nativeDec[i])) > 1e-6 {
			t.Fatalf("onebit DSL and native diverge at %d: %v vs %v", i, dslDec[i], nativeDec[i])
		}
	}
}

func TestDSLTernGradOnGrid(t *testing.T) {
	algs := mustBuiltins(t)
	c := algs["terngrad"].Compressor(map[string]float64{"bitwidth": 2}, 3)
	g := make([]float32, 512)
	tensor.NewRNG(9).FillNormal(g, 1)
	payload, err := compress.Encode(c, g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := compress.Decode(c, payload, len(g))
	if err != nil {
		t.Fatal(err)
	}
	mn, mx := tensor.Min(g), tensor.Max(g)
	gap := (float64(mx) - float64(mn)) / 3
	for i, x := range dec {
		q := (float64(x) - float64(mn)) / gap
		if math.Abs(q-math.Round(q)) > 1e-4 {
			t.Fatalf("decoded[%d]=%v not on the quantization grid", i, x)
		}
	}
}

func TestDSLDGCKeepsLargest(t *testing.T) {
	algs := mustBuiltins(t)
	c := algs["dgc"].Compressor(map[string]float64{"ratio": 0.25}, 1)
	g := []float32{0.1, -9, 0.2, 7, 0.3, 0.4, -0.5, 0.6}
	payload, err := compress.Encode(c, g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := compress.Decode(c, payload, len(g))
	if err != nil {
		t.Fatal(err)
	}
	if dec[1] != -9 || dec[3] != 7 {
		t.Fatalf("dgc lost the largest elements: %v", dec)
	}
	if dec[0] != 0 || dec[2] != 0 {
		t.Fatalf("dgc kept small elements: %v", dec)
	}
}

func TestDSLTBQClampsToTau(t *testing.T) {
	algs := mustBuiltins(t)
	c := algs["tbq"].Compressor(map[string]float64{"tau": 0.5}, 1)
	g := []float32{0.7, -0.9, 0.2, 0.5}
	payload, err := compress.Encode(c, g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := compress.Decode(c, payload, len(g))
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0.5, -0.5, 0, 0.5}
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("tbq decode = %v, want %v", dec, want)
		}
	}
}

func TestDSLCompressorsRegistered(t *testing.T) {
	for _, name := range []string{"cll-terngrad", "cll-onebit", "cll-dgc", "cll-graddrop", "cll-tbq"} {
		c, err := compress.New(name, compress.Params{"seed": 2})
		if err != nil {
			t.Fatalf("registry: %v", err)
		}
		g := make([]float32, 300)
		tensor.NewRNG(2).FillNormal(g, 1)
		payload, err := compress.Encode(c, g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := compress.Decode(c, payload, 300); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.CompressedSize(1<<20) <= 0 {
			t.Fatalf("%s: non-positive size estimate", name)
		}
	}
}

// TestTable5Shape: every bundled algorithm stays within the paper's Table 5
// envelope — logic ≤ ~30 lines, a handful of udf lines, 3-6 common
// operators, zero integration code (registration is automatic).
func TestTable5Shape(t *testing.T) {
	algs := mustBuiltins(t)
	for name, alg := range algs {
		st := StatsOf(alg)
		if st.LogicLines > 40 {
			t.Errorf("%s: %d logic lines, paper-scale is ≤ ~30", name, st.LogicLines)
		}
		if st.UDFLines > 30 {
			t.Errorf("%s: %d udf lines", name, st.UDFLines)
		}
		if st.CommonOperators < 3 || st.CommonOperators > 7 {
			t.Errorf("%s: %d common operators, want 3..7 (%v)", name, st.CommonOperators, st.OperatorNames)
		}
	}
}

func TestInterpParamDefaults(t *testing.T) {
	algs := mustBuiltins(t)
	// Missing ratio defaults to 0 → k clamps to 1: still functional.
	c := algs["dgc"].Compressor(nil, 1)
	g := []float32{5, 1, 2}
	payload, err := compress.Encode(c, g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := compress.Decode(c, payload, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dec[0] != 5 {
		t.Fatalf("k=1 should keep the max: %v", dec)
	}
}

func TestInterpErrors(t *testing.T) {
	prog, err := Parse("bad", `
void encode(float* gradient, uint8* compressed) {
    compressed = concat(undefinedVar);
}
void decode(uint8* compressed, float* gradient) {
    gradient = scatter(extract(compressed, 0), gradient.size);
}`)
	if err != nil {
		t.Fatal(err)
	}
	ip := NewInterp(prog, 1)
	if _, err := ip.Encode([]float32{1}, nil); err == nil {
		t.Fatalf("undefined variable accepted at runtime")
	}
}

func TestInterpDivisionByZero(t *testing.T) {
	prog, err := Parse("div", `
void encode(float* gradient, uint8* compressed) {
    int32 x = 1 / 0;
    compressed = concat(x);
}
void decode(uint8* compressed, float* gradient) {
}`)
	if err != nil {
		t.Fatal(err)
	}
	ip := NewInterp(prog, 1)
	if _, err := ip.Encode([]float32{1}, nil); err == nil {
		t.Fatalf("integer division by zero accepted")
	}
}

func TestCompileRequiresBothEntryPoints(t *testing.T) {
	if _, err := Compile("enc-only", "void encode(float* g, uint8* c) { c = concat(1); }"); err == nil {
		t.Fatalf("encode-only program accepted by Compile")
	}
}

func TestValueCoercions(t *testing.T) {
	if f, err := Int(3, 32).AsFloat(); err != nil || f != 3 {
		t.Fatalf("AsFloat = %v, %v", f, err)
	}
	if i, err := Float(3.9).AsInt(); err != nil || i != 3 {
		t.Fatalf("AsInt truncation = %v, %v", i, err)
	}
	if _, err := Floats(nil).AsInt(); err == nil {
		t.Fatalf("vector coerced to scalar")
	}
	v, err := ConvertTo(Int(7, 32), VInt, 2)
	if err != nil || v.I != 3 {
		t.Fatalf("uint2 masking = %v, %v (want 3)", v, err)
	}
	if _, err := ConvertTo(Floats(nil), VInt, 8); err == nil {
		t.Fatalf("vector converted to scalar")
	}
}

func TestArithPromotion(t *testing.T) {
	v, err := Arith("+", Int(1, 32), Float(0.5))
	if err != nil || v.Kind != VFloat || v.F != 1.5 {
		t.Fatalf("int+float = %+v, %v", v, err)
	}
	v, err = Arith("<<", Int(1, 32), Int(3, 32))
	if err != nil || v.I != 8 {
		t.Fatalf("1<<3 = %+v, %v", v, err)
	}
	if _, err := Arith("%", Float(1), Float(2)); err == nil {
		t.Fatalf("float modulo accepted")
	}
}

// TestExpressivenessExtensions covers §4.4's claim that AdaComp and 3LC are
// expressible in the DSL with the common operators.
func TestExpressivenessExtensions(t *testing.T) {
	algs := mustBuiltins(t)
	for _, name := range []string{"adacomp", "threelc"} {
		if algs[name] == nil {
			t.Fatalf("missing %s program", name)
		}
		st := StatsOf(algs[name])
		if st.CommonOperators < 4 {
			t.Errorf("%s uses only %d common operators", name, st.CommonOperators)
		}
	}

	// AdaComp keeps exactly the elements above factor×max|g|.
	ada := algs["adacomp"].Compressor(map[string]float64{"factor": 0.5}, 1)
	g := []float32{1, -0.2, 0.6, -2, 0.9, 0}
	payload, err := compress.Encode(ada, g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := compress.Decode(ada, payload, len(g))
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 0, 0, -2, 0, 0} // threshold = 1.0
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("adacomp decode = %v, want %v", dec, want)
		}
	}

	// 3LC maps onto the {-s, 0, +s} lattice with a sparsity band.
	tlc := algs["threelc"].Compressor(map[string]float64{"sparsity": 0.25}, 1)
	g2 := []float32{2, -2, 0.1, -0.1, 1}
	payload2, err := compress.Encode(tlc, g2)
	if err != nil {
		t.Fatal(err)
	}
	dec2, err := compress.Decode(tlc, payload2, len(g2))
	if err != nil {
		t.Fatal(err)
	}
	want2 := []float32{2, -2, 0, 0, 2} // s=2, cut=0.5
	for i := range want2 {
		if dec2[i] != want2[i] {
			t.Fatalf("threelc decode = %v, want %v", dec2, want2)
		}
	}
	// Dense 2-bit lattice: payload is ~1/16 of fp32 for large inputs.
	big := make([]float32, 1<<14)
	tensor.NewRNG(1).FillNormal(big, 1)
	p3, _ := compress.Encode(tlc, big)
	if ratio := float64(len(p3)) / float64(4*len(big)); ratio > 0.08 {
		t.Errorf("threelc ratio = %.3f, want ~1/16", ratio)
	}
}
