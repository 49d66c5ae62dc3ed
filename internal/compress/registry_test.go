package compress_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	_ "hipress/internal/compll" // registers the cll-* programs
	"hipress/internal/compress"
	"hipress/internal/tensor"
)

// TestRegistryIntoContract holds every registered codec — natives, oss-*,
// adaptive, cll-* — to the one Compressor contract: the payload does not
// depend on what dst the caller brought (nil, worst-case sized, or too
// small), a dst with room is the memory the payload comes back in,
// DecodeInto rewrites every element of a dirty dst to what Decode returns, and
// DecodeAdd adds exactly that to an accumulator.
// Each encode runs on a fresh same-seed instance, so the stochastic codecs
// and adaptive's regime detector start from the same state.
func TestRegistryIntoContract(t *testing.T) {
	fresh := func(name string) compress.Compressor {
		c, err := compress.New(name, compress.Params{"seed": 5})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		return c
	}
	for _, name := range compress.Names() {
		for _, n := range []int{9, 1000, 5000} {
			g := make([]float32, n)
			tensor.NewRNG(uint64(n)).FillNormal(g, 1)

			want, err := fresh(name).EncodeInto(nil, g)
			if err != nil {
				t.Fatalf("%s n=%d EncodeInto(nil): %v", name, n, err)
			}

			// Sized on the encoding instance: a cll-* program's first
			// CompressedSize runs a probe encode, which must not move the
			// stream the real encode draws from.
			c := fresh(name)
			dst := make([]byte, compress.MaxEncodedSize(c, n))
			got, err := c.EncodeInto(dst, g)
			if err != nil {
				t.Fatalf("%s n=%d EncodeInto(dst): %v", name, n, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s n=%d: payload into a sized dst differs from payload into nil", name, n)
			}
			// The interpreted programs only estimate their size; everything
			// else promises MaxEncodedSize as a bound.
			if len(got) > len(dst) && !strings.HasPrefix(name, "cll-") {
				t.Errorf("%s n=%d: payload %d bytes exceeds MaxEncodedSize %d", name, n, len(got), len(dst))
			}
			if len(got) <= len(dst) && &got[0] != &dst[0] {
				t.Errorf("%s n=%d: payload fits dst but was returned in other memory", name, n)
			}

			small, err := fresh(name).EncodeInto(make([]byte, 3), g)
			if err != nil {
				t.Fatalf("%s n=%d EncodeInto(undersized): %v", name, n, err)
			}
			if !bytes.Equal(small, want) {
				t.Errorf("%s n=%d: payload into an undersized dst differs", name, n)
			}

			ref, err := compress.Decode(c, want, n)
			if err != nil {
				t.Fatalf("%s n=%d Decode: %v", name, n, err)
			}
			dec := make([]float32, n)
			for i := range dec {
				dec[i] = float32(math.NaN())
			}
			if err := c.DecodeInto(dec, want); err != nil {
				t.Fatalf("%s n=%d DecodeInto: %v", name, n, err)
			}
			for i := range dec {
				if math.Float32bits(dec[i]) != math.Float32bits(ref[i]) {
					t.Fatalf("%s n=%d: DecodeInto[%d]=%v, Decode gives %v", name, n, i, dec[i], ref[i])
				}
			}

			// DecodeAdd — a fused kernel, a wrapper forwarding to one, or the
			// generic decode-into-scratch — is DecodeInto followed by an add.
			// (The base holds no -0.0, the one value a scatter-adder that
			// skips the zero fill leaves differently; core pins that case.)
			base := make([]float32, n)
			tensor.NewRNG(uint64(n)+1).FillNormal(base, 1)
			acc := append([]float32(nil), base...)
			if err := compress.DecodeAdd(c, want, acc); err != nil {
				t.Fatalf("%s n=%d DecodeAdd: %v", name, n, err)
			}
			for i := range acc {
				if sum := base[i] + ref[i]; math.Float32bits(acc[i]) != math.Float32bits(sum) {
					t.Fatalf("%s n=%d: DecodeAdd[%d]=%v, DecodeInto then add gives %v", name, n, i, acc[i], sum)
				}
			}
		}
	}
}

// TestSetStreamKeysEncodeDraws: positioning a stochastic compressor makes its
// next payload a function of the key alone — whatever it encoded or sized
// before — for the hand kernels, the interpreted program and through the
// instrumentation decorator; different keys draw differently; a compressor
// that draws nothing reports so. 4096 elements, because GradDrop samples
// (draws) only above 1000.
func TestSetStreamKeysEncodeDraws(t *testing.T) {
	g := make([]float32, 4096)
	tensor.NewRNG(8).FillNormal(g, 1)
	for _, algo := range []string{"terngrad", "graddrop", "cll-terngrad"} {
		bare, err := compress.New(algo, compress.Params{"seed": 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []compress.Compressor{bare, compress.NewInstrumented(bare)} {
			encodeAt := func(key uint64) []byte {
				t.Helper()
				if !compress.SetStream(c, key) {
					t.Fatalf("%s: SetStream reports no stream", algo)
				}
				dst := make([]byte, compress.MaxEncodedSize(c, len(g)))
				p, err := c.EncodeInto(dst, g)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			first := encodeAt(77)
			if _, err := compress.Encode(c, g); err != nil { // move the stream
				t.Fatal(err)
			}
			if !bytes.Equal(encodeAt(77), first) {
				t.Errorf("%s: same key, different payload", algo)
			}
			if bytes.Equal(encodeAt(78), first) {
				t.Errorf("%s: different keys, same payload", algo)
			}
		}
	}
	ob, _ := compress.New("onebit", nil)
	if compress.SetStream(ob, 1) {
		t.Error("onebit reports a random stream")
	}
}
