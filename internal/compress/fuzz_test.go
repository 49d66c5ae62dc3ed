package compress

import (
	"math"
	"testing"
)

// fuzzMaxElems bounds the caller-declared element count so the fuzzer never
// asks for pathological allocations; real payload/header mismatches all
// reproduce well below this.
const fuzzMaxElems = 4096

// FuzzCompressorDecode drives every decoder (DecodeInto, DecodeAdd) with
// adversarial payloads: truncated frames, corrupted headers, lying
// length fields, out-of-range indices. The contract under test is the
// bounds-hardening one — malformed input must surface as an error (typically
// wrapping ErrTruncatedPayload), never as a panic or out-of-range write, and
// DecodeAdd must accept exactly the payloads DecodeInto accepts. adaptive
// (two decoders tried in turn) and oss-onebit (a forwarding baseline) ride
// along with the five native kernels.
//
// `make check` runs this for 10s alongside the ckpt and netsim fuzz smokes.
func FuzzCompressorDecode(f *testing.F) {
	names := []string{"onebit", "tbq", "terngrad", "dgc", "graddrop", "adaptive", "oss-onebit"}
	comps := make([]Compressor, len(names))
	for i, name := range names {
		c, err := New(name, nil)
		if err != nil {
			f.Fatalf("New(%q): %v", name, err)
		}
		comps[i] = c
	}

	// Seed corpus: valid payloads at awkward sizes (the fuzzer mutates from
	// here into truncations and field corruptions), plus hand-truncated and
	// empty frames.
	for i, c := range comps {
		for _, n := range []int{0, 1, 7, 8, 9, 63, 1000} {
			g := make([]float32, n)
			for j := range g {
				g[j] = float32(math.Sin(float64(i*1000 + j)))
			}
			p, err := Encode(c, g)
			if err != nil {
				f.Fatalf("%s seed encode n=%d: %v", c.Name(), n, err)
			}
			f.Add(uint8(i), uint16(n), p)
			if len(p) > headerSize {
				f.Add(uint8(i), uint16(n), p[:headerSize+1]) // truncated body
			}
			f.Add(uint8(i), uint16(n), p[:headerSize/2]) // truncated header
		}
	}
	f.Add(uint8(0), uint16(16), []byte{})

	f.Fuzz(func(t *testing.T, which uint8, n uint16, payload []byte) {
		c := comps[int(which)%len(comps)]
		ne := int(n) % (fuzzMaxElems + 1)

		err := c.DecodeInto(make([]float32, ne), payload)

		// DecodeAdd into a zero buffer must agree with DecodeInto on
		// validity (sparse adders share its validation path).
		add := make([]float32, ne)
		if aerr := DecodeAdd(c, payload, add); (aerr == nil) != (err == nil) {
			t.Fatalf("%s: DecodeInto err=%v but DecodeAdd err=%v", c.Name(), err, aerr)
		}
	})
}
