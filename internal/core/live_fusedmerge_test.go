package core

import (
	"fmt"
	"math"
	"testing"

	"hipress/internal/compress"
	"hipress/internal/tensor"
)

// decodeThenAdd is the merge the live plane ran before it decode-added where a
// contribution lands, kept as the oracle: decode into scratch, then one
// element-wise add — the scratch itself becoming the accumulator on the first
// merge (local + decoded), the accumulator taking it in place afterwards.
func decodeThenAdd(t *testing.T, c compress.Compressor, acc, local []float32, payload []byte) (_, dec []float32) {
	t.Helper()
	dec = make([]float32, len(local))
	if err := c.DecodeInto(dec, payload); err != nil {
		t.Fatal(err)
	}
	if acc == nil {
		acc = append([]float32(nil), dec...)
		sumF32(acc, local, acc)
	} else {
		sumF32(acc, acc, dec)
	}
	return acc, dec
}

// mergeBits are the float32 bit patterns sprinkled over the test gradients:
// the values at which an add that skips its zero operand, or a bit trick in a
// decoder, could part ways with decode-then-add.
var mergeBits = []uint32{
	0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007fffff, // ±0, denormals
	0x3f800000, 0xbf800000, 0x7f7fffff, 0xff7fffff, // ±1, ±max finite
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, 0x7f800001, 0x7fa5a5a5, // NaNs, from mergeNaNs on
}

const mergeNaNs = 11

// TestFusedMergeMatchesDecodeThenAdd holds the live merge — compress.DecodeAdd
// into the partition accumulator, seeded from local[lo:hi] on the first merge —
// to the decode-then-add it replaced, bit for bit over raw float32 patterns:
// five codecs × {ring merge chain, PS aggregation barrier} × {one contribution
// (the seeding merge alone), two (a later merge into the accumulator)}.
//
// The quantizers that rewrite every element (onebit, terngrad) may differ
// nowhere. The three scatter-adders (tbq, dgc, graddrop) skip the zero fill, so
// exactly one thing may — and, where the inputs provoke it, must — differ: an
// element whose local value is -0.0 and that no contribution selects (every
// decode yields ±0 there) stays -0.0, where adding a decoded +0.0 gave +0.0.
func TestFusedMergeMatchesDecodeThenAdd(t *testing.T) {
	const ne, planted = 3000, 40
	codecs := []struct {
		algo   string
		sparse bool
	}{{"onebit", false}, {"terngrad", false}, {"tbq", true}, {"dgc", true}, {"graddrop", true}}
	for _, cd := range codecs {
		for _, strat := range []Strategy{StrategyRing, StrategyPS} {
			for peers := 1; peers <= 2; peers++ {
				for _, special := range []bool{false, true} {
					name := fmt.Sprintf("%s/%v/peers=%d/special=%v", cd.algo, strat, peers, special)
					t.Run(name, func(t *testing.T) {
						n := peers + 1 // node 0 merges, nodes 1… contribute
						lc, err := NewLiveCluster(n, LiveConfig{Strategy: strat, Algo: cd.algo,
							Params: compress.Params{"ratio": 0.01}})
						if err != nil {
							t.Fatal(err)
						}
						// Gradients: normal draws; under special, a bit pattern
						// from mergeBits at every 7th element (NaNs only in the
						// local gradient, which nothing here encodes). The first
						// `planted` elements are -0.0 locally and 0 in every
						// contribution, so no sparsifier selects them.
						rng := tensor.NewRNG(uint64(len(name)))
						grads := make([][]float32, n)
						for v := range grads {
							grads[v] = make([]float32, ne)
							rng.FillNormal(grads[v], 1)
							for i := range grads[v] {
								switch {
								case i < planted && v == 0:
									grads[v][i] = math.Float32frombits(1 << 31)
								case i < planted:
									grads[v][i] = 0
								case special && i%7 == v:
									pats := mergeBits
									if v > 0 {
										pats = mergeBits[:mergeNaNs] // dgc refuses to encode a NaN
									}
									grads[v][i] = math.Float32frombits(pats[(i/7)%len(pats)])
								}
							}
						}
						lay := newRoundLayout(1)
						lay.add("g", ne, 1, cd.algo)
						r := &liveRound{lc: lc, roundPlan: &roundPlan{lay: lay, epoch: lc.epoch}}
						rt := &nodeRT{n: n, lay: lay, local: [][]float32{grads[0]},
							parts: make([]partRT, lay.slots), in: make([]wireBuf, lay.slots*n)}
						defer rt.lease.Release()

						var want []float32
						decs := make([][]float32, 0, peers)
						for peer := 1; peer < n; peer++ {
							payload, err := compress.Encode(lc.comp[peer], grads[peer])
							if err != nil {
								t.Fatal(err)
							}
							var dec []float32
							want, dec = decodeThenAdd(t, lc.comp[0], want, grads[0], payload)
							decs = append(decs, dec)
							rt.in[peer] = wireBuf{b: payload, ready: true}
						}
						// The merge as a round runs it: a ring's chain of merge
						// tasks, or the PS barrier over every peer in order.
						tasks := []*Task{{Kind: KMerge, Grad: "g", Step: 1, Phase: 1}}
						if strat == StrategyRing {
							tasks = tasks[:0]
							for peer := 1; peer < n; peer++ {
								tasks = append(tasks, &Task{Kind: KMerge, Grad: "g", Peer: peer, Bytes: 4 * ne, Phase: 1})
							}
						}
						for _, task := range tasks {
							if err := r.execComp(rt, task); err != nil {
								t.Fatal(err)
							}
						}

						got := rt.parts[0].acc
						if len(got) != ne {
							t.Fatalf("accumulator has %d elements, want %d", len(got), ne)
						}
						kept := 0
						for i := range got {
							g, w := math.Float32bits(got[i]), math.Float32bits(want[i])
							if canonNaN(g) == canonNaN(w) {
								continue
							}
							unselected := true
							for _, dec := range decs {
								unselected = unselected && dec[i] == 0
							}
							if !cd.sparse || g != 1<<31 || w != 0 || math.Float32bits(grads[0][i]) != 1<<31 || !unselected {
								t.Fatalf("element %d: fused %08x, decode-then-add %08x (local %08x)", i, g, w, math.Float32bits(grads[0][i]))
							}
							kept++
						}
						if cd.sparse && kept < planted {
							t.Fatalf("%d of %d planted -0.0 elements kept their sign; a scatter-adder keeps all of them", kept, planted)
						}
					})
				}
			}
		}
	}
}
