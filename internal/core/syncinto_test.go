package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

// syncRoundPerGradient is the parent's result memory, kept as the oracle of
// the slab-carved form: one fresh, zeroed, independently allocated slice per
// gradient per node, returned as maps.
func syncRoundPerGradient(lc *LiveCluster, grads []map[string][]float32) ([]map[string][]float32, error) {
	out := make([]map[string][]float32, len(grads))
	for v := range out {
		out[v] = make(map[string][]float32, len(grads[v]))
		for name, g := range grads[v] {
			out[v][name] = make([]float32, len(g))
		}
	}
	_, err := lc.SyncRoundInto(context.Background(), grads, out)
	return out, err
}

// carveDst makes every node's destination from one backing array in sorted
// name order, node after node, the slices back to back, and returns it with
// the backing.
func carveDst(grads []map[string][]float32) ([]map[string][]float32, []float32) {
	names := make([]string, 0, len(grads[0]))
	total := 0
	for name, g := range grads[0] {
		names = append(names, name)
		total += len(g)
	}
	sort.Strings(names)
	backing := make([]float32, total*len(grads))
	dst := make([]map[string][]float32, len(grads))
	off := 0
	for v := range dst {
		dst[v] = make(map[string][]float32, len(names))
		for _, name := range names {
			e := len(grads[0][name])
			dst[v][name] = backing[off : off+e : off+e]
			off += e
		}
	}
	return dst, backing
}

// poison sets every element of every destination to a NaN payload no round
// produces, so a result element the round failed to write shows in a digest.
func poison(dst []map[string][]float32) {
	nan := math.Float32frombits(0x7fc0dead)
	for _, m := range dst {
		for _, d := range m {
			for i := range d {
				d[i] = nan
			}
		}
	}
}

// TestSyncRoundIntoMatchesSyncRound: over {ring, ps} × {raw, onebit,
// terngrad, dgc} × {chan, tcp}, three rounds with error-feedback residuals
// carried from round to round produce the same digests three ways — the
// allocating form (one slab per node, each result capacity-capped), the Into
// form writing over poisoned destinations reused every round, and the
// per-gradient oracle.
func TestSyncRoundIntoMatchesSyncRound(t *testing.T) {
	const n, rounds = 3, 3
	sizes := map[string]int{"big": 20000, "mid": 1500, "small": 64}
	for _, strat := range []Strategy{StrategyRing, StrategyPS} {
		for _, algo := range []string{"", "onebit", "terngrad", "dgc"} {
			for _, transport := range []string{"chan", "tcp"} {
				t.Run(fmt.Sprintf("%v/%q/%s", strat, algo, transport), func(t *testing.T) {
					cfg := LiveConfig{Strategy: strat, Algo: algo, ErrorFeedback: algo != "", Parts: 2,
						Transport: transport, RoundTimeout: 30 * time.Second}
					var clusters [3]*LiveCluster
					for i := range clusters {
						lc, err := NewLiveCluster(n, cfg)
						if err != nil {
							t.Fatal(err)
						}
						clusters[i] = lc
					}
					grads, _ := makeGrads(5, n, sizes)
					dst, _ := carveDst(grads)
					for round := 0; round < rounds; round++ {
						out, err := clusters[0].SyncRound(grads)
						if err != nil {
							t.Fatal(err)
						}
						for v := range out {
							for name, res := range out[v] {
								if cap(res) != len(res) {
									t.Fatalf("node %d's %s has capacity %d past its %d elements: an append would write its slab neighbour", v, name, cap(res), len(res))
								}
							}
						}
						poison(dst)
						if _, err := clusters[1].SyncRoundInto(context.Background(), grads, dst); err != nil {
							t.Fatal(err)
						}
						ref, err := syncRoundPerGradient(clusters[2], grads)
						if err != nil {
							t.Fatal(err)
						}
						want := digestRound(ref)
						if got := digestRound(out); got != want {
							t.Fatalf("round %d: SyncRound digest %016x, per-gradient oracle %016x", round, got, want)
						}
						if got := digestRound(dst); got != want {
							t.Fatalf("round %d: SyncRoundInto digest %016x, per-gradient oracle %016x", round, got, want)
						}
					}
				})
			}
		}
	}
}

// TestSyncRoundIntoRejects: each rule of SyncRoundInto's destination contract
// has its *ResultBufferError, naming the node and gradient, before anything
// runs — no round is counted and the destinations stay as they were. Slices
// that only touch (one ends where the next begins) are accepted.
func TestSyncRoundIntoRejects(t *testing.T) {
	const n = 3
	sizes := map[string]int{"a": 100, "b": 40}
	lc, err := NewLiveCluster(n, LiveConfig{Strategy: StrategyPS, Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		spoil      func(grads, dst []map[string][]float32, backing []float32) []map[string][]float32
		node       int
		grad, says string
	}{
		{"count", func(_, dst []map[string][]float32, _ []float32) []map[string][]float32 { return dst[:2] }, -1, "", "2 result maps for 3 nodes"},
		{"nil map", func(_, dst []map[string][]float32, _ []float32) []map[string][]float32 { dst[1] = nil; return dst }, 1, "", "nil map"},
		{"missing name", func(_, dst []map[string][]float32, _ []float32) []map[string][]float32 {
			delete(dst[2], "b")
			return dst
		}, 2, "b", "missing"},
		{"extra name", func(_, dst []map[string][]float32, _ []float32) []map[string][]float32 {
			dst[0]["c"] = make([]float32, 4)
			return dst
		}, 0, "c", "not a gradient"},
		{"wrong length", func(_, dst []map[string][]float32, _ []float32) []map[string][]float32 {
			dst[1]["a"] = make([]float32, 99)
			return dst
		}, 1, "a", "99 elements"},
		{"own input", func(grads, dst []map[string][]float32, _ []float32) []map[string][]float32 {
			dst[0]["b"] = grads[0]["b"]
			return dst
		}, 0, "b", "overlaps input grads[0]"},
		{"another node's input, one element shared", func(grads, dst []map[string][]float32, _ []float32) []map[string][]float32 {
			buf := make([]float32, 199)
			grads[2]["a"] = buf[:100]
			dst[1]["a"] = buf[99:]
			return dst
		}, 1, "a", "overlaps input grads[2]"},
		{"another node's destination", func(_, dst []map[string][]float32, backing []float32) []map[string][]float32 {
			dst[2]["a"] = backing[1:101] // dst[0]["a"] is backing[:100]
			return dst
		}, 2, "a", `overlaps dst[0]["a"]`},
		{"another destination of the node", func(_, dst []map[string][]float32, _ []float32) []map[string][]float32 {
			buf := make([]float32, 139)
			dst[1]["a"], dst[1]["b"] = buf[:100], buf[99:]
			return dst
		}, 1, "", "overlaps dst[1]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			grads, _ := makeGrads(3, n, sizes)
			dst, backing := carveDst(grads)
			poison(dst)
			dst = c.spoil(grads, dst, backing)
			before := digestRound(dst[:1])
			_, err := lc.SyncRoundInto(context.Background(), grads, dst)
			var rb *ResultBufferError
			if !errors.As(err, &rb) {
				t.Fatalf("got %v, want a *ResultBufferError", err)
			}
			if rb.Node != c.node || (c.grad != "" && rb.Name != c.grad) || !strings.Contains(rb.Error(), c.says) {
				t.Fatalf("got %q (node %d, gradient %q), want node %d, gradient %q, saying %q", rb, rb.Node, rb.Name, c.node, c.grad, c.says)
			}
			if dst[0] != nil && digestRound(dst[:1]) != before {
				t.Fatal("a rejected round wrote a destination")
			}
		})
	}
	if lc.rounds != 0 {
		t.Fatalf("rejected calls counted %d rounds", lc.rounds)
	}

	// Touching is not overlapping: every input and destination back to back
	// in one array.
	grads, _ := makeGrads(3, n, sizes)
	buf := make([]float32, 2*n*140)
	dst := make([]map[string][]float32, n)
	for v := range dst {
		base := buf[2*v*140:]
		grads[v]["a"], grads[v]["b"] = copyInto(base[:100:100], grads[v]["a"]), copyInto(base[100:140:140], grads[v]["b"])
		dst[v] = map[string][]float32{"a": base[140:240:240], "b": base[240:280:280]}
	}
	if _, err := lc.SyncRoundInto(context.Background(), grads, dst); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewLiveCluster(n, LiveConfig{Strategy: StrategyPS, Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := fresh.SyncRound(grads)
	if err != nil {
		t.Fatal(err)
	}
	if digestRound(dst) != digestRound(out) {
		t.Fatal("a round into touching destinations differs from the allocating form")
	}
}

func copyInto(dst, src []float32) []float32 { copy(dst, src); return dst }
