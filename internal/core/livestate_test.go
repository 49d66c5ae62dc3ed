package core

import (
	"context"
	"fmt"
	"testing"
)

// TestExportImportStateResumesRounds is the checkpoint seam at the cluster
// level: residuals exported after k rounds, imported into a fresh cluster and
// joined by RestoreEpoch's round index, continue into exactly the rounds an
// uninterrupted cluster runs — for the stochastic compressors, whose draws
// are keyed by that index and carried by nothing else. Partitions are above
// GradDrop's 1000-element sampling floor, and a cluster given the residuals
// but not the round index must diverge, or the rows would draw nothing.
func TestExportImportStateResumesRounds(t *testing.T) {
	const n, rounds, cut = 3, 4, 2
	sizes := map[string]int{"w1": 2200, "w2": 64}
	for _, strat := range []Strategy{StrategyPS, StrategyRing} {
		for _, algo := range []string{"terngrad", "graddrop"} {
			t.Run(fmt.Sprintf("%v/%s", strat, algo), func(t *testing.T) {
				build := func() *LiveCluster {
					lc, err := NewLiveCluster(n, LiveConfig{Strategy: strat, Parts: 2, Algo: algo, ErrorFeedback: true})
					if err != nil {
						t.Fatal(err)
					}
					return lc
				}
				run := func(lc *LiveCluster, from, to int) []uint64 {
					var digests []uint64
					for round := from; round < to; round++ {
						grads, _ := makeGrads(uint64(100+round), n, sizes)
						out, _, err := lc.SyncRoundContext(context.Background(), grads)
						if err != nil {
							t.Fatalf("round %d: %v", round, err)
						}
						digests = append(digests, digestRound(out))
					}
					return digests
				}
				want := run(build(), 0, rounds)

				killed := build()
				run(killed, 0, cut)
				residuals := killed.ExportState()

				resumed := build()
				if err := resumed.ImportState(residuals); err != nil {
					t.Fatal(err)
				}
				if err := resumed.RestoreEpoch(killed.NextEpoch(), killed.Rounds()); err != nil {
					t.Fatal(err)
				}
				for i, got := range run(resumed, cut, rounds) {
					if got != want[cut+i] {
						t.Fatalf("round %d: resumed digest %016x != uninterrupted %016x", cut+i, got, want[cut+i])
					}
				}

				rewound := build() // residuals without the round index
				if err := rewound.ImportState(residuals); err != nil {
					t.Fatal(err)
				}
				if got := run(rewound, cut, cut+1)[0]; got == want[cut] {
					t.Fatalf("round %d digest does not depend on the round index: the encodes drew nothing", cut)
				}
			})
		}
	}
}
