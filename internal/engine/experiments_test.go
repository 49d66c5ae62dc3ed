package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestAllExperimentsRun executes every experiment end to end (reduced scale)
// and checks the rendered output carries its key content.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow; skipped with -short")
	}
	wantMarkers := map[string][]string{
		"table1":     {"transformer", "Ring", "BytePS(OSS-onebit)"},
		"table3":     {"alpha", "2(N-1)"},
		"table5":     {"dgc", "1298", "0"},
		"table6":     {"548.05MB", "bert-large"},
		"table7":     {"392MB", "<yes, 16>"},
		"fig7a":      {"HiPress-CaSync-PS(CompLL-onebit)", "128GPU"},
		"fig7b":      {"Ring(OSS-dgc)"},
		"fig7c":      {"terngrad"},
		"fig8a":      {"bert-large"},
		"fig8b":      {"transformer"},
		"fig8c":      {"lstm"},
		"fig9":       {"mean-util", "Ring"},
		"fig10":      {"speedup-vs-byteps", "HiPress"},
		"fig11":      {"+ SeCoPa", "on-CPU"},
		"fig12a":     {"ec2-25g"},
		"fig12b":     {"8-bit", "dgc"},
		"fig13":      {"iters-to-target", "HiPress"},
		"micro":      {"12.0x", "5.1x"},
		"jitter":     {"stable-plans", "casync-ring"},
		"strategies": {"casync-hd", "resnet50"},
		"wire":       {"realized-ratio", "onebit"},
		"stragglers": {"false-convictions", "adaptive", "static-safe"},
	}
	for _, id := range Experiments() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel() // experiments share no mutable state
			tab, err := RunExperiment(id, 0.2)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out := tab.String()
			for _, marker := range wantMarkers[id] {
				if !strings.Contains(out, marker) {
					t.Errorf("%s output missing %q:\n%s", id, marker, out)
				}
			}
			if len(tab.Rows) == 0 {
				t.Errorf("%s produced no rows", id)
			}
		})
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("fig-nope", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Out-of-range scale falls back to 1.
	if _, err := RunExperiment("table3", -3); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "t",
		Header: []string{"a", "long-header"},
		Notes:  []string{"n1"},
	}
	tab.AddRow("x", 3.14159)
	tab.AddRow("yy", 7)
	out := tab.String()
	for _, want := range []string{"=== t ===", "long-header", "3.14", "note: n1", "yy"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestFig11Monotone: the stacked optimizations never make iterations slower
// once compression is on the GPU (the on-CPU row is allowed to regress; that
// is its point).
func TestFig11Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab, err := Fig11Exp()
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	var prevLabel string
	for _, row := range tab.Rows {
		model, label, iter := row[0], row[1], row[4]
		var v float64
		if _, err := sscanF(iter, &v); err != nil {
			t.Fatalf("bad iter cell %q", iter)
		}
		if strings.HasPrefix(label, "+") && prev > 0 {
			if v > prev*1.001 {
				t.Errorf("%s: %q (%.3fs) regressed from %q (%.3fs)", model, label, v, prevLabel, prev)
			}
		}
		prev, prevLabel = v, label
	}
}

func sscanF(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}

// TestAllocsPerEncodeCountsSteadyState holds the kernels table's allocs
// column to the steady state: a func that allocates only on its first call
// on a P (a sync.Pool slot that never held a value) reads 0.
func TestAllocsPerEncodeCountsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under -race; alloc counts are meaningless")
	}
	pool := sync.Pool{New: func() any { return new([64]byte) }}
	f := func() error {
		pool.Put(pool.Get())
		return nil
	}
	if a := allocsPerEncode(f); a != 0 {
		t.Fatalf("allocsPerEncode = %v, want 0 for a func that allocates only on its first call on a P", a)
	}
}
