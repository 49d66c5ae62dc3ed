package ckpt

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleSnapshot(step int) *Snapshot {
	return &Snapshot{
		Step:   step,
		Algo:   "dgc",
		Params: map[string]float64{"ratio": 0.05, "seed": 7},
		Tensors: map[string][]float32{
			"w":          {1.5, -2.25, 0, float32(math.Inf(1)), 3.75e-3},
			"vel/global": {0.25, 0.5},
		},
		Residuals: []map[string][]float32{
			{"w/p0": {0.125, -0.0625}},
			{"w/p0": {9, 8, 7}, "w/p1": {}},
		},
		RNG:  map[string]uint64{"worker/0": 0xdeadbeefcafef00d, "worker/1": 42},
		Meta: map[string]string{"task": "linear", "workers": "4"},
	}
}

// TestEncodeDecodeRoundTrip: full structural round-trip, plus deterministic
// encoding (equal snapshots → byte-identical files).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleSnapshot(123)
	buf, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := Encode(sampleSnapshot(123))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("encoding is not deterministic")
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

// TestEncodeSizesExactly: Encode allocates its buffer once, at its final
// length — an empty snapshot, the sample, and one holding a large tensor.
func TestEncodeSizesExactly(t *testing.T) {
	big := sampleSnapshot(9)
	big.Tensors["big"] = make([]float32, 1<<16)
	for _, s := range []*Snapshot{{}, sampleSnapshot(1), big} {
		buf, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if cap(buf) != len(buf) {
			t.Fatalf("Encode returned %d bytes in a %d-byte buffer", len(buf), cap(buf))
		}
		if allocs := testing.AllocsPerRun(5, func() { _, _ = Encode(s) }); allocs > float64(5+len(s.Residuals)) {
			t.Fatalf("Encode made %.0f allocations, want one buffer and one key list per map", allocs)
		}
	}
}

// TestDecodeRejectsCorruption: every single-bit flip and every truncation of
// a valid checkpoint must yield *CorruptCheckpointError — never a panic, and
// never a silently-wrong Snapshot.
func TestDecodeRejectsCorruption(t *testing.T) {
	buf, err := Encode(sampleSnapshot(9))
	if err != nil {
		t.Fatal(err)
	}
	var ce *CorruptCheckpointError

	// Truncations.
	for n := 0; n < len(buf); n++ {
		if _, err := Decode(buf[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		} else if !errors.As(err, &ce) {
			t.Fatalf("truncation to %d bytes: error %v is not CorruptCheckpointError", n, err)
		}
	}

	// Bit flips (every bit; CRC catches them all).
	for i := 0; i < len(buf); i++ {
		for b := 0; b < 8; b++ {
			mut := append([]byte(nil), buf...)
			mut[i] ^= 1 << b
			if _, err := Decode(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded successfully", i, b)
			} else if !errors.As(err, &ce) {
				t.Fatalf("bit flip at byte %d bit %d: error %v is not CorruptCheckpointError", i, b, err)
			}
		}
	}

	// Trailing garbage.
	if _, err := Decode(append(append([]byte(nil), buf...), 0, 0, 0, 0)); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
}

// TestStoreSaveLoadLatest: basic save → load cycle, manifest ordering, and
// GC keeping Store.Keep checkpoints.
func TestStoreSaveLoadLatest(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store LoadLatest err = %v, want ErrNoCheckpoint", err)
	}
	for _, step := range []int{10, 20, 30} {
		if _, err := st.Save(sampleSnapshot(step)); err != nil {
			t.Fatal(err)
		}
	}
	s, skipped, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("unexpected skips: %v", skipped)
	}
	if s.Step != 30 {
		t.Fatalf("latest step = %d, want 30", s.Step)
	}
	steps, err := st.Steps()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steps, []int{20, 30}) {
		t.Fatalf("after GC steps = %v, want [20 30] (Keep=2)", steps)
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), fileFor(10))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("GC left evicted checkpoint on disk: %v", err)
	}
}

// TestStoreCorruptionFallback is the acceptance criterion: a truncated or
// bit-flipped latest checkpoint is detected via CRC/structure and LoadLatest
// silently falls back to the previous good one.
func TestStoreCorruptionFallback(t *testing.T) {
	for _, mode := range []string{"truncate", "bitflip", "missing"} {
		t.Run(mode, func(t *testing.T) {
			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Save(sampleSnapshot(100)); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Save(sampleSnapshot(200)); err != nil {
				t.Fatal(err)
			}
			latest := filepath.Join(st.Dir(), fileFor(200))
			raw, err := os.ReadFile(latest)
			if err != nil {
				t.Fatal(err)
			}
			switch mode {
			case "truncate":
				err = os.WriteFile(latest, raw[:len(raw)/3], 0o644)
			case "bitflip":
				raw[len(raw)/2] ^= 0x40
				err = os.WriteFile(latest, raw, 0o644)
			case "missing":
				err = os.Remove(latest)
			}
			if err != nil {
				t.Fatal(err)
			}
			s, skipped, err := st.LoadLatest()
			if err != nil {
				t.Fatal(err)
			}
			if s.Step != 100 {
				t.Fatalf("fallback loaded step %d, want 100", s.Step)
			}
			if len(skipped) != 1 {
				t.Fatalf("skipped = %v, want exactly one corrupt entry", skipped)
			}
			var ce *CorruptCheckpointError
			if !errors.As(skipped[0], &ce) {
				t.Fatalf("skip reason %v is not CorruptCheckpointError", skipped[0])
			}
			if ce.Path != latest {
				t.Fatalf("corrupt path = %q, want %q", ce.Path, latest)
			}

			// Both gone → ErrNoCheckpoint, both skips recorded.
			if err := os.Truncate(filepath.Join(st.Dir(), fileFor(100)), 3); err != nil {
				t.Fatal(err)
			}
			if _, skipped, err := st.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("all-corrupt store err = %v, want ErrNoCheckpoint", err)
			} else if len(skipped) != 2 {
				t.Fatalf("all-corrupt store skipped %d entries, want 2", len(skipped))
			}
		})
	}
}

// TestStoreNoTempDebris: a completed Save leaves no *.tmp-* files behind.
func TestStoreNoTempDebris(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(sampleSnapshot(5)); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(st.Dir(), "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp debris after Save: %v", matches)
	}
}

// TestStoreResaveSameStep: re-saving a step replaces its manifest slot
// instead of duplicating it.
func TestStoreResaveSameStep(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Save(sampleSnapshot(7)); err != nil {
			t.Fatal(err)
		}
	}
	steps, err := st.Steps()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steps, []int{7}) {
		t.Fatalf("steps = %v, want [7]", steps)
	}
}
