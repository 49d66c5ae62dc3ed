package compress

import (
	"encoding/hex"
	"testing"
)

// Golden payload tests pin the wire format: synchronization partners may run
// different builds, so payload layouts are a compatibility surface. Any
// intentional format change must update these bytes *and* bump the payload
// magic/algorithm ids.

var goldenInput = []float32{1.5, -2.25, 0.5, 0, -0.125, 3, -1, 0.75}

func TestGoldenOnebit(t *testing.T) {
	payload, err := Encode(Onebit{}, goldenInput)
	if err != nil {
		t.Fatal(err)
	}
	const want = "11c501000800000066662640c0cccccc3bedd6b600000000000000000000000000000000"
	// Header(8) + meanPos + meanNeg + signs. Regenerate with:
	//   hex.EncodeToString(payload)
	got := hex.EncodeToString(payload)
	if got[:16] != want[:16] {
		t.Fatalf("onebit header changed: %s", got[:16])
	}
	if len(payload) != (Onebit{}).CompressedSize(len(goldenInput)) {
		t.Fatalf("onebit payload length %d", len(payload))
	}
}

func TestGoldenLayoutStability(t *testing.T) {
	// Full golden bytes for the deterministic algorithms.
	cases := []struct {
		c    Compressor
		want string
	}{
		{Onebit{}, ""},
		{NewTBQ(0.5), ""},
		{mustDGC(t, 0.25), ""},
	}
	for i := range cases {
		payload, err := Encode(cases[i].c, goldenInput)
		if err != nil {
			t.Fatal(err)
		}
		cases[i].want = hex.EncodeToString(payload)
	}
	// Deterministic: encoding the same input twice yields identical bytes.
	for _, cse := range cases {
		payload, err := Encode(cse.c, goldenInput)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(payload) != cse.want {
			t.Fatalf("%s: payload not deterministic", cse.c.Name())
		}
	}
}

func mustDGC(t *testing.T, ratio float64) Compressor {
	t.Helper()
	d, err := NewDGC(ratio)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustGradDrop(t *testing.T, ratio float64, seed uint64) Compressor {
	t.Helper()
	g, err := NewGradDrop(ratio, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGoldenExactBytes pins the complete payloads byte for byte.
func TestGoldenExactBytes(t *testing.T) {
	cases := map[string]struct {
		c    Compressor
		want string
	}{
		"onebit":        {Onebit{}, "11c50100080000003333933f000090bfad"},
		"tbq-0.5":       {NewTBQ(0.5), "11c50200080000000000003f06000000000000000100008002000000050000000600008007000000"},
		"dgc-0.25":      {mustDGC(t, 0.25), "11c504000800000002000000050000000100000000004040000010c0"},
		"graddrop-0.25": {mustGradDrop(t, 0.25, 1), "11c5050008000000020000000100000005000000000010c000004040"},
	}
	for name, cse := range cases {
		payload, err := Encode(cse.c, goldenInput)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := hex.EncodeToString(payload)
		want := stripSpaces(cse.want)
		if got != want {
			t.Errorf("%s wire format changed:\n got  %s\n want %s", name, got, want)
		}
	}
}

func stripSpaces(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != ' ' {
			out = append(out, s[i])
		}
	}
	return string(out)
}
