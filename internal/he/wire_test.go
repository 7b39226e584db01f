package he

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenCiphertext encrypts a deterministic tensor of the given shape
// under a fixed key, at the level and noise of a fresh encryption.
func goldenCiphertext(t testing.TB, p Params, shape []int) *Ciphertext {
	t.Helper()
	ev := testEvaluator(t, p)
	kp, err := KeyGen(p, 0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(i)*0.37 - 5
	}
	ct, err := ev.Encrypt(kp.Public, data, shape)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestMarshalGolden pins the ciphertext wire bytes: the provider's
// audit counts them and the TA decodes them, so any change to the
// header, the slot masks or the expansion filler is a wire break. The
// digests were recorded from the per-slot key-stream encoder this
// package shipped before it wrote blocks in place.
func TestMarshalGolden(t *testing.T) {
	golden := map[string]string{
		"exp2/[7]":      "87540d91a66b7b43347527a7b5f2d933e416a96059b363e8a27ce4674dc8145f",
		"exp2/[5 3]":    "4b823af549d0d8194473e29befa0f5fa5b225f0a194273dbfb806598439014e0",
		"exp2/[4 3 2]":  "b86885439dbffe374fcaec12d6abdd6f3a596dbe5bd6e25bd04a275716b87c48",
		"exp3/[7]":      "d6e470399b5c3bdc153413a538a0908af0f998f4b151cca269a0d14501e38201",
		"exp3/[5 3]":    "4b6dbe3b649c149ae68d12b8fde654401da1aca0aad4cea5d6122033fdf3a86e",
		"exp3/[4 3 2]":  "6eab78d759af73a550d2744f1f5d088d5fa1ccef362b5c77465f8fcfa7aa620f",
		"exp32/[7]":     "9b5c333e79071458899f734aadaf9dcde4723d64f11696a2c67d7af619825972",
		"exp32/[5 3]":   "b7266ecc4a8743749b5ae5e90d9bd4a7ebcc84ee9a2a6205960103a6c3bc6124",
		"exp32/[4 3 2]": "7a2f2ac678cfd3837eb7b48eb7c654c304dfa38077cb4df0876e833750b50cbf",
	}
	for _, exp := range []int{2, 3, 32} {
		p := DefaultParams()
		p.Expansion = exp
		for _, shape := range [][]int{{7}, {5, 3}, {4, 3, 2}} {
			name := fmt.Sprintf("exp%d/%v", exp, shape)
			ct := goldenCiphertext(t, p, shape)
			wire := ct.Marshal(p)
			sum := sha256.Sum256(wire)
			if got := hex.EncodeToString(sum[:]); got != golden[name] {
				t.Errorf("%s: wire digest %s, want %s", name, got, golden[name])
			}
		}
	}
}

// The append encoder fills a buffer that already has room without
// allocating, and the decoder refills a ciphertext that has held one of
// at least the same size without allocating.
func TestWarmWirePathAllocatesNothing(t *testing.T) {
	p := DefaultParams()
	ev := testEvaluator(t, p)
	ct := goldenCiphertext(t, p, []int{12, 16})
	buf := ct.AppendMarshal(nil, p)
	if n := testing.AllocsPerRun(100, func() { buf = ct.AppendMarshal(buf[:0], p) }); n != 0 {
		t.Errorf("AppendMarshal into a warm buffer: %v allocs per run, want 0", n)
	}
	var into Ciphertext
	if err := ev.UnmarshalInto(&into, buf); err != nil {
		t.Fatal(err)
	}
	small := goldenCiphertext(t, p, []int{5, 3}).Marshal(p)
	var err error
	n := testing.AllocsPerRun(100, func() {
		if err = ev.UnmarshalInto(&into, small); err == nil {
			err = ev.UnmarshalInto(&into, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("UnmarshalInto over a warm ciphertext: %v allocs per run, want 0", n)
	}
	if !bytes.Equal(into.AppendMarshal(nil, p), buf) {
		t.Error("warm decode does not re-marshal to its input")
	}
}
