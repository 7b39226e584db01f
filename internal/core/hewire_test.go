package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/raceflag"
)

// heHandoffBudgetBytes bounds what four warm hybrid round trips
// allocate, each encrypting one utterance's embedding, the provider
// evaluating it and appending the result to the handoff buffer: 8960 B
// measured (go1.24, linux/amd64) for 262432 radio bytes. What is left is
// plaintext-sized: the encrypted copy of the features, the conv output
// and their headers. Before the wire buffers were pooled the same four
// round trips, with the handoff packed, allocated 851752 B — a fresh
// wire slice at the device and at the provider, a key-stream slice per
// slot on each side, and a packed copy of every result.
const heHandoffBudgetBytes = 12 << 10

// A hybrid group that takes a warm wire pair from heWirePool builds its
// ciphertexts and its handoff in those buffers: per utterance it
// allocates the plaintext-sized tensors only, never the 32× expanded
// wire bytes that cross the radio.
func TestHEHandoffReusesPooledBuffers(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under -race")
	}
	sys, err := NewSystem(Config{Mode: ModeHybridHE, Seed: 42})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	type input struct {
		data  []float32
		shape []int
	}
	var group []input
	for i := range 4 {
		feats := make([]float32, sys.heSplit.SeqLen)
		for j := range feats {
			feats[j] = float32((i + 3*j) % 20)
		}
		data, shape, err := sys.heSplit.EmbedFeatures(feats)
		if err != nil {
			t.Fatalf("EmbedFeatures: %v", err)
		}
		group = append(group, input{data, shape})
	}
	roundTrips := func() (radio, handoff int) {
		w := heWirePool.Get().(*heWire)
		defer heWirePool.Put(w)
		w.handoff = w.handoff[:0]
		for _, in := range group {
			n, err := w.roundTrip(sys.HEEval, sys.HEPub, in.data, in.shape, sys.HE.AppendEvalText)
			if err != nil {
				t.Fatalf("roundTrip: %v", err)
			}
			radio += n
		}
		return radio, len(w.handoff)
	}
	// No collection between the warm-up and the measurement, and one P,
	// as in TestCapturePathReusesPooledBuffers.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	roundTrips()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	radio, handoff := roundTrips()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d radio bytes, %d handoff bytes, allocated %d bytes", radio, handoff, got)
	if got > heHandoffBudgetBytes {
		t.Errorf("warm HE round trips over %d radio bytes allocated %d bytes, budget %d", radio, got, heHandoffBudgetBytes)
	}
}
