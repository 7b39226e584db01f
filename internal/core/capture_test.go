package core

import (
	"encoding/binary"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/audio"
	"repro/internal/peripheral"
	"repro/internal/raceflag"
)

// captureBudgetBytes bounds what a warm capture path allocates to queue
// one four-utterance group (synthesis, microphone load and pump into the
// controller FIFO): 656 B measured (go1.24, linux/amd64) for the 211200
// wire bytes the group puts on the bus. Before the capture buffers were
// pooled the same call allocated 3089040 B — a float64 copy of the group
// in the microphone, a doubling FIFO and a synthesis buffer per device.
const captureBudgetBytes = 4 << 10

// A System that queues a group after another System has finished one
// borrows the warm synthesis buffer, wire queue and FIFO slab instead of
// growing its own.
func TestCapturePathReusesPooledBuffers(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under -race")
	}
	group := testUtterances()[:4]
	first, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 42})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	second, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 42})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	// No collection from the first run to the measurement: two GC cycles
	// empty a sync.Pool. One P: an item the first run put in one P's
	// private pool slot is invisible to a Get that runs on another P.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := first.RunSessionBatched(group, len(group)); err != nil {
		t.Fatalf("first system: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lens, err := second.queueGroup(0, group)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("second system queueGroup: %v", err)
	}
	wire := 0
	for i := 0; i < len(lens); i += 4 {
		wire += int(binary.LittleEndian.Uint32(lens[i:]))
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("queued %d wire bytes, allocated %d bytes", wire, got)
	if got > captureBudgetBytes {
		t.Errorf("warm capture of %d wire bytes allocated %d bytes, budget %d", wire, got, captureBudgetBytes)
	}
}

// A microphone left holding audio at another rate makes the next queued
// group fail with the typed mismatch, not a later capture stall.
func TestQueueGroupRateMismatch(t *testing.T) {
	sys, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 42})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.Mic.Load(audio.Sine(8000, 300, 0.3, 10*time.Millisecond)); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := sys.queueGroup(0, testUtterances()[:1]); !errors.Is(err, peripheral.ErrRateMismatch) {
		t.Fatalf("queueGroup behind an 8 kHz remainder = %v, want ErrRateMismatch", err)
	}
}
