package peripheral

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/audio"
	"repro/internal/i2s"
	"repro/internal/raceflag"
)

// historicalWire is the capture path's wire encoding as the microphone
// produced it before encoding moved to Load: quantize each sample at pump
// time with math.Round(s*32768) clamped to int16, then i2s.EncodeFrames.
func historicalWire(t *testing.T, samples []float64, f i2s.Format) []byte {
	t.Helper()
	q := make([]int32, len(samples))
	for i, s := range samples {
		v := math.Round(s * 32768)
		if v > 32767 {
			v = 32767
		} else if v < -32768 {
			v = -32768
		}
		q[i] = int32(v)
	}
	wire, err := i2s.EncodeFrames(q, f)
	if err != nil {
		t.Fatalf("EncodeFrames: %v", err)
	}
	return wire
}

// edgeSamples covers the quantizer's clamp and rounding edges.
func edgeSamples() []float64 {
	const lsb = 1.0 / 32768
	return []float64{
		1.0, -1.0, 1.5, -1.5, 32767 * lsb, -32768 * lsb, 32767.5 * lsb, -32768.5 * lsb,
		0.5 * lsb, -0.5 * lsb, 1.5 * lsb, -1.5 * lsb, 2.5 * lsb, -2.5 * lsb, // exact ½-LSB ties
		0, math.Copysign(0, -1), 1e-300, -1e-300, 5e-324, -5e-324, 0.49 * lsb, -0.49 * lsb,
		0.25, -0.25, 0.123456789, -0.987654321,
	}
}

func micWithFormat(t *testing.T, f i2s.Format) (*Microphone, *i2s.Controller) {
	t.Helper()
	ctrl := i2s.NewController("i2s0", 1<<16)
	if err := ctrl.WriteReg(i2s.RegCtrl, i2s.CtrlRXEnable); err != nil {
		t.Fatalf("enable controller: %v", err)
	}
	mic, err := NewMicrophone(ctrl, f)
	if err != nil {
		t.Fatalf("NewMicrophone: %v", err)
	}
	return mic, ctrl
}

// pumpAll pumps in chunks of n bytes until the signal is exhausted and
// returns everything the controller received.
func pumpAll(t *testing.T, mic *Microphone, ctrl *i2s.Controller, n int) []byte {
	t.Helper()
	for {
		if _, err := mic.PumpBytes(n); errors.Is(err, ErrNoSignal) {
			break
		} else if err != nil {
			t.Fatalf("PumpBytes(%d): %v", n, err)
		}
	}
	return ctrl.PopBytes(ctrl.BytesAvailable())
}

// The Load-time encoding is byte-identical to the historical
// quantize-at-pump path, for every word width and pump size.
func TestMicrophoneWireMatchesHistoricalEncoding(t *testing.T) {
	tone := audio.Sine(16000, 440, 0.9, 5*time.Millisecond)
	signal := append(edgeSamples(), tone.Samples...)
	for _, bits := range []int{16, 24, 32} {
		f := i2s.Format{SampleRate: 16000, BitsPerSample: bits, Channels: 1}
		want := historicalWire(t, signal, f)
		for _, n := range []int{1, 3, 5, 7, 64, 255, 8192} {
			mic, ctrl := micWithFormat(t, f)
			if err := mic.Load(audio.PCM{Rate: 16000, Samples: signal}); err != nil {
				t.Fatalf("Load: %v", err)
			}
			if n < f.BytesPerWord() {
				// Less than one word: nothing moves, nothing is consumed.
				if got, err := mic.PumpBytes(n); got != 0 || err != nil {
					t.Fatalf("%d-bit PumpBytes(%d) = %d, %v; want 0, nil", bits, n, got, err)
				}
				if mic.Remaining() != len(signal) {
					t.Fatalf("%d-bit PumpBytes(%d) consumed samples", bits, n)
				}
				continue
			}
			if got := pumpAll(t, mic, ctrl, n); !bytes.Equal(got, want) {
				t.Fatalf("%d-bit wire via PumpBytes(%d) differs from the historical encoding", bits, n)
			}
		}
	}
}

// The quantizer's edges pinned as literal 16-bit wire words, so the
// golden does not rest on i2s.EncodeFrames alone.
func TestMicrophoneEdgeWords(t *testing.T) {
	const lsb = 1.0 / 32768
	cases := []struct {
		s    float64
		word [2]byte
	}{
		{1.0, [2]byte{0x7f, 0xff}},
		{1.5, [2]byte{0x7f, 0xff}},
		{-1.0, [2]byte{0x80, 0x00}},
		{-1.5, [2]byte{0x80, 0x00}},
		{0.5 * lsb, [2]byte{0x00, 0x01}},  // ties round away from zero
		{-0.5 * lsb, [2]byte{0xff, 0xff}}, // -1
		{2.5 * lsb, [2]byte{0x00, 0x03}},
		{math.Copysign(0, -1), [2]byte{0x00, 0x00}},
		{1e-300, [2]byte{0x00, 0x00}},
		{-1e-300, [2]byte{0x00, 0x00}},
	}
	mic, ctrl := newMicFixture(t)
	for _, c := range cases {
		if err := mic.Load(audio.PCM{Rate: 16000, Samples: []float64{c.s}}); err != nil {
			t.Fatalf("Load: %v", err)
		}
		got := pumpAll(t, mic, ctrl, 2)
		if !bytes.Equal(got, c.word[:]) {
			t.Errorf("sample %g: wire % x, want % x", c.s, got, c.word)
		}
	}
}

// Loading behind an unplayed remainder queues the new signal's wire
// bytes after the remainder's, exactly as one concatenated signal.
func TestMicrophoneLoadBehindRemainderWire(t *testing.T) {
	a := audio.Sine(16000, 300, 0.7, 10*time.Millisecond)
	b := audio.PCM{Rate: 16000, Samples: edgeSamples()}
	for _, bits := range []int{16, 24} {
		f := i2s.Format{SampleRate: 16000, BitsPerSample: bits, Channels: 1}
		want := historicalWire(t, append(append([]float64(nil), a.Samples...), b.Samples...), f)
		mic, ctrl := micWithFormat(t, f)
		if err := mic.Load(a); err != nil {
			t.Fatalf("Load a: %v", err)
		}
		head := make([]byte, 0, len(want))
		for range 3 {
			n, err := mic.PumpBytes(101) // not a whole number of words
			if err != nil {
				t.Fatalf("PumpBytes: %v", err)
			}
			if n%f.BytesPerWord() != 0 {
				t.Fatalf("pushed %d bytes, not whole %d-byte words", n, f.BytesPerWord())
			}
			head = append(head, ctrl.PopBytes(n)...)
		}
		if err := mic.Load(b); err != nil {
			t.Fatalf("Load b: %v", err)
		}
		if got := append(head, pumpAll(t, mic, ctrl, 333)...); !bytes.Equal(got, want) {
			t.Fatalf("%d-bit: remainder+load wire differs from the concatenated signal", bits)
		}
	}
}

// Loading a signal at another rate behind a non-empty remainder is
// rejected and queues nothing; once drained, any rate loads.
func TestMicrophoneLoadRateMismatch(t *testing.T) {
	mic, ctrl := newMicFixture(t)
	if err := mic.Load(audio.Sine(16000, 200, 0.3, 10*time.Millisecond)); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := mic.PumpBytes(64); err != nil {
		t.Fatalf("PumpBytes: %v", err)
	}
	before := mic.Remaining()
	err := mic.Load(audio.Sine(8000, 200, 0.3, 10*time.Millisecond))
	if !errors.Is(err, ErrRateMismatch) {
		t.Fatalf("Load at 8 kHz behind 16 kHz = %v, want ErrRateMismatch", err)
	}
	if got := mic.Remaining(); got != before {
		t.Errorf("Remaining = %d after rejected load, want %d", got, before)
	}
	pumpAll(t, mic, ctrl, 4096)
	if err := mic.Load(audio.Sine(8000, 200, 0.3, 10*time.Millisecond)); err != nil {
		t.Errorf("Load at 8 kHz after draining: %v", err)
	}
}

// Load and PumpBytes on separate goroutines while a third drains the
// controller: the wire is the concatenation of the loaded signals, and
// -race checks that Load never writes queue bytes a pump is still
// pushing and that no slab returns to a pool while one is being read.
func TestMicrophoneConcurrentLoadPump(t *testing.T) {
	mic, ctrl := micWithFormat(t, i2s.DefaultFormat())
	signals := make([]audio.PCM, 40)
	var want []byte
	for i := range signals {
		signals[i] = audio.Sine(16000, float64(100+20*i), 0.6, time.Duration(5+5*(i%5))*time.Millisecond)
		want = append(want, historicalWire(t, signals[i].Samples, i2s.DefaultFormat())...)
	}

	loaded := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // loader
		defer wg.Done()
		defer close(loaded)
		for _, s := range signals {
			if err := mic.Load(s); err != nil {
				t.Errorf("Load: %v", err)
				return
			}
		}
	}()
	var got []byte
	drained := make(chan struct{})
	go func() { // drainer
		defer close(drained)
		buf := make([]byte, 97)
		for len(got) < len(want) {
			got = append(got, buf[:ctrl.PopInto(buf)]...)
		}
	}()
	// Pump until the loader is done and the queue is empty.
	for done := false; ; {
		if _, err := mic.PumpBytes(37); errors.Is(err, ErrNoSignal) {
			if done {
				break
			}
			select {
			case <-loaded:
				done = true
			default:
			}
		} else if err != nil {
			t.Fatalf("PumpBytes: %v", err)
		}
	}
	wg.Wait()
	<-drained
	if !bytes.Equal(got, want) {
		t.Fatalf("concurrent wire (%d bytes) differs from the loaded signals (%d bytes)", len(got), len(want))
	}
}

// Two pumps racing each other and a loader: every loaded byte reaches
// the controller exactly once.
func TestMicrophoneConcurrentPumps(t *testing.T) {
	mic, ctrl := micWithFormat(t, i2s.DefaultFormat())
	tone := audio.Sine(16000, 330, 0.5, 3*time.Millisecond)
	const loads = 60
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for range loads {
			if err := mic.Load(tone); err != nil {
				t.Errorf("Load: %v", err)
				return
			}
		}
	}()
	for range 2 {
		go func() {
			defer wg.Done()
			for mic.BytesPushed() < uint64(loads*len(tone.Samples)*2) {
				if _, err := mic.PumpBytes(50); err != nil && !errors.Is(err, ErrNoSignal) {
					t.Errorf("PumpBytes: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := ctrl.BytesAvailable(), loads*len(tone.Samples)*2; got != want {
		t.Fatalf("controller holds %d bytes, loaded %d", got, want)
	}
}

// The steady-state capture loop — Load, pump, drain — allocates nothing:
// the wire queue and the FIFO slab come from their pools each round.
func TestMicrophoneSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under -race")
	}
	mic, ctrl := newMicFixture(t)
	tone := audio.Sine(16000, 440, 0.5, 40*time.Millisecond)
	buf := make([]byte, 4096)
	round := func() {
		if err := mic.Load(tone); err != nil {
			t.Fatalf("Load: %v", err)
		}
		for {
			if _, err := mic.PumpBytes(1024); err != nil {
				break
			}
			for ctrl.PopInto(buf) > 0 {
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("Load→PumpBytes→PopInto allocates %.1f times per round, want 0", allocs)
	}
}
