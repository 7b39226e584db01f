package i2s

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/raceflag"
)

func enabledController(t *testing.T, fifoBytes int) *Controller {
	t.Helper()
	c := NewController("i2s0", fifoBytes)
	if err := c.WriteReg(RegCtrl, CtrlRXEnable); err != nil {
		t.Fatalf("enable: %v", err)
	}
	return c
}

// A ring holds a slab only while it holds bytes: draining to empty, by
// any drain, hands the slab back, and the next push borrows again.
func TestFIFOReleasesSlabWhenDrained(t *testing.T) {
	q := newFIFO(1 << 12)
	q.push(bytes.Repeat([]byte{7}, 1000))
	if q.slab == nil {
		t.Fatal("ring holds bytes without a slab")
	}
	dst := make([]byte, 600)
	if n := q.popInto(dst); n != 600 || q.slab == nil {
		t.Fatalf("partial drain: popped %d, slab %v", n, q.slab != nil)
	}
	if n := q.popInto(dst); n != 400 || q.slab != nil || q.buf != nil {
		t.Fatalf("draining to empty kept the slab (popped %d)", n)
	}
	if n := q.popInto(dst); n != 0 {
		t.Fatalf("empty ring popped %d", n)
	}
	q.push([]byte{1, 2, 3})
	if got := popN(q, 8); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("after re-borrow popped %v", got)
	}
}

// A pooled slab larger than the ring's capacity is used only up to the
// capacity: overrun accounting does not change with what the pool holds.
func TestFIFOCapacityIndependentOfPooledSlab(t *testing.T) {
	big := newFIFO(1 << 16)
	big.push(make([]byte, 1<<16))
	popN(big, 1<<16) // returns a 64 KiB slab to the pool
	q := newFIFO(8)
	if over := q.push(make([]byte, 12)); over != 4 {
		t.Fatalf("8-byte ring overran %d of 12 bytes, want 4", over)
	}
	if len(q.buf) > 8 {
		t.Fatalf("8-byte ring uses %d bytes of its slab", len(q.buf))
	}
}

func TestControllerPopIntoAndPopBytes(t *testing.T) {
	c := enabledController(t, 64)
	if err := c.PushWire([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatalf("PushWire: %v", err)
	}
	dst := make([]byte, 2)
	if n := c.PopInto(dst); n != 2 || !bytes.Equal(dst, []byte{1, 2}) {
		t.Fatalf("PopInto = %d %v", n, dst)
	}
	if got := c.PopBytes(10); !bytes.Equal(got, []byte{3, 4, 5}) {
		t.Fatalf("PopBytes = %v", got)
	}
	if got := c.PopBytes(10); len(got) != 0 {
		t.Fatalf("PopBytes on empty = %v", got)
	}
}

// A PIO read of a partial word returns the bytes present, MSB first.
func TestControllerFIFODataPartialWord(t *testing.T) {
	c := enabledController(t, 64)
	if err := c.PushWire([]byte{0xab, 0xcd}); err != nil {
		t.Fatalf("PushWire: %v", err)
	}
	v, err := c.ReadReg(RegFIFOData)
	if err != nil {
		t.Fatalf("fifo data read: %v", err)
	}
	if v != 0xabcd0000 {
		t.Errorf("partial word = %#x, want 0xabcd0000", v)
	}
}

func TestControllerPushPopAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under -race")
	}
	c := enabledController(t, 1<<20)
	wire := make([]byte, 8192)
	dst := make([]byte, 4096)
	round := func() {
		for range 4 {
			if err := c.PushWire(wire); err != nil {
				t.Fatalf("PushWire: %v", err)
			}
		}
		for c.PopInto(dst) > 0 {
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("PushWire→PopInto allocates %.1f times per round, want 0", allocs)
	}
}

func TestControllerFIFODataAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under -race")
	}
	c := enabledController(t, 256)
	wire := make([]byte, 64)
	round := func() {
		if err := c.PushWire(wire); err != nil {
			t.Fatalf("PushWire: %v", err)
		}
		for range len(wire) / 4 {
			if _, err := c.ReadReg(RegFIFOData); err != nil {
				t.Fatalf("fifo data read: %v", err)
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("RegFIFOData reads allocate %.1f times per round, want 0", allocs)
	}
}

// FuzzDecodeFrames: any bytes under any format decode or fail with a
// typed error, never panic; well-formed input re-encodes to itself.
func FuzzDecodeFrames(f *testing.F) {
	f.Add([]byte{0x12, 0x34, 0xff, 0xff}, uint32(16000), uint8(16), uint8(1))
	f.Add([]byte{0x80, 0, 0, 0x7f, 0xff, 0xff}, uint32(48000), uint8(24), uint8(2))
	f.Add([]byte{1, 2, 3}, uint32(16000), uint8(32), uint8(1))
	f.Add([]byte{}, uint32(0), uint8(12), uint8(3))
	f.Fuzz(func(t *testing.T, wire []byte, rate uint32, bits, channels uint8) {
		fm := Format{SampleRate: int(rate), BitsPerSample: int(bits), Channels: int(channels)}
		samples, err := DecodeFramesInto(nil, wire, fm)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrShortFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if len(wire)%fm.FrameBytes() != 0 {
			return // whole words but not whole frames: not re-encodable
		}
		back, err := EncodeFrames(samples, fm)
		if err != nil {
			t.Fatalf("re-encode of decoded frames: %v", err)
		}
		if !bytes.Equal(back, wire) {
			t.Fatalf("%+v: % x re-encodes to % x", fm, wire, back)
		}
	})
}
