package i2s

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestFormatValidate(t *testing.T) {
	tests := []struct {
		name    string
		f       Format
		wantErr bool
	}{
		{"default", DefaultFormat(), false},
		{"stereo 24-bit", Format{48000, 24, 2}, false},
		{"32-bit", Format{96000, 32, 2}, false},
		{"bad bits", Format{16000, 12, 1}, true},
		{"bad channels", Format{16000, 16, 3}, true},
		{"zero channels", Format{16000, 16, 0}, true},
		{"rate too low", Format{4000, 16, 1}, true},
		{"rate too high", Format{400000, 16, 1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.f.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadFormat) {
				t.Errorf("error %v should wrap ErrBadFormat", err)
			}
		})
	}
}

func TestFormatDerived(t *testing.T) {
	f := Format{SampleRate: 16000, BitsPerSample: 16, Channels: 2}
	if f.BytesPerWord() != 2 {
		t.Errorf("BytesPerWord = %d, want 2", f.BytesPerWord())
	}
	if f.FrameBytes() != 4 {
		t.Errorf("FrameBytes = %d, want 4", f.FrameBytes())
	}
	if f.BitClockHz() != 16000*16*2 {
		t.Errorf("BitClockHz = %d", f.BitClockHz())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	formats := []Format{
		{16000, 16, 1},
		{16000, 16, 2},
		{48000, 24, 2},
		{48000, 32, 2},
	}
	samples := []int32{0, 1, -1, 12345, -12345, 32767, -32768}
	for _, f := range formats {
		in := samples
		if f.Channels == 2 && len(in)%2 == 1 {
			in = in[:len(in)-1]
		}
		wire, err := EncodeFrames(in, f)
		if err != nil {
			t.Fatalf("%+v Encode: %v", f, err)
		}
		if len(wire) != len(in)*f.BytesPerWord() {
			t.Errorf("%+v wire length %d, want %d", f, len(wire), len(in)*f.BytesPerWord())
		}
		out, err := DecodeFrames(wire, f)
		if err != nil {
			t.Fatalf("%+v Decode: %v", f, err)
		}
		if len(out) != len(in) {
			t.Fatalf("%+v decoded %d samples, want %d", f, len(out), len(in))
		}
		for i := range in {
			if out[i] != in[i] {
				t.Errorf("%+v sample %d = %d, want %d", f, i, out[i], in[i])
			}
		}
	}
}

// Property: encode/decode is the identity for any int16 sample sequence in
// the default 16-bit format.
func TestEncodeDecodeProperty(t *testing.T) {
	f := DefaultFormat()
	prop := func(samples []int16) bool {
		in := make([]int32, len(samples))
		for i, s := range samples {
			in[i] = int32(s)
		}
		wire, err := EncodeFrames(in, f)
		if err != nil {
			return false
		}
		out, err := DecodeFrames(wire, f)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeOddStereo(t *testing.T) {
	f := Format{16000, 16, 2}
	if _, err := EncodeFrames([]int32{1, 2, 3}, f); !errors.Is(err, ErrBadFormat) {
		t.Errorf("odd stereo encode = %v, want ErrBadFormat", err)
	}
}

func TestDecodeShortFrame(t *testing.T) {
	f := Format{16000, 24, 1}
	if _, err := DecodeFrames([]byte{1, 2, 3, 4}, f); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short decode = %v, want ErrShortFrame", err)
	}
}

// popN drains up to n bytes from q into a fresh slice.
func popN(q *fifo, n int) []byte {
	out := make([]byte, n)
	return out[:q.popInto(out)]
}

func TestFIFOPushPop(t *testing.T) {
	q := newFIFO(8)
	if over := q.push([]byte{1, 2, 3}); over != 0 {
		t.Errorf("push overran %d", over)
	}
	if got := popN(q, 2); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("pop = %v", got)
	}
	if over := q.push([]byte{4, 5, 6, 7, 8, 9, 10}); over != 0 {
		t.Errorf("wrap push overran %d", over)
	}
	got := popN(q, 10)
	want := []byte{3, 4, 5, 6, 7, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("pop = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pop[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFIFOOverrun(t *testing.T) {
	q := newFIFO(4)
	if over := q.push([]byte{1, 2, 3, 4, 5, 6}); over != 2 {
		t.Errorf("push overrun = %d, want 2", over)
	}
	if q.len() != 4 {
		t.Errorf("len = %d, want 4", q.len())
	}
}

// Property: FIFO preserves order and never exceeds capacity.
func TestFIFOOrderProperty(t *testing.T) {
	prop := func(chunks [][]byte) bool {
		const capacity = 64
		q := newFIFO(capacity)
		var expect []byte
		for _, ch := range chunks {
			over := q.push(ch)
			kept := len(ch) - over
			expect = append(expect, ch[:kept]...)
			if q.len() > capacity {
				return false
			}
			if len(expect) > 16 {
				got := popN(q, 16)
				for i := range got {
					if got[i] != expect[i] {
						return false
					}
				}
				expect = expect[len(got):]
			}
		}
		got := popN(q, q.len())
		if len(got) != len(expect) {
			return false
		}
		for i := range got {
			if got[i] != expect[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestControllerDisabledRejectsData(t *testing.T) {
	c := NewController("i2s0", 64)
	if err := c.PushWire([]byte{1, 2}); !errors.Is(err, ErrControllerOff) {
		t.Errorf("PushWire on disabled = %v, want ErrControllerOff", err)
	}
}

func TestControllerDataPath(t *testing.T) {
	c := NewController("i2s0", 256)
	if err := c.WriteReg(RegCtrl, CtrlRXEnable); err != nil {
		t.Fatalf("WriteReg ctrl: %v", err)
	}
	wire, err := EncodeFrames([]int32{100, -200, 300}, DefaultFormat())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := c.PushWire(wire); err != nil {
		t.Fatalf("PushWire: %v", err)
	}
	if got := c.BytesAvailable(); got != len(wire) {
		t.Errorf("BytesAvailable = %d, want %d", got, len(wire))
	}
	out := c.PopBytes(len(wire))
	samples, err := DecodeFrames(out, DefaultFormat())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(samples) != 3 || samples[0] != 100 || samples[1] != -200 || samples[2] != 300 {
		t.Errorf("samples = %v", samples)
	}
	st := c.Stats()
	if st.BytesIn != uint64(len(wire)) || st.FramesIn != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestControllerOverrunAccounting(t *testing.T) {
	c := NewController("i2s0", 8)
	_ = c.WriteReg(RegCtrl, CtrlRXEnable)
	if err := c.PushWire(make([]byte, 20)); err != nil {
		t.Fatalf("PushWire: %v", err)
	}
	st := c.Stats()
	if st.BytesDropped != 12 || st.Overruns != 1 {
		t.Errorf("stats = %+v, want 12 dropped / 1 overrun", st)
	}
	status, err := c.ReadReg(RegStatus)
	if err != nil {
		t.Fatalf("ReadReg: %v", err)
	}
	if status&StatusOverrun == 0 {
		t.Error("overrun bit not set in status")
	}
}

func TestControllerIRQWatermark(t *testing.T) {
	c := NewController("i2s0", 64)
	fired := 0
	c.SetIRQHandler(func() { fired++ })
	_ = c.WriteReg(RegCtrl, CtrlRXEnable|CtrlIRQEnable)
	if err := c.WriteReg(RegWatermark, 16); err != nil {
		t.Fatalf("watermark: %v", err)
	}
	if err := c.PushWire(make([]byte, 8)); err != nil {
		t.Fatalf("PushWire: %v", err)
	}
	if fired != 0 {
		t.Errorf("IRQ fired below watermark")
	}
	if err := c.PushWire(make([]byte, 8)); err != nil {
		t.Fatalf("PushWire: %v", err)
	}
	if fired != 1 {
		t.Errorf("IRQ fired %d times, want 1", fired)
	}
	if st := c.Stats(); st.IRQs != 1 {
		t.Errorf("IRQs = %d, want 1", st.IRQs)
	}
}

func TestControllerIRQDisabled(t *testing.T) {
	c := NewController("i2s0", 32)
	fired := 0
	c.SetIRQHandler(func() { fired++ })
	_ = c.WriteReg(RegCtrl, CtrlRXEnable) // no IRQ enable bit
	_ = c.WriteReg(RegWatermark, 4)
	_ = c.PushWire(make([]byte, 16))
	if fired != 0 {
		t.Error("IRQ fired while disabled")
	}
}

func TestControllerRegisterFile(t *testing.T) {
	c := NewController("i2s0", 128)
	f := Format{SampleRate: 48000, BitsPerSample: 24, Channels: 2}
	if err := c.WriteReg(RegClkCfg, encodeClkCfg(f)); err != nil {
		t.Fatalf("clkcfg write: %v", err)
	}
	if got := c.Format(); got != f {
		t.Errorf("Format = %+v, want %+v", got, f)
	}
	v, err := c.ReadReg(RegClkCfg)
	if err != nil {
		t.Fatalf("clkcfg read: %v", err)
	}
	if decodeClkCfg(v) != f {
		t.Errorf("clkcfg round trip = %+v", decodeClkCfg(v))
	}
	if err := c.WriteReg(RegClkCfg, encodeClkCfg(Format{16000, 12, 1})); err == nil {
		t.Error("invalid clkcfg accepted")
	}
	if err := c.WriteReg(RegWatermark, 4096); err == nil {
		t.Error("oversized watermark accepted")
	}
	if _, err := c.ReadReg(0xfc); err == nil {
		t.Error("unknown register read accepted")
	}
	if err := c.WriteReg(0xfc, 0); err == nil {
		t.Error("unknown register write accepted")
	}
}

func TestControllerFIFODataRegister(t *testing.T) {
	c := NewController("i2s0", 64)
	_ = c.WriteReg(RegCtrl, CtrlRXEnable)
	wire, _ := EncodeFrames([]int32{0x1234}, Format{16000, 32, 1})
	_ = c.PushWire(wire)
	v, err := c.ReadReg(RegFIFOData)
	if err != nil {
		t.Fatalf("fifo data read: %v", err)
	}
	if v != 0x1234 {
		t.Errorf("FIFO data = %#x, want 0x1234", v)
	}
	lvl, _ := c.ReadReg(RegFIFOLevel)
	if lvl != 0 {
		t.Errorf("FIFO level = %d after drain, want 0", lvl)
	}
}

func TestControllerReset(t *testing.T) {
	c := NewController("i2s0", 64)
	_ = c.WriteReg(RegCtrl, CtrlRXEnable)
	_ = c.PushWire(make([]byte, 16))
	c.Reset()
	if c.Enabled() {
		t.Error("controller enabled after reset")
	}
	if c.BytesAvailable() != 0 {
		t.Error("FIFO not cleared by reset")
	}
	if st := c.Stats(); st.BytesIn != 0 {
		t.Error("stats not cleared by reset")
	}
}

func TestSetFormat(t *testing.T) {
	c := NewController("i2s0", 64)
	if err := c.SetFormat(Format{44100, 16, 2}); err != nil {
		t.Fatalf("SetFormat: %v", err)
	}
	if err := c.SetFormat(Format{44100, 20, 2}); err == nil {
		t.Error("invalid SetFormat accepted")
	}
}
