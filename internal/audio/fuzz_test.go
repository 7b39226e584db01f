package audio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzDecodePCM16: any payload decodes or fails with ErrBadPCM16, never
// panics; a decoded payload re-quantizes (ToInt16) to the same bytes.
func FuzzDecodePCM16(f *testing.F) {
	f.Add([]byte{0x00, 0x80, 0xff, 0x7f})
	f.Add([]byte{0x01, 0x00, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		samples, err := DecodePCM16Into(nil, payload)
		if err != nil {
			if !errors.Is(err, ErrBadPCM16) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		back := make([]byte, 0, len(payload))
		for _, s := range (PCM{Rate: 16000, Samples: samples}).ToInt16() {
			back = binary.LittleEndian.AppendUint16(back, uint16(s))
		}
		if !bytes.Equal(back, payload) {
			t.Fatalf("% x re-encodes to % x", payload, back)
		}
	})
}
