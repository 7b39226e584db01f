package attest

import (
	"bytes"
	"errors"
	"testing"
)

// The rollout and lifecycle decoders parse bytes the normal world hands
// the TA: any input must decode or fail with the decoder's typed error,
// never panic, and whatever decodes must re-encode to the same bytes.

// FuzzDecodePack: DecodePack either fails with ErrBadPack or returns a
// pack whose Encode is the input.
func FuzzDecodePack(f *testing.F) {
	f.Add(Pack{Version: 2, ModelSeed: 999, Text: []byte("text"), Image: []byte("image")}.Encode())
	f.Add(Pack{Version: 1}.Encode())
	f.Add([]byte{})
	f.Add(make([]byte, 20))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePack(b)
		if err != nil {
			if !errors.Is(err, ErrBadPack) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if got := p.Encode(); !bytes.Equal(got, b) {
			t.Fatalf("% x re-encodes to % x", b, got)
		}
	})
}

// FuzzManifestToken: UnmarshalManifestToken either fails with
// ErrBadManifest or returns a token whose Marshal is the input.
func FuzzManifestToken(f *testing.F) {
	f.Add(ManifestToken{DeviceID: "device-00001", Version: 2, Digest: Digest{1, 2, 3}, MAC: [32]byte{9}}.Marshal())
	f.Add(ManifestToken{}.Marshal())
	f.Add([]byte{})
	f.Add(make([]byte, 8+32+2+32+1))
	f.Fuzz(func(t *testing.T, b []byte) {
		tok, err := UnmarshalManifestToken(b)
		if err != nil {
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if got := tok.Marshal(); !bytes.Equal(got, b) {
			t.Fatalf("% x re-encodes to % x", b, got)
		}
	})
}

// FuzzRotationToken: UnmarshalRotationToken either fails with
// ErrBadRotation or returns a token whose Marshal is the input.
func FuzzRotationToken(f *testing.F) {
	f.Add(RotationToken{DeviceID: "device-00001", NewEpoch: 3, MAC: [32]byte{7}}.Marshal())
	f.Add(RotationToken{}.Marshal())
	f.Add([]byte{})
	f.Add(make([]byte, 8+2+32+1))
	f.Fuzz(func(t *testing.T, b []byte) {
		tok, err := UnmarshalRotationToken(b)
		if err != nil {
			if !errors.Is(err, ErrBadRotation) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if got := tok.Marshal(); !bytes.Equal(got, b) {
			t.Fatalf("% x re-encodes to % x", b, got)
		}
	})
}
