package core

import (
	"bytes"
	"testing"

	"repro/internal/attest"
	"repro/internal/optee"
)

// FuzzTAManagement drives the management commands every TA shares
// (CmdAttest, CmdUpdateModel, CmdRotateKey) on a secure speaker's and a
// secure doorbell's TA with arbitrary parameter types and buffers. The
// normal world controls every byte of these calls, so each must succeed
// or return an error — never panic — and a rejected call must leave the
// TA's model version and key epoch where they were.
func FuzzTAManagement(f *testing.F) {
	speaker, err := NewSystem(Config{Mode: ModeSecureFilter, Seed: 42, DeviceID: "dev-fuzz", AttestKeySeed: 777})
	if err != nil {
		f.Fatal(err)
	}
	doorbell, err := NewCameraSystem(CameraConfig{Mode: ModeSecureFilter, Seed: 11, DeviceID: "cam-fuzz", AttestKeySeed: 888})
	if err != nil {
		f.Fatal(err)
	}
	tas := []optee.TA{speaker.VoiceTA, doorbell.TA}
	cores := []*taCore{&speaker.VoiceTA.taCore, &doorbell.TA.taCore}
	cmds := []uint32{CmdAttest, CmdUpdateModel, CmdRotateKey}

	// Seed one well-formed call per command and kind. The packs carry a
	// valid manifest but short, unloadable weights: a multi-kilobyte real
	// model would make every input derived from it slow to minimize, and
	// the install path is covered by the lifecycle tests.
	seeds := []struct {
		id   string
		key  uint64
		pack attest.Pack
	}{
		{"dev-fuzz", 777, attest.Pack{Version: 2, ModelSeed: 9, Text: []byte("text-weights")}},
		{"cam-fuzz", 888, attest.Pack{Version: 2, ModelSeed: 9, Image: []byte("image-weights")}},
	}
	in, out := uint8(optee.MemrefIn), uint8(optee.MemrefOut)
	for i, s := range seeds {
		key := attest.KeyFromSeed(s.key)
		v := attest.NewVerifier(1, func(id string) (attest.DeviceKey, bool) { return key, id == s.id })
		nonce := v.Challenge(s.id)
		tok, err := v.Manifest(s.id, s.pack)
		if err != nil {
			f.Fatal(err)
		}
		rot, err := v.Rotate(s.id)
		if err != nil {
			f.Fatal(err)
		}
		k := uint8(i)
		f.Add(k, uint8(0), in, out, nonce[:], []byte(nil), uint16(512))
		f.Add(k, uint8(1), in, in, s.pack.Encode(), tok.Marshal(), uint16(0))
		f.Add(k, uint8(2), in, out, rot.Marshal(), []byte(nil), uint16(0))
	}
	f.Add(uint8(0), uint8(0), in, out, []byte{1, 2, 3}, []byte(nil), uint16(4)) // short nonce
	f.Add(uint8(1), uint8(2), uint8(optee.ValueIn), out, []byte(nil), []byte(nil), uint16(0))

	param := func(typ uint8, buf []byte, outLen uint16) optee.Param {
		p := optee.Param{Type: optee.ParamType(typ % 7)}
		switch {
		case p.Type == optee.MemrefOut:
			p.Buf = make([]byte, outLen%1024)
		case p.Type.IsMemref():
			p.Buf = buf
		default:
			p.A = uint64(len(buf))
		}
		return p
	}
	f.Fuzz(func(t *testing.T, which, cmd, t0, t1 uint8, b0, b1 []byte, outLen uint16) {
		ta, c := tas[int(which)%len(tas)], cores[int(which)%len(cores)]
		// Restore the lifecycle state after every call, so each input runs
		// against the same TA and the fuzzer can replay and minimize it.
		c.mu.Lock()
		attestor, version, seed, clf := c.attestor, c.modelVersion, c.modelSeed, c.classifier
		c.mu.Unlock()
		defer func() {
			c.mu.Lock()
			c.attestor, c.modelVersion, c.modelSeed, c.classifier = attestor, version, seed, clf
			c.mu.Unlock()
		}()
		epoch := c.KeyEpoch()
		p := &optee.Params{param(t0, b0, outLen), param(t1, b1, outLen), {}}
		if err := ta.Invoke(0, cmds[int(cmd)%len(cmds)], p); err == nil {
			return
		}
		if c.ModelVersion() != version || c.KeyEpoch() != epoch {
			t.Fatalf("rejected call moved version %d→%d, epoch %d→%d",
				version, c.ModelVersion(), epoch, c.KeyEpoch())
		}
	})
}

// FuzzSplitLengthPrefixed: the HE handoff's length-prefixed wire form
// never panics on hostile bytes, a buffer it accepts re-packs to itself,
// and packing any non-empty blobs splits back to the same blobs.
func FuzzSplitLengthPrefixed(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 'a', 'b', 'c'}, uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1}, uint8(0))
	f.Add([]byte{0, 0, 0, 0}, uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, buf []byte, cut uint8) {
		if blobs, err := splitLengthPrefixed(buf); err == nil && !bytes.Equal(packLengthPrefixed(blobs), buf) {
			t.Fatalf("accepted %x does not re-pack to itself", buf)
		}
		// Cut buf into non-empty blobs of at most cut+1 bytes each.
		var blobs [][]byte
		for rest := buf; len(rest) > 0; {
			n := min(int(cut)+1, len(rest))
			blobs, rest = append(blobs, rest[:n]), rest[n:]
		}
		if len(blobs) == 0 {
			return
		}
		got, err := splitLengthPrefixed(packLengthPrefixed(blobs))
		if err != nil {
			t.Fatalf("split of packed blobs: %v", err)
		}
		if len(got) != len(blobs) {
			t.Fatalf("%d blobs back, packed %d", len(got), len(blobs))
		}
		for i := range got {
			if !bytes.Equal(got[i], blobs[i]) {
				t.Fatalf("blob %d: %x, packed %x", i, got[i], blobs[i])
			}
		}
	})
}
