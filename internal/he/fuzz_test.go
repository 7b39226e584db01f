package he

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzHEUnmarshal feeds arbitrary bytes to the ciphertext decoder, the
// TA's first contact with a provider-controlled handoff blob, under the
// shipped expansion and the smallest one. Any input ends in ErrCorrupt
// or ErrShape, never a panic. An accepted blob re-marshals to itself in
// every byte the decoder reads: the header, the shape and each slot's
// masked word. (The rest of a slot block is key-stream filler that
// carries nothing; the decoder skips it and Marshal writes it anew.)
// Decoding into a ciphertext left over from another blob gives what a
// fresh decode gives, and a forged slot count or shape never makes the
// decoder allocate more than the blob's length can back.
func FuzzHEUnmarshal(f *testing.F) {
	for _, exp := range []int{2, DefaultParams().Expansion} {
		p := DefaultParams()
		p.Expansion = exp
		for _, shape := range [][]int{{3}, {2, 2}, {2, 1, 2}} {
			f.Add(goldenCiphertext(f, p, shape).Marshal(p))
		}
	}
	f.Add([]byte("HEC1"))
	f.Add(forgedShape([]uint32{1 << 22, 1 << 21, 1 << 21}, 0))
	f.Add(forgedShape([]uint32{1 << 16, 1 << 16}, 0xffffffff))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, exp := range []int{2, DefaultParams().Expansion} {
			p := DefaultParams()
			p.Expansion = exp
			ev := testEvaluator(t, p)
			fresh, err := decodeBounded(t, ev, b)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrShape) {
					t.Fatalf("exp %d: untyped error %v", exp, err)
				}
			} else {
				assertReadBytesRoundTrip(t, fresh, b, p)
			}

			dirty := goldenCiphertext(t, p, []int{4, 3, 2})
			dirty.level, dirty.noise = 7, 3
			was := dirty.Marshal(p)
			reuseErr := ev.UnmarshalInto(dirty, b)
			if (reuseErr == nil) != (err == nil) {
				t.Fatalf("exp %d: reused decode error %v, fresh %v", exp, reuseErr, err)
			}
			if err != nil {
				if !bytes.Equal(dirty.Marshal(p), was) {
					t.Fatalf("exp %d: rejected blob changed the reused ciphertext", exp)
				}
				continue
			}
			if !bytes.Equal(dirty.Marshal(p), fresh.Marshal(p)) {
				t.Fatalf("exp %d: reused decode differs from a fresh one", exp)
			}
		}
	})
}

// forgedShape is a ciphertext header claiming dims and slots, with no
// slot blocks behind it.
func forgedShape(dims []uint32, slots uint32) []byte {
	var b []byte
	for _, w := range []uint32{ciphertextMagic, 1, 0, 1, 50, uint32(len(dims))} {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	return binary.LittleEndian.AppendUint32(b, slots)
}

// decodeBounded decodes b into a zero ciphertext and fails if the
// decoder sized anything past what b's length can back. Its only
// allocations are the shape and the slot slice, so their capacities are
// what it allocated; each slot takes at least eight wire bytes.
func decodeBounded(t *testing.T, ev *Evaluator, b []byte) (*Ciphertext, error) {
	ct := new(Ciphertext)
	err := ev.UnmarshalInto(ct, b)
	if cap(ct.shape) > maxDims || 4*cap(ct.data) > len(b) {
		t.Fatalf("decoding %d bytes sized %d dims and %d slots", len(b), cap(ct.shape), cap(ct.data))
	}
	if err != nil {
		return nil, err
	}
	return ct, nil
}

// assertReadBytesRoundTrip checks that re-marshaling ct reproduces b in
// every byte the decoder reads.
func assertReadBytesRoundTrip(t *testing.T, ct *Ciphertext, b []byte, p Params) {
	t.Helper()
	re := ct.Marshal(p)
	if len(re) != len(b) {
		t.Fatalf("re-marshal is %d bytes, input %d", len(re), len(b))
	}
	head := len(b) - len(ct.data)*4*p.Expansion
	if !bytes.Equal(re[:head], b[:head]) {
		t.Fatalf("re-marshal header %x, input %x", re[:head], b[:head])
	}
	for off := head; off < len(b); off += 4 * p.Expansion {
		if !bytes.Equal(re[off:off+4], b[off:off+4]) {
			t.Fatalf("slot at byte %d re-marshals to %x, input %x", off, re[off:off+4], b[off:off+4])
		}
	}
}

// FuzzParseSecretKey feeds arbitrary bytes to the sealed secret-key
// decoder. Any input ends in ErrCorrupt or a key whose parameters
// validate, and an accepted blob re-marshals to itself byte for byte.
func FuzzParseSecretKey(f *testing.F) {
	kp, err := KeyGen(DefaultParams(), 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(kp.Secret.Marshal())
	f.Add([]byte("junk"))
	huge := kp.Secret.Marshal()
	binary.LittleEndian.PutUint32(huge[16:], math.MaxUint32) // Expansion
	f.Add(huge)
	f.Fuzz(func(t *testing.T, b []byte) {
		sk, err := ParseSecretKey(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if err := sk.Params.validate(); err != nil {
			t.Fatalf("accepted key with invalid params: %v", err)
		}
		if got := sk.Marshal(); !bytes.Equal(got, b) {
			t.Fatalf("re-marshal %x, input %x", got, b)
		}
	})
}
